"""Suite plumbing: config parsing, report shape, determinism."""

import json

import pytest

from tournhom.suites import ExperimentConfig, run_core, run_suite


class TestConfig:
    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "sizes": [32, 64], "converge_r": [1]}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.seed == 9 and cfg.sizes == (32, 64) and cfg.converge_r == (1,)

    @pytest.mark.parametrize(
        "name",
        # a misspelling, then the suite parameters that are constants
        ["sede", "n_base", "biclique_size", "transitive_threshold", "max_tries", "s",
         "r_values", "sample_pairs", "node_budget", "enumeration_cap", "hom_samples",
         "rel_tol", "newton_tol"],
    )
    def test_unknown_field_rejected(self, tmp_path, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: 9}))
        with pytest.raises(ValueError, match=f"unknown config fields: \\['{name}'\\]"):
            ExperimentConfig.from_json(path)

    def test_fields_are_the_ones_a_run_varies(self):
        assert list(ExperimentConfig.__dataclass_fields__) == [
            "seed", "sizes", "converge_r", "hosts_dir", "out_dir"
        ]


class TestReports:
    def test_core_report_shape(self, tmp_path):
        report = run_core(ExperimentConfig(seed=1))
        assert report.passed
        doc = report.to_json()
        assert doc["suite"] == "core"
        assert {i["id"] for i in doc["items"]} == {
            "core.oracle",
            "core.oracle_rooted",
            "core.multiplicativity",
        }
        report.save(tmp_path / "r.json")
        assert json.loads((tmp_path / "r.json").read_text())["passed"] is True

    def test_exact_fields_deterministic(self):
        a = run_core(ExperimentConfig(seed=2)).to_json()
        b = run_core(ExperimentConfig(seed=2)).to_json()
        a.pop("timings")
        b.pop("timings")
        assert a == b

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", ExperimentConfig())
