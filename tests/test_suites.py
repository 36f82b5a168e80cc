"""Suite plumbing: the run record, report shape, determinism."""

import json

import pytest

from tournhom.suites import ExperimentConfig, run_core, run_suite


class TestConfig:
    def test_fields_are_the_ones_a_run_varies(self):
        assert list(ExperimentConfig.__dataclass_fields__) == [
            "seed", "sizes", "converge_r", "hosts_dir"
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
