"""End-to-end CLI coverage over temp files."""

import json
from fractions import Fraction

import pytest

from tournhom.cli import main
from tournhom.digraphs import (
    Digraph,
    load_digraph,
    load_rooted,
    save_digraph,
)
from tournhom.gadgets import rotational_tournament, toy_family
from tournhom.hosts import save_simple_graph, single_edge_graph


@pytest.fixture
def f0_file(tmp_path):
    path = tmp_path / "f0.txt"
    save_digraph(path, rotational_tournament(5))
    return path


def run(args):
    return main([str(a) for a in args])


class TestSampling:
    def test_sample_and_check(self, tmp_path, capsys):
        out = tmp_path / "f0.txt"
        assert run(["sample-f0", "--n", 9, "--a", 3, "--t3", 5, "--seed", 1,
                    "--max-tries", 500, "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 9
        assert run(["check-f0", "--input", out, "--a", 3, "--t3", 5]) == 0
        # stricter thresholds must fail with exit 1
        assert run(["check-f0", "--input", out, "--a", 1, "--t3", 5]) == 1

    def test_infeasible_parameters_exit_2(self, tmp_path):
        assert run(["sample-f0", "--n", 4, "--a", 1, "--t3", 3,
                    "--max-tries", 5, "--out", tmp_path / "x.txt"]) == 2


class TestGadgetPipeline:
    def test_build_gadget_and_necklace(self, tmp_path, f0_file):
        f_out = tmp_path / "f.txt"
        fd_out = tmp_path / "fd.txt"
        assert run(["build-gadget", "--f0", f0_file, "--k", 3,
                    "--out-f", f_out, "--out-fdagger", fd_out]) == 0
        gadget = load_rooted(f_out)
        assert gadget.graph.n == 7
        doubled = load_rooted(fd_out)
        assert doubled.graph.n == 12
        neck = tmp_path / "neck.txt"
        assert run(["necklace", "--gadget", fd_out, "--len", 3, "--out", neck]) == 0
        assert load_digraph(neck).n == 3 * 11

    def test_short_necklace_exit_2(self, tmp_path, f0_file):
        fd_out = tmp_path / "fd.txt"
        run(["build-gadget", "--f0", f0_file, "--k", 3,
             "--out-f", tmp_path / "f.txt", "--out-fdagger", fd_out])
        assert run(["necklace", "--gadget", fd_out, "--len", 2,
                    "--out", tmp_path / "n.txt"]) == 2


class TestHom:
    def test_count_and_enumerate(self, tmp_path, capsys):
        pat = tmp_path / "p.txt"
        save_digraph(pat, Digraph(1, []))
        host = tmp_path / "h.txt"
        save_digraph(host, rotational_tournament(5))
        assert run(["hom", "--pattern", pat, "--host", host]) == 0
        assert capsys.readouterr().out.strip() == "5"
        assert run(["hom", "--pattern", pat, "--host", host, "--enumerate"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "5" and len(lines) == 6

    def test_rooted_count(self, tmp_path, capsys):
        pat = tmp_path / "p.txt"
        # roots 0, 1 and a middle vertex completing a directed path
        save_digraph(pat, Digraph(3, [(0, 2), (2, 1)]), roots=(0, 1))
        host = tmp_path / "h.txt"
        save_digraph(host, Digraph(3, [(0, 2), (2, 1), (1, 0)]))
        assert run(["hom", "--pattern", pat, "--host", host,
                    "--root-x", 0, "--root-y", 1]) == 0
        assert capsys.readouterr().out.strip() == "1"


class TestHostAndMatrix:
    def test_full_pipeline(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        save_simple_graph(graph, single_edge_graph())
        f0 = tmp_path / "f0.txt"
        save_digraph(f0, toy_family(3, (2,)).base)
        host = tmp_path / "host.txt"
        atlas = tmp_path / "atlas.json"
        assert run(["build-host", "--graph", graph, "--f0", f0, "--m", 3,
                    "--s", 1, "--k", "2", "--r", "2", "--toy",
                    "--out", host, "--atlas", atlas]) == 0
        assert load_digraph(host).n == 16
        assert json.loads(atlas.read_text())["blocks"][1]["k"] == 2

        fd = tmp_path / "fd.txt"
        run(["build-gadget", "--f0", f0, "--k", 2,
             "--out-f", tmp_path / "f.txt", "--out-fdagger", fd])
        counts = tmp_path / "counts.csv"
        dens = tmp_path / "density.csv"
        assert run(["density-matrix", "--gadget", fd, "--host", host,
                    "--out", counts, "--out-density", dens]) == 0
        header = counts.read_text().splitlines()[0]
        assert header.startswith("vertex,0,1,")

        capsys.readouterr()
        assert run(["xy", "--matrix", counts]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["x_exact"] == "1/4"
        assert out["y_exact"] == "1/16"


class TestXY:
    @staticmethod
    def write_csv(path, rows):
        lines = ["vertex," + ",".join(str(j) for j in range(len(rows)))]
        lines += [f"{i}," + ",".join(str(c) for c in row) for i, row in enumerate(rows)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_nonsymmetric_matrix_exit_2(self, tmp_path, capsys):
        csv_path = self.write_csv(tmp_path / "m.csv", [[0, 1, 0], [2, 0, 1], [0, 1, 0]])
        assert run(["xy", "--matrix", csv_path]) == 2
        assert "not symmetric at (1, 0)" in capsys.readouterr().err

    def test_huge_entries(self, tmp_path, capsys):
        c = 10**400
        csv_path = self.write_csv(tmp_path / "m.csv", [[0, c], [c, 0]])
        assert run(["xy", "--matrix", csv_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"x": 0.5, "y": 0.25, "x_exact": "1/2", "y_exact": "1/4"}


class TestRegionCheck:
    def test_inside(self):
        assert run(["region-check", "--x", 0.5, "--y", 0.25]) == 0

    def test_outside_exit_1(self):
        assert run(["region-check", "--x", 0.4, "--y", 0.14]) == 1

    def test_infinite_coordinate_exit_2(self):
        assert run(["region-check", "--x", "inf", "--y", 0.25]) == 2


class TestReduce:
    def test_reduce_and_eval(self, tmp_path, capsys):
        fam_dir = tmp_path / "family"
        fam_dir.mkdir()
        save_digraph(fam_dir / "f0.txt", toy_family(3, (2,)).base)
        (fam_dir / "family.json").write_text(json.dumps({"f0": "f0.txt", "k": [2]}))
        poly = tmp_path / "p.txt"
        poly.write_text("x1")
        out = tmp_path / "fp.json"
        assert run(["reduce", "--poly", poly, "--family", fam_dir,
                    "--mode", "minimal", "--out", out]) == 0
        assert json.loads(capsys.readouterr().out)["E"] == [14]

        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(7))
        assert run(["eval-quantum", "--quantum", out, "--host", host]) == 0
        result = json.loads(capsys.readouterr().out)
        assert Fraction(result["value"]) >= 0

    def test_generic_eval_without_meta(self, tmp_path, capsys):
        quantum = tmp_path / "q.json"
        quantum.write_text(json.dumps({
            "terms": [{"coef": "1/1", "graph": "digraph 2\n0 1\n"}]
        }))
        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(5))
        assert run(["eval-quantum", "--quantum", quantum, "--host", host]) == 0
        assert Fraction(json.loads(capsys.readouterr().out)["value"]) == Fraction(2, 5)


class TestVerify:
    def test_core_suite_runs(self, tmp_path, capsys):
        report_path = tmp_path / "core.json"
        assert run(["verify", "--suite", "core", "--out-report", report_path]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["passed"] is True
        assert any(i["id"] == "core.multiplicativity" for i in doc["items"])

    def test_unknown_suite_exit_2(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            run(["verify", "--suite", "nope"])

    def test_config_file_and_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        assert run(["verify", "--suite", "core", "--config", cfg, "--seed", 4]) == 0

    def test_region_suite_accepts_hosts_dir(self, tmp_path, capsys):
        hosts = tmp_path / "hosts"
        hosts.mkdir()
        save_digraph(hosts / "r7.txt", rotational_tournament(7))
        report = tmp_path / "region.json"
        assert run(["verify", "--suite", "region", "--hosts", hosts,
                    "--out-report", report]) == 0
        doc = json.loads(report.read_text())
        item = next(i for i in doc["items"] if i["id"] == "region.containment")
        assert "checked" in item["details"]
