"""End-to-end CLI coverage over temp files."""

import argparse
import contextlib
import copy
import io
import json
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tournhom import cli, suites
from tournhom.cli import _scientific, main
from tournhom.digraphs import (
    Digraph,
    Tournament,
    format_digraph,
    load_digraph,
    load_rooted,
    random_tournament,
    save_digraph,
    transitive_tournament,
)
from tournhom.gadgets import build_gadget, rotational_tournament, symmetrize, toy_family
from tournhom.hosts import build_host, cycle_graph, save_simple_graph, single_edge_graph
from tournhom.reduction import (
    ReducedQuantum,
    build_reduction,
    eval_reduced,
    parse_poly_text,
    save_reduced,
)
from tournhom.spectral import xy_from_matrix


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

    def test_transitive_size_zero_has_the_empty_witness(self, f0_file, capsys):
        assert run(["check-f0", "--input", f0_file, "--a", 3, "--t3", 0]) == 1
        assert json.loads(capsys.readouterr().out)["transitive_witness"] == "()"

    def test_negative_transitive_size_exits_2(self, f0_file, capsys):
        assert run(["check-f0", "--input", f0_file, "--a", 3, "--t3", -1]) == 2
        assert "size must be nonnegative, got -1" in capsys.readouterr().err

    def test_far_head_in_the_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "far.txt"
        path.write_text("digraph 3\n0 1\n1 2\n2 1000000000000\n")
        assert run(["check-f0", "--input", path, "--a", 1, "--t3", 1]) == 2
        assert "arc (2, 1000000000000) out of range for n=3" in capsys.readouterr().err

    def test_infeasible_parameters_exit_2(self, tmp_path):
        assert run(["sample-f0", "--n", 4, "--a", 1, "--t3", 3,
                    "--max-tries", 5, "--out", tmp_path / "x.txt"]) == 2

    def test_negative_tries_exit_2(self, tmp_path, capsys):
        # reported as a spent budget, "no base tournament in -3 tries", before
        assert run(["sample-f0", "--n", 9, "--a", 3, "--t3", 5,
                    "--max-tries", -3, "--out", tmp_path / "x.txt"]) == 2
        assert capsys.readouterr().err == "error: max_tries must be at least 1, got -3\n"


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

    def test_negative_cap_exits_2(self, tmp_path, capsys):
        # reported as a spent budget, "more than -1 homomorphisms", before
        pat = tmp_path / "p.txt"
        save_digraph(pat, Digraph(1, []))
        host = tmp_path / "h.txt"
        save_digraph(host, rotational_tournament(5))
        assert run(["hom", "--pattern", pat, "--host", host, "--enumerate", "--cap", -1]) == 2
        assert capsys.readouterr() == ("", "error: cap must be nonnegative, got -1\n")

    def test_rooted_count(self, tmp_path, capsys):
        pat = tmp_path / "p.txt"
        # roots 0, 1 and a middle vertex completing a directed path
        save_digraph(pat, Digraph(3, [(0, 2), (2, 1)]), roots=(0, 1))
        host = tmp_path / "h.txt"
        save_digraph(host, Digraph(3, [(0, 2), (2, 1), (1, 0)]))
        assert run(["hom", "--pattern", pat, "--host", host,
                    "--root-x", 0, "--root-y", 1]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("digraph\n0 1\n", "line 1: expected 'digraph <n>', got 'digraph'"),
            ("digraph 3\nroots 0\n0 2\n", "line 2: expected 'roots <z> <w>', got 'roots 0'"),
            ("digraph 3\n\n0 1\n1 2 0\n", "line 4: expected '<u> <v>', got '1 2 0'"),
            ("digraph 3\n0 1\n2\n", "line 3: expected '<u> <v>', got '2'"),
            ("digraph 3\n0 x\n", "line 2: expected '<u> <v>', got '0 x'"),
            ("\ndigraph 3\n\nroots 0\n", "line 4: expected 'roots <z> <w>', got 'roots 0'"),
            ("digraph 3\nroots 0 1\n\n2 x\n", "line 4: expected '<u> <v>', got '2 x'"),
            ("0 1\n", "expected 'digraph <n>' header"),
        ],
        ids=["header-without-count", "short-roots", "three-fields", "one-field", "not-an-int",
             "blank-lines-before-roots", "after-roots", "no-header"],
    )
    def test_malformed_pattern_exits_2(self, tmp_path, capsys, text, message):
        # the first two raised a bare IndexError, exit 1
        pat = tmp_path / "p.txt"
        pat.write_text(text)
        host = tmp_path / "h.txt"
        save_digraph(host, rotational_tournament(5))
        assert run(["hom", "--pattern", pat, "--host", host]) == 2
        assert message in capsys.readouterr().err

    def test_vertex_count_past_a_list_index_exits_2(self, tmp_path, capsys):
        # an OverflowError traceback, exit 1, before; the header allocates nothing
        pat = tmp_path / "p.txt"
        save_digraph(pat, Digraph(2, [(0, 1)]))
        host = tmp_path / "h.txt"
        host.write_text("digraph 10000000000000000000\n")
        assert run(["hom", "--pattern", pat, "--host", host]) == 2
        assert "n=10000000000000000000" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # a MemoryError traceback, exit 1, before: a host header past the free memory
        pat = tmp_path / "p.txt"
        save_digraph(pat, Digraph(2, [(0, 1)]))
        monkeypatch.setattr(cli, "load_digraph", mock.Mock(side_effect=MemoryError))
        assert run(["hom", "--pattern", pat, "--host", tmp_path / "h.txt"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("which", ["pattern", "host"])
    def test_directory_path_exits_2(self, tmp_path, capsys, which):
        # an IsADirectoryError traceback, exit 1, before
        files = {"pattern": tmp_path / "p.txt", "host": tmp_path / "h.txt"}
        save_digraph(files["pattern"], Digraph(1, []))
        save_digraph(files["host"], rotational_tournament(5))
        files[which] = tmp_path
        assert run(["hom", "--pattern", files["pattern"], "--host", files["host"]]) == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err


class TestHostAndMatrix:
    def test_full_pipeline(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        save_simple_graph(graph, single_edge_graph())
        f0 = tmp_path / "f0.txt"
        save_digraph(f0, toy_family(3, (2,)).base)
        host = tmp_path / "host.txt"
        atlas = tmp_path / "atlas.json"
        assert run(["build-host", "--graph", graph, "--f0", f0, "--k", "2", "--r", "2", "--toy",
                    "--out", host, "--atlas", atlas]) == 0
        assert load_digraph(host).n == 16
        assert json.loads(atlas.read_text()) == {"m": 3, "r": [2], "n": 2, "edges": [[0, 1]]}

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

        # a graph file without a vertex count raised a bare IndexError
        graph.write_text("digraph\n0 1\n")
        assert run(["build-host", "--graph", graph, "--f0", f0, "--k", "2",
                    "--r", "2", "--toy", "--out", host, "--atlas", atlas]) == 2
        # an empty atlas raised a bare KeyError
        atlas.write_text("{}")
        capsys.readouterr()
        assert run(["density-matrix", "--gadget", fd, "--host", host, "--atlas", atlas,
                    "--out", counts, "--out-density", dens]) == 2
        assert "the atlas lacks the field 'm'" in capsys.readouterr().err

    def test_non_mirrored_gadget_exits_2(self, tmp_path, capsys):
        # left copy from the k = 2 doubled gadget, right copy from the k = 1 one
        dg2, dg1 = (symmetrize(build_gadget(toy_family(3, (2,)).base, k)) for k in (2, 1))
        roots = {dg2.z, dg2.w}
        arcs = [a for a in dg2.rooted.graph.arcs if set(a) <= {0, 1, 2} | roots]
        arcs += [a for a in dg1.rooted.graph.arcs if set(a) <= {3, 4, 5} | roots]
        fd, host = tmp_path / "fd.txt", tmp_path / "host.txt"
        save_digraph(fd, Digraph(dg2.rooted.graph.n, arcs), roots=dg2.rooted.roots)
        save_digraph(host, random_tournament(5, 0))
        assert run(["density-matrix", "--gadget", fd, "--host", host,
                    "--out", tmp_path / "c.csv", "--out-density", tmp_path / "d.csv"]) == 2
        assert "the right half is not the mirror of the left half" in capsys.readouterr().err

    @pytest.mark.parametrize("host_of, atlas_of", [("edge", "c5"), ("c5", "edge")])
    def test_atlas_of_another_host_exits_2(self, tmp_path, capsys, host_of, atlas_of):
        # toy family m = 3: the 5-cycle host at r = 2 has 70 vertices, the edge host 8
        fam = toy_family(3, (2,))
        dg = fam.doubled[0]
        fd = tmp_path / "fd.txt"
        save_digraph(fd, dg.rooted.graph, roots=dg.rooted.roots)
        sizes = {}
        for name, G, r in (("c5", cycle_graph(5), 2), ("edge", single_edge_graph(), 1)):
            host, atlas = build_host(G, fam, [r])
            save_digraph(tmp_path / f"{name}.txt", host)
            atlas.save(tmp_path / f"{name}.json")
            sizes[name] = host.n
        assert sizes == {"c5": 70, "edge": 8}
        capsys.readouterr()
        assert run(["density-matrix", "--gadget", fd, "--host", tmp_path / f"{host_of}.txt",
                    "--atlas", tmp_path / f"{atlas_of}.json",
                    "--out", tmp_path / "c.csv", "--out-density", tmp_path / "d.csv"]) == 2
        err = capsys.readouterr().err
        assert (f"the atlas is of a {sizes[atlas_of]}-vertex host, "
                f"the matrix has {sizes[host_of]} rows") in err

    @pytest.mark.parametrize("edge", [[0, 1, 2], [0]], ids=["three-ids", "one-id"])
    def test_atlas_cell_edge_not_a_pair_exits_2(self, tmp_path, capsys, edge):
        fam = toy_family(3, (2,))
        dg = fam.doubled[0]
        host, atlas = build_host(single_edge_graph(), fam, [1])
        fd, host_path, atlas_path = tmp_path / "fd.txt", tmp_path / "h.txt", tmp_path / "a.json"
        save_digraph(fd, dg.rooted.graph, roots=dg.rooted.roots)
        save_digraph(host_path, host)
        doc = atlas.to_json()
        doc["edges"][0] = edge  # the edge that the atlas's one cell is glued onto
        atlas_path.write_text(json.dumps(doc))
        assert run(["density-matrix", "--gadget", fd, "--host", host_path, "--atlas", atlas_path,
                    "--out", tmp_path / "c.csv", "--out-density", tmp_path / "d.csv"]) == 2
        assert f"edge {tuple(edge)} invalid for n=2" in capsys.readouterr().err

    def test_doubled_gadget_roots_not_last_exits_2(self, tmp_path, capsys):
        dg = toy_family(3, (2,)).doubled[0]
        fd, host = tmp_path / "fd.txt", tmp_path / "host.txt"
        save_digraph(fd, dg.rooted.graph, roots=(0, 1))
        save_digraph(host, random_tournament(5, 0))
        assert run(["density-matrix", "--gadget", fd, "--host", host,
                    "--out", tmp_path / "c.csv", "--out-density", tmp_path / "d.csv"]) == 2
        assert "doubled gadget roots must be the last two vertices (6, 7), got (0, 1)" in (
            capsys.readouterr().err
        )


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "m.csv: expected a 'vertex' header row"),  # a StopIteration before
            ("vertex,0,1\n0,0,1\n1,1/0,0\n", "m.csv, line 3: not a row of exact rationals"),
            ("vertex,0\n0,x\n", "m.csv, line 2: not a row of exact rationals"),
            # past the csv module's field limit, a csv.Error
            ("vertex,0\n0," + "1" * 200_000 + "\n", "m.csv, line 2: not a row of exact rationals"),
        ],
        ids=["empty", "zero-denominator", "word", "huge-field"],
    )
    def test_malformed_csv_exits_2(self, tmp_path, capsys, text, message):
        (tmp_path / "m.csv").write_text(text)
        assert run(["xy", "--matrix", tmp_path / "m.csv"]) == 2
        assert message in capsys.readouterr().err

    def test_repeated_tokens_parsed_once_and_a_bad_one_named(self, tmp_path, capsys):
        half, third = Fraction(1, 2), Fraction(1, 3)
        rows = [[0, half, third, half], [half, 0, half, third], [third, half, 0, half],
                [half, third, half, 0]]
        csv_path = self.write_csv(tmp_path / "m.csv", rows)
        parsed = []

        def counting(tok):
            parsed.append(tok)
            return Fraction(tok)

        with mock.patch.object(cli, "Fraction", counting):
            assert run(["xy", "--matrix", csv_path]) == 0
            assert sorted(parsed) == ["0", "1/2", "1/3"]
            pt = xy_from_matrix(rows)
            assert json.loads(capsys.readouterr().out) == {
                "x": pt.x, "y": pt.y, "x_exact": str(pt.x_exact), "y_exact": str(pt.y_exact)
            }
            lines = csv_path.read_text().splitlines()
            lines[3] = lines[3].replace("1/2", "1//2", 1)
            csv_path.write_text("\n".join(lines) + "\n")
            assert run(["xy", "--matrix", csv_path]) == 2
        assert "m.csv, line 4: not a row of exact rationals" in capsys.readouterr().err

    def test_zero_tokens_read_as_one_object(self, tmp_path):
        # the zero-row rule of `spectral._zero_row` serves the rows this makes
        rows = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
        read = cli._read_matrix_csv(self.write_csv(tmp_path / "m.csv", rows))
        assert read == rows
        assert len({id(c) for row in read for c in row if c == 0}) == 1

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

    def test_eval_prints_values_beyond_the_float_range(self, tmp_path, capsys):
        # x1 with 300 clearing 4-necklaces: the exact value's denominator has
        # more digits than str() of an int allows, and the value lies far
        # below the smallest float
        rq = ReducedQuantum(toy_family(3, (2,)), parse_poly_text("x1"), [300])
        out = tmp_path / "fp.json"
        save_reduced(out, rq)
        T = rotational_tournament(7)
        host = tmp_path / "host.txt"
        save_digraph(host, T)
        assert run(["eval-quantum", "--quantum", out, "--host", host]) == 0
        result = json.loads(capsys.readouterr().out)
        exact = eval_reduced(rq, T)
        assert exact.denominator > 10**4300 and float(exact) == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(result["value"]) == exact
        finally:
            sys.set_int_max_str_digits(limit)
        assert 1 <= abs(float(result["float"].split("e")[0])) < 10
        assert abs(Fraction(result["float"]) - exact) <= abs(exact) * Fraction(1, 10**15)

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(0), "0.0e0"),
            (Fraction(-3, 7), "-4.285714285714286e-1"),
            (Fraction(10**20 - 1, 10**19), "1.0e1"),  # the mantissa rounds up to 10
            (Fraction(5, 10**400), "5.0e-400"),
        ],
    )
    def test_scientific_twin(self, value, text):
        assert _scientific(value) == text

    def test_missing_fields_exit_2(self, tmp_path, capsys):
        fam_dir = tmp_path / "family"
        fam_dir.mkdir()
        save_digraph(fam_dir / "f0.txt", toy_family(3, (2,)).base)
        (fam_dir / "family.json").write_text(json.dumps({"f0": "f0.txt"}))
        poly = tmp_path / "p.txt"
        poly.write_text("x1")
        out = tmp_path / "fp.json"
        assert run(["reduce", "--poly", poly, "--family", fam_dir, "--out", out]) == 2
        assert "lacks the field 'k'" in capsys.readouterr().err
        # a scalar k raised a TypeError, exit 1
        (fam_dir / "family.json").write_text(json.dumps({"f0": "f0.txt", "k": 2}))
        assert run(["reduce", "--poly", poly, "--family", fam_dir, "--out", out]) == 2
        assert "field 'k' must be a list of integers" in capsys.readouterr().err

        (fam_dir / "family.json").write_text(json.dumps({"f0": "f0.txt", "k": [2]}))
        assert run(["reduce", "--poly", poly, "--family", fam_dir, "--out", out]) == 0
        doc = json.loads(out.read_text())
        del doc["meta"]["base"]
        out.write_text(json.dumps(doc))
        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(7))
        capsys.readouterr()
        assert run(["eval-quantum", "--quantum", out, "--host", host]) == 2
        assert "lacks the field 'base'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, code", [("no", 2), (0, 2), (None, 2), (False, 0), (True, 2)]
    )
    def test_enforce_interval_must_be_a_bool(self, tmp_path, capsys, flag, code):
        # k = 2 lies outside the toy base's admissible interval, so only an
        # enforced interval fails, and it names the interval
        fam_dir = tmp_path / "family"
        fam_dir.mkdir()
        save_digraph(fam_dir / "f0.txt", toy_family(3, (2,)).base)
        manifest = {"f0": "f0.txt", "k": [2], "enforce_interval": flag}
        (fam_dir / "family.json").write_text(json.dumps(manifest))
        poly = tmp_path / "p.txt"
        poly.write_text("x1")
        out = tmp_path / "fp.json"
        assert run(["reduce", "--poly", poly, "--family", fam_dir, "--out", out]) == code
        err = capsys.readouterr().err
        if flag is True:
            assert "outside admissible interval" in err
        elif code:
            assert "field 'enforce_interval' must be true or false" in err

    def test_poly_without_s_exit_2(self, tmp_path, capsys):
        fam_dir = tmp_path / "family"
        fam_dir.mkdir()
        save_digraph(fam_dir / "f0.txt", toy_family(3, (2,)).base)
        (fam_dir / "family.json").write_text(json.dumps({"f0": "f0.txt", "k": [2]}))
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps({"terms": [{"coef": 1, "exps": [1]}]}))
        out = tmp_path / "fp.json"
        assert run(["reduce", "--poly", poly, "--family", fam_dir, "--out", out]) == 2
        assert "lacks the field 's'" in capsys.readouterr().err

    def test_term_without_graph_exit_2(self, tmp_path, capsys):
        quantum = tmp_path / "q.json"
        quantum.write_text(json.dumps({"terms": [{"coef": "1/1"}]}))
        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(5))
        assert run(["eval-quantum", "--quantum", quantum, "--host", host]) == 2
        assert "lacks the field 'graph'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "q.json must be an object"),
            ({"terms": [1]}, "q.json's field 'terms' must be a list of objects"),
            (
                {"terms": [{"coef": True, "graph": "digraph 1"}]},
                "'coef' must be an integer or a string",
            ),
            # read as its binary expansion 3602879701896397/2^55 before, with exit 0
            (
                {"terms": [{"coef": 0.1, "graph": "digraph 1"}]},
                "'coef' must be an integer or a string",
            ),
            (
                {"terms": [{"coef": "1/0", "graph": "digraph 1"}]},
                "'coef' must be an exact rational such as \"1/10\", got '1/0'",
            ),
            (
                {"terms": [{"coef": "tenth", "graph": "digraph 1"}]},
                "'coef' must be an exact rational such as \"1/10\", got 'tenth'",
            ),
            ({"terms": [{"coef": 1, "graph": 5}]}, "field 'graph' must be a string"),
        ],
        ids=["doc0", "doc1", "bool-coef", "float-coef", "zero-den-coef", "word-coef", "int-graph"],
    )
    def test_eval_of_a_malformed_file_exits_2(self, tmp_path, capsys, doc, message):
        quantum = tmp_path / "q.json"
        quantum.write_text(json.dumps(doc))
        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(5))
        assert run(["eval-quantum", "--quantum", quantum, "--host", host]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "a polynomial must be an object"),
            ({"s": 1, "terms": [1]}, "a polynomial's field 'terms' must be a list of objects"),
            (
                {"s": 1, "terms": [{"coef": 1, "exps": 1}]},
                "a polynomial term's field 'exps' must be a list of integers",
            ),
            # read as x1^2 with coefficient 1 before, with exit 0
            (
                {"s": 1.9, "terms": [{"coef": 1.5, "exps": [2.7]}]},
                "a polynomial's field 's' must be an integer",
            ),
            (
                {"s": 1, "terms": [{"coef": 1.5, "exps": [2]}]},
                "a polynomial term's field 'coef' must be an integer",
            ),
            (
                {"s": 1, "terms": [{"coef": 1, "exps": [2.7]}]},
                "a polynomial term's field 'exps' must be a list of integers",
            ),
            ({"s": True, "terms": []}, "a polynomial's field 's' must be an integer"),
            (
                {"s": 1, "terms": [{"coef": True, "exps": [1]}]},
                "a polynomial term's field 'coef' must be an integer",
            ),
            (
                {"s": 1, "terms": [{"coef": 1, "exps": [True]}]},
                "a polynomial term's field 'exps' must be a list of integers",
            ),
        ],
        ids=[
            "list", "scalar-term", "scalar-exps", "float-s", "float-coef", "float-exps",
            "bool-s", "bool-coef", "bool-exps",
        ],
    )
    def test_reduce_of_a_malformed_polynomial_exits_2(self, tmp_path, capsys, doc, message):
        fam_dir = tmp_path / "family"
        fam_dir.mkdir()
        save_digraph(fam_dir / "f0.txt", toy_family(3, (2,)).base)
        (fam_dir / "family.json").write_text(json.dumps({"f0": "f0.txt", "k": [2]}))
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps(doc))
        out = tmp_path / "fp.json"
        assert run(["reduce", "--poly", poly, "--family", fam_dir, "--out", out]) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def _eval_edited_reduction(tmp_path, edit, host=None):
        """eval-quantum on the x1 reduction whose meta block `edit` changed."""
        rq = build_reduction(parse_poly_text("x1"), toy_family(3, (2,)))
        out = tmp_path / "fp.json"
        save_reduced(out, rq)
        doc = json.loads(out.read_text())
        edit(doc["meta"])
        out.write_text(json.dumps(doc))
        host_file = tmp_path / "host.txt"
        save_digraph(host_file, host if host is not None else rotational_tournament(7))
        return run(["eval-quantum", "--quantum", out, "--host", host_file])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("base", 5, "field 'base' must be a string"),
            ("k", "2", "field 'k' must be a list of integers"),
            ("k", [2.5], "field 'k' must be a list of integers"),
            ("E", 14, "field 'E' must be a list of integers"),
            ("E", ["14"], "field 'E' must be a list of integers"),
            ("poly", [], "field 'poly' must be an object"),
        ],
        ids=["base-int", "k-str", "k-float", "E-int", "E-strs", "poly-list"],
    )
    def test_eval_of_a_malformed_meta_exits_2(self, tmp_path, capsys, field, value, message):
        assert self._eval_edited_reduction(
            tmp_path, lambda meta: meta.update({field: value})
        ) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "host", [random_tournament(7, 3), transitive_tournament(5)], ids=["random", "transitive"]
    )
    def test_eval_with_exponents_below_the_need_exits_2(self, tmp_path, capsys, host):
        # the parent read E from the file unchecked: exit 0 with a wrong value,
        # or a ZeroDivisionError on a host without 4-necklaces
        assert self._eval_edited_reduction(
            tmp_path, lambda meta: meta.update(E=[0]), host
        ) == 2
        assert "minimal exponents are [14]" in capsys.readouterr().err

    def test_eval_on_an_empty_host_exits_2(self, tmp_path, capsys):
        # a raw ZeroDivisionError before, from the necklace densities' unit 0^(2m+1)
        assert self._eval_edited_reduction(tmp_path, lambda meta: None, Tournament(0, [])) == 2
        assert "empty host" in capsys.readouterr().err

    def test_eval_of_a_file_in_the_older_format_exits_2(self, tmp_path, capsys):
        def older(meta):
            poly = meta.pop("poly")
            meta.update(m=3, s=poly["s"], M=100, penalized={}, terms=[])

        assert self._eval_edited_reduction(tmp_path, older) == 2
        assert "the reduction lacks the field 'poly'" in capsys.readouterr().err

    @pytest.mark.parametrize("reduced", [False, True], ids=["generic", "reduction"])
    def test_eval_reads_the_quantum_file_once(self, tmp_path, capsys, monkeypatch, reduced):
        import pathlib

        quantum = tmp_path / "q.json"
        if reduced:
            save_reduced(quantum, build_reduction(parse_poly_text("x1"), toy_family(3, (2,))))
        else:
            quantum.write_text(json.dumps({"terms": [{"coef": "1/1", "graph": "digraph 2\n0 1\n"}]}))
        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(5))
        reads = []
        real = pathlib.Path.read_text
        monkeypatch.setattr(
            pathlib.Path, "read_text", lambda self, *a, **k: reads.append(self) or real(self, *a, **k)
        )
        assert run(["eval-quantum", "--quantum", quantum, "--host", host]) == 0
        assert reads.count(quantum) == 1

    def test_term_graph_naming_a_directory_exits_2(self, tmp_path, capsys):
        quantum = tmp_path / "q.json"
        quantum.write_text(json.dumps({"terms": [{"coef": 1, "graph": "."}]}))
        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(5))
        assert run(["eval-quantum", "--quantum", quantum, "--host", host]) == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_eval_of_non_isomorphic_regular_tournaments(self, tmp_path, capsys):
        # Paley(43) minus the rotational tournament on 43 vertices: an
        # isomorphism search between the terms exceeded its budget, exit 2
        p = 43
        squares = {x * x % p for x in range(1, p)}
        paley = Tournament(p, [(i, j) for i in range(p) for j in range(p) if (j - i) % p in squares])
        quantum = tmp_path / "q.json"
        terms = [(1, paley), (-1, rotational_tournament(p))]
        quantum.write_text(json.dumps(
            {"terms": [{"coef": c, "graph": format_digraph(g)} for c, g in terms]}
        ))
        host = tmp_path / "host.txt"
        save_digraph(host, random_tournament(8, 1))
        assert run(["eval-quantum", "--quantum", quantum, "--host", host]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "0"

    def test_negative_budget_exits_2(self, tmp_path, capsys):
        # the terms cancel, so no search runs: -1 was accepted silently before
        quantum = tmp_path / "q.json"
        arc = "digraph 2\n0 1\n"
        quantum.write_text(json.dumps({
            "terms": [{"coef": "1/1", "graph": arc}, {"coef": "-1/1", "graph": arc}]
        }))
        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(5))
        args = ["eval-quantum", "--quantum", quantum, "--host", host]
        assert run(args + ["--budget", 0]) == 0
        capsys.readouterr()
        assert run(args + ["--budget", -1]) == 2
        assert capsys.readouterr() == ("", "error: --budget must be nonnegative, got -1\n")

    def test_negative_budget_on_a_reduce_file_exits_2(self, tmp_path, capsys):
        # the necklace-reduction branch runs no search: it printed a value and exit 0 before
        fam_dir = tmp_path / "family"
        fam_dir.mkdir()
        save_digraph(fam_dir / "f0.txt", toy_family(3, (2,)).base)
        (fam_dir / "family.json").write_text(json.dumps({"f0": "f0.txt", "k": [2]}))
        poly, out, host = tmp_path / "p.txt", tmp_path / "fp.json", tmp_path / "host.txt"
        poly.write_text("x1")
        assert run(["reduce", "--poly", poly, "--family", fam_dir, "--out", out]) == 0
        save_digraph(host, rotational_tournament(7))
        capsys.readouterr()
        assert run(["eval-quantum", "--quantum", out, "--host", host, "--budget", -1]) == 2
        assert capsys.readouterr() == ("", "error: --budget must be nonnegative, got -1\n")

    def test_terms_of_an_older_reduce_file_are_never_parsed(self, tmp_path, capsys):
        # files written before carry the term digraphs next to the meta block
        rq = build_reduction(parse_poly_text("x1"), toy_family(3, (2,)))
        out, host = tmp_path / "fp.json", tmp_path / "host.txt"
        save_reduced(out, rq)
        save_digraph(host, rotational_tournament(7))
        args = ["eval-quantum", "--quantum", out, "--host", host]
        assert run(args) == 0
        printed = capsys.readouterr()
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta"}
        doc["terms"] = [{"coef": 1, "graph": "not a digraph"}]
        out.write_text(json.dumps(doc))
        assert run(args) == 0
        assert capsys.readouterr() == printed

    def test_generic_eval_without_meta(self, tmp_path, capsys):
        quantum = tmp_path / "q.json"
        quantum.write_text(json.dumps({
            "terms": [{"coef": "1/1", "graph": "digraph 2\n0 1\n"}]
        }))
        host = tmp_path / "host.txt"
        save_digraph(host, rotational_tournament(5))
        assert run(["eval-quantum", "--quantum", quantum, "--host", host]) == 0
        assert Fraction(json.loads(capsys.readouterr().out)["value"]) == Fraction(2, 5)


@pytest.mark.parametrize("site", ["quantum", "poly", "family", "atlas"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, site):
    # each of these raised a RecursionError from json.loads, exit 1 with a traceback
    fam = toy_family(3, (2,))
    fam_dir, poly, fd = tmp_path / "family", tmp_path / "p.json", tmp_path / "fd.txt"
    host_file, atlas_file, quantum = tmp_path / "h.txt", tmp_path / "a.json", tmp_path / "q.json"
    fam_dir.mkdir()
    save_digraph(fam_dir / "f0.txt", fam.base)
    (fam_dir / "family.json").write_text(json.dumps({"f0": "f0.txt", "k": [2]}))
    poly.write_text(json.dumps({"s": 1, "terms": [{"coef": 1, "exps": [1]}]}))
    host, atlas = build_host(single_edge_graph(), fam, [1])
    save_digraph(host_file, host)
    atlas.save(atlas_file)
    save_digraph(fd, fam.doubled[0].rooted.graph, roots=fam.doubled[0].rooted.roots)
    reduce = ["reduce", "--poly", poly, "--family", fam_dir, "--out", tmp_path / "out.json"]
    deep, args = {
        "quantum": (quantum, ["eval-quantum", "--quantum", quantum, "--host", host_file]),
        "poly": (poly, reduce),
        "family": (fam_dir / "family.json", reduce),
        "atlas": (atlas_file, ["density-matrix", "--gadget", fd, "--host", host_file,
                               "--atlas", atlas_file, "--out", tmp_path / "c.csv",
                               "--out-density", tmp_path / "d.csv"]),
    }[site]
    deep.write_text("[" * 10**5 + "]" * 10**5)
    assert run(args) == 2
    assert capsys.readouterr().err == "error: a JSON input is nested too deeply\n"


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

    @pytest.mark.parametrize("command", [["verify", "--suite", "core"], ["converge"]])
    def test_config_flag_is_unrecognized(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        with pytest.raises(SystemExit) as exc:
            run(command + ["--config", cfg])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--r", "0", "--sizes", "64"], "got [0]"),  # a ZeroDivisionError before
            (["--r=2,-1"], "got [2, -1]"),
            (["--r", ","], "got []"),  # an IndexError before
            (["--r="], "got []"),  # ran the default copy counts before
        ],
        ids=["flag-zero", "flag-negative", "flag-empty", "flag-empty-string"],
    )
    def test_converge_with_r_below_1_exits_2(self, capsys, args, message):
        assert run(["converge"] + args) == 2
        err = capsys.readouterr().err
        assert "the copy counts r must be one or more integers >= 1" in err and message in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--sizes", ","], "got sizes []"),  # PASS over no rows before
            (["--sizes", "64"], "got sizes [64]"),  # a trend of one size before
            (["--sizes="], "got sizes []"),  # ran the default sizes before
        ],
        ids=["flag-empty", "flag-one", "flag-empty-string"],
    )
    def test_converge_with_fewer_than_two_sizes_exits_2(self, capsys, args, message):
        assert run(["converge"] + args) == 2
        err = capsys.readouterr().err
        assert "two or more sizes" in err and message in err

    def test_converge_with_a_size_below_1_exits_2(self, capsys):
        assert run(["converge", "--sizes=-8,64"]) == 2  # a TypeError before
        assert "the sizes n must be integers >= 1, got sizes [-8, 64]" in capsys.readouterr().err

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 2), (3, 3), (5, 3), (9, 5), (27, 9)])
    def test_converge_with_a_size_without_a_regular_graph_exits_2(self, capsys, n, d):
        # d = ceil(n^(2/3)) is n or more, or n * d is odd: the pairing model
        # said only "need 0 <= d < n" or "n * d must be even"
        assert run(["converge", f"--sizes={n},64"]) == 2
        assert f"size n={n} has no {d}-regular graph" in capsys.readouterr().err

    def test_converge_writes_the_report_to_out_report(self, tmp_path, capsys):
        out = tmp_path / "converge.json"
        assert run(["converge", "--sizes=8,64", "--out-report", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["suite"] == "converge" and doc["params"]["sizes"] == [8, 64]

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda path: None, "is not a directory"),  # read nothing and passed before
            (lambda path: path.mkdir(), "holds no *.txt file"),
        ],
        ids=["missing", "empty"],
    )
    def test_region_suite_with_no_hosts_exits_2(self, tmp_path, capsys, make, message):
        hosts = tmp_path / "hosts"
        make(hosts)
        assert run(["verify", "--suite", "region", "--hosts", hosts]) == 2
        assert f"{hosts} {message}" in capsys.readouterr().err

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


def test_readme_cli_flags_are_parser_options():
    """Every --flag that README's "CLI" section names is an option of some subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for p in commands.choices.values() for a in p._actions for o in a.option_strings}
    assert named and not named - options, sorted(named - options)


# -- generated documents ---------------------------------------------------------------

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2, 2)
    | st.sampled_from(["", "1/2", "1/0", "x", "digraph 1", "."]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
TOKENS = ["digraph", "roots", "0", "1", "2", "8", "9", "-1", "x", "1.5", ""]


def _slots(doc):
    """Every (container, key) pair inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


@st.composite
def documents(draw, good):
    """A document of `good` as drawn, or with one value of any JSON type in
    place of a value, or one field left out, or any JSON value at all."""
    how = draw(st.sampled_from(["good", "good", "value", "missing", "any"]))
    if how == "any":
        return draw(ANY_JSON)
    doc = copy.deepcopy(draw(good))
    slots = list(_slots(doc))
    if how != "good" and slots:
        container, key = draw(st.sampled_from(slots))
        if how == "missing" and isinstance(container, dict):
            del container[key]
        else:
            container[key] = draw(ANY_JSON)
    return doc


@st.composite
def digraph_texts(draw):
    """A digraph text of at most 8 vertices, sometimes with a line of random tokens."""
    n = draw(st.integers(0, 8))
    pair = st.tuples(st.integers(0, n), st.integers(0, n))  # n itself is out of range
    lines = [f"digraph {n}"]
    if draw(st.booleans()):
        lines.append("roots %d %d" % draw(pair))
    lines += ["%d %d" % arc for arc in draw(st.lists(pair, max_size=10))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines)))
        tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=4))
        lines[i : i + draw(st.integers(0, 1))] = [" ".join(tokens)]
    return "\n".join(lines) + "\n"


BASE_TEXT = format_digraph(rotational_tournament(3))
TOURNAMENT_TEXTS = st.builds(
    lambda n, seed: format_digraph(random_tournament(n, seed)), st.integers(0, 8), st.integers(0, 99)
)
GRAPH_TEXTS = TOURNAMENT_TEXTS | digraph_texts()
K_VALUES = st.lists(st.integers(1, 2), min_size=1, max_size=2)  # over the 3-vertex base
POLYS = st.integers(1, 2).flatmap(lambda s: st.fixed_dictionaries({
    "s": st.just(s),
    "terms": st.lists(
        st.fixed_dictionaries({
            "coef": st.integers(-3, 3),
            "exps": st.lists(st.integers(0, 3), min_size=s, max_size=s),
        }),
        max_size=3,
    ),
}))
REDUCTION_META = st.fixed_dictionaries({
    "kind": st.just("necklace-reduction"),
    "base": st.just(BASE_TEXT) | TOURNAMENT_TEXTS,
    "k": K_VALUES,
    "poly": POLYS,
    "E": st.lists(st.integers(0, 20), min_size=1, max_size=2),
})
QUANTUM_DOCS = st.fixed_dictionaries(
    {
        "terms": st.lists(
            st.fixed_dictionaries({
                "coef": st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3"]),
                "graph": GRAPH_TEXTS | st.just("g.txt"),
            }),
            max_size=3,
        )
    },
    optional={"meta": REDUCTION_META},
) | st.fixed_dictionaries({"meta": REDUCTION_META})  # a reduce file: its inputs alone
MANIFESTS = st.fixed_dictionaries(
    {"f0": st.just("f0.txt"), "k": K_VALUES}, optional={"enforce_interval": st.booleans()}
)
ENTRIES = st.sampled_from(["0", "1", "2", "1/2", "-1", "1/0", "x", "", "3e2"])
CSV_TEXTS = st.builds(
    lambda header, rows: header + "".join(f"{i}," + ",".join(row) + "\n" for i, row in enumerate(rows)),
    st.sampled_from(["", "vertex,0,1\n", "vertex\n", "x,0\n", "\n"]),
    st.lists(st.lists(ENTRIES, max_size=9), max_size=8),
) | st.integers(1, 8).flatmap(  # a symmetric matrix, zero or not
    lambda n: st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n).map(
        lambda c: "vertex," + ",".join(map(str, range(n))) + "\n" + "".join(
            f"{i}," + ",".join(str(c[min(i, j) * n + max(i, j)]) for j in range(n)) + "\n"
            for i in range(n)
        )
    )
)
COMMANDS = st.one_of(
    st.tuples(st.just("hom"), GRAPH_TEXTS, GRAPH_TEXTS, st.lists(st.integers(-1, 9), max_size=2),
              st.sampled_from([None, 0, 3])),
    st.tuples(st.just("eval-quantum"), documents(QUANTUM_DOCS), GRAPH_TEXTS, GRAPH_TEXTS,
              st.integers(0, 50)),
    st.tuples(st.just("xy"), CSV_TEXTS),
    st.tuples(st.just("reduce"), documents(POLYS), documents(MANIFESTS),
              st.just(BASE_TEXT) | GRAPH_TEXTS, st.sampled_from(["minimal", "paper"])),
)


@given(COMMANDS)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_documents_exit_0_or_2(command):
    """No generated input lets an exception escape `main`: every command
    returns 0 or 2."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        d = Path(tmp)
        name = command[0]
        if name == "hom":
            _, pattern, host, roots, cap = command
            (d / "p.txt").write_text(pattern)
            (d / "h.txt").write_text(host)
            args = ["hom", "--pattern", d / "p.txt", "--host", d / "h.txt"]
            args += [a for flag, v in zip(["--root-x", "--root-y"], roots) for a in (flag, v)]
            if cap is not None:
                args += ["--enumerate", "--cap", cap]
        elif name == "eval-quantum":
            _, doc, graph, host, budget = command
            (d / "q.json").write_text(json.dumps(doc))
            (d / "g.txt").write_text(graph)
            (d / "h.txt").write_text(host)
            args = ["eval-quantum", "--quantum", d / "q.json", "--host", d / "h.txt",
                    "--budget", budget]
        elif name == "xy":
            (d / "m.csv").write_text(command[1])
            args = ["xy", "--matrix", d / "m.csv"]
        else:
            _, poly, manifest, f0, mode = command
            (d / "family").mkdir()
            (d / "family" / "family.json").write_text(json.dumps(manifest))
            (d / "family" / "f0.txt").write_text(f0)
            (d / "p.json").write_text(json.dumps(poly))
            args = ["reduce", "--poly", d / "p.json", "--family", d / "family", "--mode", mode,
                    "--out", d / "out.json"]
        assert run(args) in (0, 2)


# the gadgets and doubled gadgets over the 3-vertex base, and the single-edge
# host of 8 vertices that each doubled gadget builds, with its atlas
TOY_GADGETS = toy_family(3, (1, 2))
ROOTED_TEXTS = st.sampled_from(
    [format_digraph(g.rooted.graph, g.rooted.roots) for g in TOY_GADGETS.gadgets]
)
DOUBLED_TEXTS = st.sampled_from(
    [format_digraph(d.rooted.graph, d.rooted.roots) for d in TOY_GADGETS.doubled]
)
BUILT_HOSTS = [
    (format_digraph(d.rooted.graph, d.rooted.roots), format_digraph(host), atlas.to_json())
    for d, (host, atlas) in (
        (d, build_host(single_edge_graph(), toy_family(3, (d.k,)), [1]))
        for d in TOY_GADGETS.doubled
    )
]
SIMPLE_TEXTS = st.builds(
    lambda n, pairs: f"digraph {n}\n" + "".join(
        f"{a} {b}\n" for a, b in sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    ),
    st.integers(0, 4),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5),
)
INT_LIST_TEXTS = st.lists(st.integers(-1, 3), max_size=3).map(
    lambda xs: ",".join(map(str, xs))
) | st.sampled_from(["x", ",", "1,,2", "1.5"])


def _joined(xs):
    return ",".join(map(str, xs))


@st.composite
def arguments(draw, good, wild):
    """The arguments of `good` as drawn, or with one of them drawn from the
    strategy at its place in `wild` instead."""
    args = list(draw(good))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(args) - 1))
        args[i] = draw(wild[i])
    return tuple(args)


HOST_ARGS = st.lists(st.integers(1, 2), min_size=1, max_size=2).flatmap(
    lambda k: st.tuples(
        SIMPLE_TEXTS, st.just(BASE_TEXT), st.just(_joined(k)),
        st.lists(st.integers(1, 2), min_size=len(k), max_size=len(k)).map(_joined), st.just(True),
    )
)
MORE_COMMANDS = st.one_of(
    st.tuples(st.just("check-f0"), arguments(
        st.tuples(TOURNAMENT_TEXTS, st.integers(1, 3), st.integers(1, 4)),
        [GRAPH_TEXTS, st.integers(-1, 9), st.integers(-1, 9)],
    )),
    st.tuples(st.just("build-gadget"), arguments(
        st.tuples(st.just(BASE_TEXT) | TOURNAMENT_TEXTS, st.integers(1, 2)),
        [digraph_texts(), st.integers(-1, 9)],
    )),
    st.tuples(st.just("necklace"), arguments(
        st.tuples(ROOTED_TEXTS | DOUBLED_TEXTS, st.integers(3, 5)),
        [GRAPH_TEXTS, st.integers(-1, 5)],
    )),
    st.tuples(st.just("build-host"), arguments(HOST_ARGS, [
        GRAPH_TEXTS, TOURNAMENT_TEXTS, INT_LIST_TEXTS, INT_LIST_TEXTS, st.booleans(),
    ])),
    st.tuples(st.just("density-matrix"), arguments(
        st.sampled_from(BUILT_HOSTS).map(lambda built: built + (1,)),
        [DOUBLED_TEXTS | GRAPH_TEXTS, TOURNAMENT_TEXTS,
         documents(st.sampled_from([atlas for _, _, atlas in BUILT_HOSTS])), st.integers(-1, 3)],
    )),
    st.tuples(st.just("verify"), st.tuples(
        st.lists(TOURNAMENT_TEXTS, max_size=2), st.lists(GRAPH_TEXTS, max_size=1)
    ).map(lambda texts: texts[0] + texts[1])),
)


class _HullLoop(Exception):
    """The region suite has read its hosts and reached the hull-vertex loop,
    which reads no input and takes seconds."""


@given(MORE_COMMANDS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_inputs_of_the_other_commands_exit_0_1_or_2(case):
    """`check-f0`, `build-gadget`, `necklace`, `build-host`, `density-matrix
    --atlas` and `verify --hosts` on generated files return 0, 1 or 2."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(suites, "in_region_ratio", side_effect=_HullLoop):
        d = Path(tmp)
        name, values = case
        if name == "check-f0":
            f0, a, t3 = values
            (d / "f0.txt").write_text(f0)
            args = ["check-f0", "--input", d / "f0.txt", "--a", a, "--t3", t3]
        elif name == "build-gadget":
            f0, k = values
            (d / "f0.txt").write_text(f0)
            args = ["build-gadget", "--f0", d / "f0.txt", "--k", k,
                    "--out-f", d / "f.txt", "--out-fdagger", d / "fd.txt"]
        elif name == "necklace":
            gadget, length = values
            (d / "g.txt").write_text(gadget)
            args = ["necklace", "--gadget", d / "g.txt", "--len", length, "--out", d / "n.txt"]
        elif name == "build-host":
            graph, f0, k, r, toy = values
            (d / "g.txt").write_text(graph)
            (d / "f0.txt").write_text(f0)
            args = ["build-host", "--graph", d / "g.txt", "--f0", d / "f0.txt",
                    f"--k={k}", f"--r={r}", "--out", d / "h.txt",
                    "--atlas", d / "atlas.json"] + ["--toy"] * toy
        elif name == "density-matrix":
            gadget, host, atlas, index = values
            (d / "g.txt").write_text(gadget)
            (d / "h.txt").write_text(host)
            (d / "atlas.json").write_text(json.dumps(atlas))
            args = ["density-matrix", "--gadget", d / "g.txt", "--host", d / "h.txt",
                    "--atlas", d / "atlas.json", "--pattern-index", index,
                    "--out", d / "c.csv", "--out-density", d / "p.csv"]
        else:
            (d / "hosts").mkdir()
            for i, text in enumerate(values):
                (d / "hosts" / f"h{i}.txt").write_text(text)
            args = ["verify", "--suite", "region", "--hosts", d / "hosts"]
        try:
            assert run(args) in (0, 1, 2)
        except _HullLoop:
            assert name == "verify"
