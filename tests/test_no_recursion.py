"""No function of the library calls itself, so no input's depth meets the
interpreter's recursion limit; deep inputs run under a tight limit."""

import ast
import contextlib
import json
import sys
from pathlib import Path

import tournhom
from tournhom import cli
from tournhom.digraphs import save_digraph
from tournhom.gadgets import (
    find_one_way_biclique,
    find_transitive_subtournament,
    rotational_tournament,
    toy_family,
)
from tournhom.spectral import density_matrix, necklace_count_trace

# they recurse over the program's own field kinds, at depth 2 or less
ALLOWED = {"errors._fits", "errors._name"}


def self_calls(tree: ast.Module, module: str) -> set[str]:
    """module.name of every function in the tree that calls itself by name."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    found.add(f"{module}.{fn.name}")
    return found


def test_no_function_calls_itself():
    found = set()
    for path in sorted(Path(tournhom.__file__).parent.glob("*.py")):
        found |= self_calls(ast.parse(path.read_text()), path.stem)
    assert found == ALLOWED


@contextlib.contextmanager
def tight_recursion_limit(spare: int = 150):
    """The recursion limit at the current stack depth plus `spare` frames."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + spare)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestDeepInputs:
    def test_biclique_of_300(self):
        T = rotational_tournament(1201)
        with tight_recursion_limit():
            A1, A2 = find_one_way_biclique(T, 300)
        assert len(A1) == len(A2) == 300
        assert all(T.has_arc(u, v) for u in A1 for v in A2)

    def test_transitive_subtournament_of_200(self):
        T = rotational_tournament(401)
        with tight_recursion_limit():
            chain = find_transitive_subtournament(T, 200)
        assert len(set(chain)) == 200
        assert all(T.has_arc(u, v) for i, u in enumerate(chain) for v in chain[i + 1 :])

    def test_necklace_trace_of_length_800(self):
        dm = density_matrix(toy_family(3, (2,)).doubled[0], rotational_tournament(7))
        with tight_recursion_limit():
            deep = necklace_count_trace(dm, 800)
        # the exact trace by 800 plain products
        H = dm.support
        P = [[int(i == j) for j in range(len(H))] for i in range(len(H))]
        for _ in range(800):
            P = [[sum(a * b for a, b in zip(row, col)) for col in zip(*H)] for row in P]
        assert deep == sum(P[i][i] for i in range(len(H)))

    def test_check_f0_prints_its_verdict(self, tmp_path, capsys):
        path = tmp_path / "f0.txt"
        save_digraph(path, rotational_tournament(401))
        with tight_recursion_limit():
            code = cli.main(["check-f0", "--input", str(path), "--a", "300", "--t3", "200"])
        assert code == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False and "transitive_witness" in verdict
