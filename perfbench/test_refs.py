"""Each benchmark check rejects a wrong answer and accepts the right one.

    python3 -m pytest perfbench/test_refs.py -q

A check that passes whatever the program returns measures nothing, so
every test below feeds a check one wrong output next to the right one.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import refs  # noqa: E402
import workloads  # noqa: E402
from tournhom.region import in_region  # noqa: E402


def _api():
    import run

    return run.load_program()[1]


def _point(x, y):
    return SimpleNamespace(x_exact=x, y_exact=y, x=float(x), y=float(y))


# -- (x, y) against the closed-walk closed form -------------------------------------------


def test_closed_walks_of_small_graphs():
    # K2: 2 closed k-walks for even k; C5: t4 = 5 * 6 = 30
    assert refs.closed_walks(2, [(0, 1)], 4) == 2
    assert refs.closed_walks(5, [(i, (i + 1) % 5) if i < 4 else (0, 4) for i in range(5)], 4) == 30


def test_xy_check_rejects_x_without_its_1_over_r():
    edges = workloads.regular_graph(10, 3, random.Random(0))
    x, y = refs.xy_closed_form(10, edges, 2)
    assert refs.xy_error(_point(x, y), x, y) is None
    assert refs.xy_error(_point(2 * x, y), x, y) is not None  # t8 / t4^2, the 1/r dropped
    assert refs.xy_error(_point(x, 2 * y), x, y) is not None


def test_xy_check_rejects_a_float_twin_off_by_more_than_1e_9():
    x, y = Fraction(1, 4), Fraction(1, 16)
    off = SimpleNamespace(x_exact=x, y_exact=y, x=0.25 + 2e-9, y=1 / 16)
    assert refs.xy_error(off, x, y) is not None


def test_spectral_region_op_check_rejects_x_without_its_1_over_r():
    wl = workloads.spectral_region(_api(), 3)
    op = next(op for op in wl.ops if op.kind == "xy_count")
    _g, _d, r, _size, _kind = workloads.MATRICES[0]
    point = op.run(_api())
    assert op.check(point) is None
    wrong = SimpleNamespace(**{**vars(point), "x_exact": point.x_exact * r})
    assert op.check(wrong) is not None


# -- block pattern and pinned counts -------------------------------------------------------


def test_pattern_check_rejects_wrong_support_and_non_square():
    expected = {(0, 1), (1, 0)}
    good = [[0, 4, 0], [4, 0, 0], [0, 0, 0]]
    assert refs.pattern_error(good, expected) is None
    assert refs.pattern_error([[0, 4, 0], [4, 0, 1], [0, 0, 0]], expected) is not None
    assert refs.pattern_error([[0, 4, 0], [9, 0, 0], [0, 0, 0]], expected) is not None
    assert refs.pattern_error([[0, 3, 0], [3, 0, 0], [0, 0, 0]], expected) is not None


def test_host_edge_pairs_follow_the_block_layout():
    # edge host, m = 36: blocks of 2 + 72 vertices, roots at the block start
    assert refs.host_edge_pairs(2, [(0, 1)], 36, range(2)) == {(0, 1), (1, 0), (74, 75), (75, 74)}


def test_pinned_check_rejects_a_zero_pair_reported_as_1():
    assert refs.pinned_error(0, on_edge=False, common=None) is None
    assert refs.pinned_error(1, on_edge=False, common=None) is not None
    assert refs.pinned_error(1, on_edge=True, common=None) is None
    assert refs.pinned_error(0, on_edge=True, common=None) is not None
    assert refs.pinned_error(4, on_edge=True, common=1) is not None


def test_pinned_c5_op_checks_reject_a_zero_pair_reported_as_1():
    api = _api()
    wl = workloads.pinned_c5(api, 7, workloads.full_family(api))
    zero_ops = [op for op in wl.ops if op.kind != "base_edge"]
    edge_ops = [op for op in wl.ops if op.kind == "base_edge"]
    assert len(edge_ops) == 2 and len(zero_ops) == 6
    assert wl.kinds == {"base_edge": 2, "cross_cell": 5, "in_cell": 1}
    assert all(op.check(0) is None for op in zero_ops)
    assert all(op.check(1) is not None for op in zero_ops)
    assert edge_ops[0].check(0) is not None


# -- the region --------------------------------------------------------------------------------


def test_region_check_rejects_a_point_1e_30_below_a_chord():
    r = 7
    x = Fraction(1, r + 1) + Fraction(3, 10) * (Fraction(1, r) - Fraction(1, r + 1))
    y = ((2 * r + 1) * x - 1) / (r * (r + 1))
    assert refs.in_hull(x, y)
    assert not refs.in_hull(x, y - Fraction(1, 10**30))
    assert refs.in_hull(x, y + Fraction(1, 10**30))


def test_region_reference_accepts_hull_vertices_and_rejects_above_the_diagonal():
    for r in (1, 2, 10, 999_983, 10**6):
        assert refs.in_hull(Fraction(1, r), Fraction(1, r * r))
    assert not refs.in_hull(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**30))
    assert refs.in_hull(Fraction(0), Fraction(0))
    assert not refs.in_hull(Fraction(0), Fraction(1, 10**30))


def test_region_reference_relaxes_every_inequality_near_the_origin():
    tol = Fraction(1, 100)
    # tol above the hull edge y = x, once left of x = tol and once right of it
    assert refs.in_hull(tol / 2, 3 * tol / 2, tol)
    assert refs.in_hull(2 * tol, 3 * tol, tol)
    assert not refs.in_hull(tol / 2, 3 * tol / 2 + Fraction(1, 10**30), tol)
    assert refs.in_hull(-tol, Fraction(0), tol)
    assert not refs.in_hull(-tol, Fraction(1, 10**30), tol)


def test_region_reference_agrees_with_in_region_on_random_points():
    rng = random.Random(5)
    checked = 0
    for _ in range(3000):
        x = Fraction(rng.randint(-5, 1100), 1000)
        y = Fraction(rng.randint(-5, 1100), 1000)
        tol = rng.choice([Fraction(0), Fraction(1, 10**9), Fraction(1, 100)])
        if 0 < tol and x <= tol:
            # in_region takes this band for the limit point (0, 0) and asks
            # |y| <= tol, a fault of in_region; the reference relaxes each
            # hull inequality by tol, as in_region does everywhere else
            continue
        assert refs.in_hull(x, y, tol) == in_region(x, y, tol), (x, y, tol)
        checked += 1
    assert checked > 2500


def test_spectral_region_op_check_rejects_inside_for_a_point_below_a_chord():
    wl = workloads.spectral_region(_api(), 3)
    wl.prepare()
    region_ops = [op for op in wl.ops if op.kind == "in_region"]
    first_chord = 2 * len(workloads.MATRICES) + workloads.HULL_VERTICES
    below = region_ops[first_chord + 1]
    assert below.check(False) is None
    assert below.check(True) is not None


# -- maps into a planted tournament --------------------------------------------------------------


def _planted():
    fam = workloads.full_family(_api())
    gadget = fam.gadgets[0]
    arcs, n, twin_of = workloads.planted_tournament(gadget, 5, 3, random.Random(1))
    return gadget.rooted.graph, arcs, n, twin_of


def test_map_check_rejects_a_map_with_one_arc_moved():
    F, arcs, _n, twin_of = _planted()
    identity = tuple(range(F.n))
    assert refs.map_error(F.arcs, arcs, identity) is None
    u, v = next(iter(F.arcs))
    moved = set(arcs) - {(u, v)} | {(v, u)}  # the host with that one arc reversed
    assert refs.map_error(F.arcs, moved, identity) is not None
    swapped = list(identity)
    swapped[u], swapped[v] = v, u  # the arc u -> v now lands on v -> u
    assert refs.map_error(F.arcs, arcs, swapped) is not None


def test_map_check_rejects_a_non_injective_map():
    F, arcs, _n, _twins = _planted()
    assert refs.map_error([], arcs, [0, 0]) is not None


def test_twin_substitutions_are_2_to_the_5_valid_maps():
    F, arcs, _n, twin_of = _planted()
    maps = refs.twin_substitutions(F.n, twin_of)
    assert len(maps) == 2**5
    assert all(refs.map_error(F.arcs, arcs, m) is None for m in maps)


# -- tracing ---------------------------------------------------------------------------------------


def test_tracer_nests_cross_layer_calls_and_accounts_for_their_time():
    import tracing
    from tournhom import spectral
    from tournhom.digraphs import random_tournament
    from tournhom.gadgets import toy_family

    api = _api()
    original = spectral.rooted_count_matrix
    tracer = tracing.Tracer(tracing.layer_functions(), api)
    dg = toy_family(3, (2,)).doubled[0]
    T = random_tournament(9, 4)
    tracer.install()
    try:
        api.density_matrix(dg, T, method="sweep")
        api.density_matrix(dg, T, method="sweep")
        maps = list(api.iter_homs(dg.rooted.graph, T))
    finally:
        tracer.uninstall()
    assert spectral.rooted_count_matrix is original
    spans = tracer.take()
    names = [s[0] for s in spans]
    assert names.count("spectral.density_matrix") == 2
    assert names.count("homcount.rooted_count_matrix") == 4
    assert all(spans[s[3]][0] == "spectral.density_matrix" for s in spans if s[0] == "homcount.rooted_count_matrix")
    assert tracing.density_builds_per_pair(spans) == 2
    total = tracing.summarize(spans)
    assert total["maps"] == len(maps)
    layers = sum(total["layer_self_s"].values())
    assert abs(layers - total["top_s"]) < 1e-9
    assert abs(total["layer_busy_s"]["spectral"] - total["s"]["spectral.density_matrix"]) < 1e-12
