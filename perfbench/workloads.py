"""The workloads: their inputs, their operations and the check of each output.

A workload's setup takes the program's functions as an `api` namespace and
the workload seed, and returns a round: a list of operations, repeated
unchanged for the whole run.  `Op.run(api)` makes the timed calls;
`Op.check(output)` is untimed and returns None or the reason the output
is wrong.  Each operation belongs to a group, the unit `geomean_ops_per_s`
weighs equally.  References are computed by `Workload.prepare`, after
setup and before the first timed operation, so they count in neither.

Full scale is the acceptance suites' base tournament (n = 36, a = 6,
t3 = 11, seed 0) with thresholds k = 29 and 27.  The workload seed
renames the vertices of the hosts `search` counts in, and picks the
inputs of `sweep_algebra` drawn around the base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

import refs

BASE = dict(n=36, a=6, t3=11, seed=0)
K_FULL = (29, 27)
M = BASE["n"]


@dataclass
class Op:
    group: str
    kind: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict
    prepare: Callable[[], None] = lambda: None
    kinds: dict = field(default_factory=dict)

    def __post_init__(self):
        for op in self.ops:
            self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1


def full_family(api):
    base = api.sample_base_tournament(
        BASE["n"], BASE["a"], BASE["t3"], seed=BASE["seed"]
    )
    return api.build_family(base, k_values=list(K_FULL))


def first_gadget(fam):
    """The family cut to its first gadget (k = 29), for one-gadget hosts."""
    return replace(fam, k=fam.k[:1], gadgets=fam.gadgets[:1], doubled=fam.doubled[:1])


def _warm_eigen_solver() -> None:
    """Make the process's first eigvalsh call in setup, not in a timed op.

    A first call on a few hundred rows has been seen to take about a second
    (0.98 s at 400 rows once, against 0.01 s for later calls on a 2-core
    x86_64 machine); whatever start-up it pays counts as set-up."""
    a = np.add.outer(np.arange(400.0), np.arange(400.0)) % 7
    np.linalg.eigvalsh(a)


# -- renaming ------------------------------------------------------------------------------
#
# The search of homcount tries every candidate image of a vertex and prunes
# only by structure, so the number of nodes it visits does not change when
# the host's vertices are renamed.  The workload seed therefore picks only a
# renaming of the host: every seed gives other labelled inputs and other
# outputs, and the same search.  Vertices the seed picks outright change
# the search: one cross-cell class cost 2.1 s at one seed's vertices and
# 2.9 s at another's, a spread larger than the machine's.


def renaming(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def renamed_arcs(arcs, perm) -> list[tuple[int, int]]:
    return sorted((perm[a], perm[b]) for a, b in arcs)


# -- pinned_c5 ---------------------------------------------------------------------------

# offsets inside a cell's half of the two root images of a cross-cell pair
X_OFFSET, Y_OFFSET = 24, 26
# (cell of x, half of x, cell of y, half of y): the five cross-cell classes at
# the 1st, 3rd, 5th, 7th and 9th decile of the 80 classes' cost at these
# offsets (about 0, 0, 0.01, 0.8 and 1.8 s; the 80 classes average 0.56 s,
# these five 0.52 s)
CROSS_CELL = ((1, 0, 4, 1), (0, 1, 1, 1), (4, 1, 3, 0), (4, 0, 1, 0), (3, 1, 0, 1))


def pinned_c5(api, seed: int, fam) -> Workload:
    """Pinned counts of the doubled k = 29 gadget in the 365-vertex 5-cycle host.

    The host has 5 base vertices and one cell of 2m vertices per base edge,
    a left and a right half of m.  A pair's cost is set by its two cells,
    their halves and its places inside the halves.  The graphon recount
    (`suites._graphon_one_host`) counts the base-edge pairs and 500 pairs
    drawn uniformly from the host, of which about 78% fall across two
    cells, 19.5% inside one cell and under 3% touch a base vertex.  A round
    takes two base-edge pairs, which the check needs, and the non-edge
    pairs in about the recount's shares: five cross-cell pairs and one
    in-cell pair.  The pairs are fixed; the seed renames the host's vertices.
    """
    from tournhom.digraphs import Tournament
    from tournhom.hosts import cycle_graph

    G = cycle_graph(5)
    host, _atlas = api.build_host(G, first_gadget(fam), [1])
    pattern = fam.doubled[0].rooted
    edges = sorted(G.edges)
    on_edge = refs.host_edge_pairs(G.n, edges, M, [0])
    cells = [(G.n + i * 2 * M, G.n + i * 2 * M + M) for i in range(len(edges))]

    # two base edges, one in each orientation
    pairs = [edges[0], edges[2][::-1]]
    pairs += [(cells[i][hi] + X_OFFSET, cells[j][hj] + Y_OFFSET) for i, hi, j, hj in CROSS_CELL]
    # a pair inside a cell, from its left half to its right half
    pairs.append((cells[2][0] + X_OFFSET, cells[2][1] + Y_OFFSET))

    perm = renaming(host.n, random.Random(seed))
    renamed = Tournament(host.n, renamed_arcs(host.arcs, perm))
    common: list[int] = []

    def make(x, y):
        edge = (x, y) in on_edge

        def check(value):
            err = refs.pinned_error(value, edge, common[0] if common else None)
            if err is None and edge and not common:
                common.append(value)
            return err

        if max(x, y) < G.n:
            kind = "base_edge"
        else:
            kind = "in_cell" if (x - G.n) // (2 * M) == (y - G.n) // (2 * M) else "cross_cell"
        px, py = perm[x], perm[y]
        return Op("pinned", kind, lambda api: api.count_hom_rooted(pattern, renamed, px, py), check)

    return Workload(
        "pinned_c5",
        [make(x, y) for x, y in pairs],
        {"host_vertices": host.n, "pairs": pairs, "renamed_pairs": [(perm[x], perm[y]) for x, y in pairs]},
    )


# -- sweep_pipeline ---------------------------------------------------------------------------


def sweep_pipeline(api, seed: int, fam2) -> Workload:
    """Hosts taken from the graph to an exact (x, y), and one reduction identity."""
    from tournhom.hosts import single_edge_graph

    fam1 = first_gadget(fam2)
    G = single_edge_graph()
    rng = random.Random(seed)
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    poly = api.parse_poly_text(f"{a} x1 - {b} x2", s=2)
    rq = api.build_reduction(poly, fam2, mode="minimal")
    red_r = (1, 1)
    red_host, _ = api.build_host(G, fam2, list(red_r))
    ops = []

    for r in (1, 2):
        x_ref, y_ref = refs.xy_closed_form(G.n, G.edges, r)
        expected = refs.host_edge_pairs(G.n, G.edges, M, range(r))

        def run(api, r=r):
            host, atlas = api.build_host(G, fam1, [r])
            dm = api.density_matrix(fam1.doubled[0], host)
            verdict = api.graphon_pattern_check(dm, atlas, 1)
            return dm, verdict, api.xy_point(dm)

        def check(out, x_ref=x_ref, y_ref=y_ref, expected=expected):
            dm, verdict, point = out
            if not verdict.ok:
                return f"graphon_pattern_check rejected the host: {verdict.violations[:2]}"
            return refs.pattern_error(dm.counts, expected) or refs.xy_error(point, x_ref, y_ref)

        ops.append(Op("host", f"host_edge_r{r}", run, check))

    # value = pbar(x, y) * prod d4_i^E_i with the closed-form (x_i, y_i) and
    # d4_i = r_i t4 c_i^4 / N^(4(2m+1)), c_i the common base-edge count of
    # gadget i; c_i comes from a pinned count, outside the timed phase
    block_value: list[int] = []

    def prepare():
        from tournhom.homcount import count_hom_rooted

        size = G.n + 2 * M
        for i, dg in enumerate(fam2.doubled):
            off = sum(red_r[:i]) * size
            block_value.append(count_hom_rooted(dg.rooted, red_host, off, off + 1))

    def reduction_ref() -> Fraction:
        xs, ys, d4 = [], [], []
        t4 = refs.closed_walks(G.n, G.edges, 4)
        unit = red_host.n ** (2 * M + 1)
        for i, ri in enumerate(red_r):
            x, y = refs.xy_closed_form(G.n, G.edges, ri)
            xs.append(x)
            ys.append(y)
            d4.append(Fraction(ri * t4 * block_value[i] ** 4, unit**4))
        penalty = 100 * (a + b) * sum(y - x * x for x, y in zip(xs, ys))
        value = (a * xs[0] - b * xs[1]) * xs[0] ** 6 * xs[1] ** 6 + penalty
        for d, e in zip(d4, rq.E):
            value *= d**e
        return value

    def run_reduction(api):
        return api.eval_reduced(rq, red_host), api.reduction_rhs(rq, red_host)

    def check_reduction(out):
        value, rhs = out
        if value != rhs:
            return f"eval_reduced {value} != reduction_rhs {rhs}"
        ref = reduction_ref()
        return None if value == ref else f"value {value} != closed form {ref}"

    ops.append(Op("reduction", "reduction", run_reduction, check_reduction))
    return Workload(
        "sweep_pipeline",
        ops,
        {
            "hosts": {"edge_r1": 2 + 2 * M, "edge_r2": 2 * (2 + 2 * M)},
            "reduction": {"poly": f"{a} x1 - {b} x2", "r": list(red_r), "host_vertices": red_host.n},
        },
        prepare=prepare,
    )


# -- enumerate_planted ---------------------------------------------------------------------------


def planted_tournament(gadget, twins: int, extras: int, rng: random.Random):
    """The gadget completed to a tournament, with twinned base vertices and extras.

    A twin copies its original's arcs to every earlier vertex and meets the
    original by a random arc, so swapping the two keeps every arc.  Returns
    the arcs, the vertex count and the {original: twin} map.
    """
    n = gadget.rooted.graph.n
    z, w = gadget.rooted.roots
    arcs = set(gadget.rooted.graph.arcs)
    arcs.add((z, w) if rng.getrandbits(1) else (w, z))
    twin_of = {}
    for v in rng.sample(range(gadget.m), twins):
        t = n
        for u in range(n):
            if u != v:
                arcs.add((t, u) if (v, u) in arcs else (u, t))
        arcs.add((v, t) if rng.getrandbits(1) else (t, v))
        twin_of[v] = t
        n += 1
    for _ in range(extras):
        arcs.update((u, n) if rng.getrandbits(1) else (n, u) for u in range(n))
        n += 1
    return arcs, n, twin_of


PLANTED_TWINS, PLANTED_EXTRAS = 5, 3


def enumerate_planted(api, seed: int, fam) -> Workload:
    """Every map of each full-scale gadget into a planted tournament, and the cross counts.

    The planted tournaments are drawn once, the same for every seed; the
    seed renames their vertices.
    """
    from tournhom.digraphs import Tournament

    structure, rng = random.Random(0), random.Random(seed)
    ops = []
    for gadget in fam.gadgets:
        arcs, n, twin_of = planted_tournament(gadget, PLANTED_TWINS, PLANTED_EXTRAS, structure)
        perm = renaming(n, rng)
        arcs = set(renamed_arcs(arcs, perm))
        host = Tournament(n, sorted(arcs))
        F = gadget.rooted.graph
        identity_twins = {
            tuple(perm[g] for g in images) for images in refs.twin_substitutions(F.n, twin_of)
        }

        def run(api, F=F, host=host):
            return list(api.iter_homs(F, host)), api.count_hom(F, host)

        def check(out, F=F, arcs=arcs, identity_twins=identity_twins):
            maps, count = out
            if len(maps) != count:
                return f"iter_homs gave {len(maps)} maps, count_hom {count}"
            if len(set(maps)) != len(maps):
                return "iter_homs repeated a map"
            for images in maps:
                err = refs.map_error(F.arcs, arcs, images)
                if err:
                    return err
            missing = identity_twins - set(maps)
            return f"{len(missing)} twin substitutions missing" if missing else None

        ops.append(Op("enumerate", f"planted_k{gadget.k}", run, check))

    g1, g2 = (g.rooted.graph for g in fam.gadgets)
    for F, T, tag in ((g1, g2, "29_27"), (g2, g1, "27_29")):
        ops.append(
            Op(
                "enumerate",
                f"cross_{tag}",
                lambda api, F=F, T=T: api.count_hom(F, T),
                lambda c: None if c == 0 else f"cross count {c}, expected 0",
            )
        )
    return Workload(
        "enumerate_planted",
        ops,
        {
            "planted": {
                "twins": PLANTED_TWINS,
                "extras": PLANTED_EXTRAS,
                "vertices": M + 2 + PLANTED_TWINS + PLANTED_EXTRAS,
            }
        },
    )


# -- spectral_region ---------------------------------------------------------------------------


def regular_graph(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """A uniform-ish simple d-regular graph by the pairing model with restarts."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        for i in range(0, len(stubs), 2):
            a, b = sorted(stubs[i : i + 2])
            if a == b or (a, b) in edges:
                break
            edges.add((a, b))
        else:
            return sorted(edges)


def block_matrix(g: int, edges, r: int, size: int, c) -> list[list]:
    """c A_G on the first g vertices of each of r blocks of the given size; 0 elsewhere."""
    zero = c - c
    rows = [[zero] * (r * size) for _ in range(r * size)]
    for blk in range(r):
        off = blk * size
        for a, b in edges:
            rows[off + a][off + b] = c
            rows[off + b][off + a] = c
    return rows


# (vertices of G, degree, blocks r, block size, entry type)
MATRICES = (
    (10, 3, 2, 183, "count"),
    (12, 4, 3, 243, "count"),
    (9, 4, 2, 365, "fraction"),
)
HULL_VERTICES = 1000
CHORD_POINTS = 8000
R_MAX = 10**6
TOL = Fraction(1, 10**9)
OFF_CHORD = Fraction(1, 10**30)


def spectral_region(api, seed: int) -> Workload:
    """(x, y) of block-pattern matrices, and region tests of points around the hull."""
    from tournhom.spectral import DensityMatrix

    rng = random.Random(seed)
    ops = []
    points = []  # (x, y, tol)
    sizes = []
    for g, d, r, size, kind in MATRICES:
        edges = regular_graph(g, d, rng)
        b = rng.randint(1, 5)
        x_ref, y_ref = refs.xy_closed_form(g, edges, r)
        if kind == "count":
            rows = block_matrix(g, edges, r, size, b * b)
            dm = DensityMatrix(order=r * size, m=M, counts=tuple(tuple(row) for row in rows))
            run = lambda api, dm=dm: api.xy_point(dm)
        else:
            rows = block_matrix(g, edges, r, size, Fraction(b * b, r * size))
            run = lambda api, rows=rows: api.xy_from_matrix(rows)
        ops.append(
            Op("xy", f"xy_{kind}", run, lambda pt, x=x_ref, y=y_ref: refs.xy_error(pt, x, y))
        )
        sizes.append(r * size)
        points += [(x_ref, y_ref, Fraction(0)), (float(x_ref), float(y_ref), TOL)]

    def some_r():  # log-uniform on [1, R_MAX]
        return max(1, int(R_MAX ** rng.random()))

    for _ in range(HULL_VERTICES):
        r = some_r()
        points.append((Fraction(1, r), Fraction(1, r * r), Fraction(0)))
    below = []
    for _ in range(CHORD_POINTS):
        r = some_r()
        lo, hi = Fraction(1, r + 1), Fraction(1, r)
        x = lo + Fraction(rng.randint(0, 1000), 1000) * (hi - lo)
        y = ((2 * r + 1) * x - 1) / (r * (r + 1))
        below.append(len(points) + 1)
        points += [(x, y, Fraction(0)), (x, y - OFF_CHORD, Fraction(0)), (x, y + OFF_CHORD, Fraction(0))]

    expected: list[bool] = []

    def prepare():
        expected.extend(refs.in_hull(Fraction(x), Fraction(y), tol) for x, y, tol in points)
        if not all(expected[: 2 * len(MATRICES) + HULL_VERTICES]):
            raise RuntimeError("a closed-form point or hull vertex is outside by the reference")
        if any(expected[i] for i in below):
            raise RuntimeError("a point below a chord is inside by the reference")

    for i, (x, y, tol) in enumerate(points):
        ops.append(
            Op(
                "region",
                "in_region",
                lambda api, x=x, y=y, tol=tol: api.in_region(x, y, tol),
                lambda out, i=i: None if out == expected[i] else f"in_region point {i}: {out}",
            )
        )
    return Workload(
        "spectral_region",
        ops,
        {
            "matrices": [
                {"g": g, "degree": d, "r": r, "vertices": n, "entries": kind}
                for (g, d, r, _s, kind), n in zip(MATRICES, sizes)
            ],
            "points": {
                "xy_exact": len(MATRICES),
                "xy_float_tol_1e-9": len(MATRICES),
                "hull_vertices": HULL_VERTICES,
                "chord_on_below_above": 3 * CHORD_POINTS,
            },
        },
        prepare=prepare,
    )


# -- the two workloads ----------------------------------------------------------------------------
#
# Each part above was first a workload of its own, run for 20 s.  Over ten
# seeds their throughput spread (quartile distance over median) was 0.12 to
# 0.25: the shared 2-vCPU machine they were measured on drifts in speed by
# up to 1.5x over minutes.  Two workloads fit runs twice as long into the
# same total time, and each keeps one side of the engine: search without
# sweeps, and sweeps and algebra without pinned counts or enumeration.
# The groups of operations take very different shares of a round (the
# region tests about 7% of sweep_algebra's), so geomean_ops_per_s weighs
# each group equally, whatever its time.


def _combine(*parts: Workload) -> Workload:
    def prepare():
        for part in parts:
            part.prepare()

    return Workload(
        "+".join(part.name for part in parts),
        [op for part in parts for op in part.ops],
        {part.name: part.inputs for part in parts},
        prepare=prepare,
    )


def search(api, seed: int) -> Workload:
    """Pinned counts on the 5-cycle host, then enumeration and whole counts."""
    fam = full_family(api)
    return _combine(pinned_c5(api, seed, fam), enumerate_planted(api, seed, fam))


def sweep_algebra(api, seed: int) -> Workload:
    """Root-pair sweeps to exact (x, y) and the reduction, then (x, y) and region tests."""
    fam = full_family(api)
    _warm_eigen_solver()
    return _combine(sweep_pipeline(api, seed, fam), spectral_region(api, seed))


WORKLOADS = {"search": search, "sweep_algebra": sweep_algebra}
