"""Verification suites: each acceptance-grade check as a reportable run.

Suites check the paper's claims at the fixed parameters below, which item
names and report params state; a run sets only the seed, the convergence
study's sizes and copy counts, and one path, the region suite's hosts
directory.  Every random object is drawn from a seeded generator and all
counts are exact, so the timings are the one non-reproducible field.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .digraphs import (
    Digraph,
    RootedDigraph,
    Tournament,
    disjoint_union,
    load_tournament,
    random_tournament,
)
from .gadgets import (
    GadgetFamily,
    build_family,
    build_necklace,
    make_k_sequence,
    rotational_tournament,
    sample_base_tournament,
    toy_family,
)
from .homcount import (
    count_hom,
    count_hom_bruteforce,
    count_hom_rooted,
    density,
    iter_homs,
)
from .hosts import BlockAtlas, SimpleGraph, build_host, cycle_graph, single_edge_graph
from .convergence import (
    check_copy_counts,
    convergence_study,
    deviation_bracket,
    pipeline_cross_check,
    within_deviation_bracket,
)
from .reduction import (
    build_reduction,
    identity_sides,
    parse_poly_text,
)
from .region import (
    chord,
    elementary_from_power,
    in_region_ratio,
    power_from_elementary,
    verify_region_on_hosts,
)
from .spectral import (
    density_matrices,
    graphon_pattern_check,
    necklace_density_spectral,
    necklace_density_trace,
)

__all__ = [
    "ExperimentConfig",
    "SuiteItem",
    "RunReport",
    "run_suite",
    "run_core",
    "run_spectral",
    "run_claims",
    "run_graphon",
    "run_region",
    "run_reduction",
    "run_convergence",
    "SUITES",
]


# base tournament and gadget family: m = 36, thresholds 29 and 27
N_BASE = 36
BICLIQUE_SIZE = 6
TRANSITIVE_THRESHOLD = 11
MAX_TRIES = 200
S = 2
# graphon hosts
R_VALUES = (1, 2)
SAMPLE_PAIRS = 500
# budgets
NODE_BUDGET = 200_000_000
ENUMERATION_CAP = 5000
HOM_SAMPLES = 1000
# tolerances
REL_TOL = 1e-9
NEWTON_TOL = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    # convergence study
    sizes: tuple[int, ...] = (64, 128, 256)
    converge_r: tuple[int, ...] = (2, 3)
    hosts_dir: str | None = None  # extra tournament files for the region suite


@dataclass
class SuiteItem:
    id: str
    name: str
    passed: bool
    details: str = ""


@dataclass
class RunReport:
    suite: str
    params: dict
    items: list[SuiteItem] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def check(self, item_id: str, name: str, ok: bool, details: str = "") -> None:
        self.items.append(SuiteItem(item_id, name, bool(ok), details))

    @contextmanager
    def timed(self, name: str):
        """Record the wall time of the block, by time.perf_counter, as timings[name]."""
        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "params": self.params,
            "items": [asdict(i) for i in self.items],
            "timings": self.timings,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1))


@lru_cache(maxsize=8)
def _full_family(seed: int, s: int) -> GadgetFamily:
    """The first s gadgets on the seeded base of N_BASE vertices."""
    base = sample_base_tournament(
        N_BASE, BICLIQUE_SIZE, TRANSITIVE_THRESHOLD, seed=seed, max_tries=MAX_TRIES
    )
    return build_family(base, k_values=make_k_sequence(N_BASE, s))


def _random_digraph(rng: random.Random, n: int) -> Digraph:
    """Each ordered pair of distinct vertices is an arc with probability 1/2."""
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.5]
    return Digraph(n, arcs)


# -- core: counting oracle equivalence and multiplicativity ---------------------------


def run_core(config: ExperimentConfig) -> RunReport:
    report = RunReport("core", {"seed": config.seed})
    with report.timed("oracle"):
        rng = random.Random(config.seed)
        bad = []
        for trial in range(50):
            F = _random_digraph(rng, rng.randint(1, 4))
            T = random_tournament(rng.randint(1, 6), rng.randrange(2**30))
            if count_hom(F, T) != count_hom_bruteforce(F, T):
                bad.append(trial)
        report.check(
            "core.oracle",
            "pruned count equals brute force on 50 random pattern/host pairs",
            not bad,
            f"disagreements at trials {bad}" if bad else "",
        )
        bad = []
        done = 0
        while done < 30:
            n_f = rng.randint(2, 4)
            F = _random_digraph(rng, n_f)
            if F.has_arc(0, 1) or F.has_arc(1, 0):
                continue
            rooted = RootedDigraph(F, (0, 1))
            T = random_tournament(rng.randint(1, 6), rng.randrange(2**30))
            x, y = rng.randrange(T.n), rng.randrange(T.n)
            if count_hom_rooted(rooted, T, x, y) != count_hom_bruteforce(F, T, {0: x, 1: y}):
                bad.append(done)
            done += 1
        report.check(
            "core.oracle_rooted",
            "rooted count equals brute force on 30 random conditional instances",
            not bad,
            f"disagreements {bad}" if bad else "",
        )

    with report.timed("multiplicativity"):
        bad = []
        for trial in range(20):
            F1 = _random_digraph(rng, rng.randint(1, 4))
            F2 = _random_digraph(rng, rng.randint(1, 4))
            T = random_tournament(rng.randint(2, 7), rng.randrange(2**30))
            if density(disjoint_union(F1, F2), T) != density(F1, T) * density(F2, T):
                bad.append(trial)
        report.check(
            "core.multiplicativity",
            "density of a disjoint union equals the product, 20 exact cases",
            not bad,
            f"failures {bad}" if bad else "",
        )
    return report


# -- spectral: necklace trace and eigenvalue identities -------------------------------


def run_spectral(config: ExperimentConfig) -> RunReport:
    report = RunReport("spectral", {"seed": config.seed})
    fam = toy_family(3, (2,))
    dg = fam.doubled[0]
    rng = random.Random(config.seed + 1)
    with report.timed("spectral"):
        trace_bad = []
        spectral_bad = []
        # the stated sizes 4 and 5 are provably all degenerate for the toy
        # gadget (exhausted over every labeled host), so larger deterministic
        # and random hosts are added to exercise the identity nontrivially
        hosts = [random_tournament(rng.choice((4, 5)), rng.randrange(2**30)) for _ in range(20)]
        hosts += [rotational_tournament(7), rotational_tournament(9)]
        hosts += [random_tournament(rng.choice((6, 7)), rng.randrange(2**30)) for _ in range(10)]
        nontrivial = 0
        for idx, T in enumerate(hosts):
            [dm] = density_matrices([dg], T)
            if not dm.is_zero():
                nontrivial += 1
            # relative gaps, taken where the largest count is 1; a trace that
            # vanishes exactly (only an odd length can) is compared to that 1
            unit = Fraction(dm.necklace_unit(), max(map(max, dm.support), default=1))
            for ell in (3, 4):
                direct = density(build_necklace(dg.rooted, ell), T, NODE_BUDGET)
                trace = necklace_density_trace(dm, ell)
                if direct != trace:
                    trace_bad.append((idx, ell))
                spec = necklace_density_spectral(dm, ell)
                gap = float(abs(spec - trace) * unit**ell)
                if gap > REL_TOL * (float(abs(trace) * unit**ell) or 1.0):
                    spectral_bad.append((idx, ell, gap))
        report.check(
            "spectral.trace",
            "necklace hom count equals the exact count-matrix trace, lengths 3 and 4",
            not trace_bad,
            f"mismatches {trace_bad}" if trace_bad else f"{nontrivial} nondegenerate hosts",
        )
        report.check(
            "spectral.powersum",
            "eigenvalue power sums match the exact traces within 1e-9 relative",
            not spectral_bad,
            f"gaps {spectral_bad}" if spectral_bad else "",
        )
    return report


# -- claims: the structural facts about the full-size gadgets --------------------------


def _twin_planted_host(gadget, dups: int, extras: int, rng: random.Random) -> Tournament:
    """The gadget completed to a tournament, with duplicated base vertices
    (each twin copies its original's orientation pattern) and random extras."""
    out = list(gadget.rooted.graph.out_masks)
    z, w = gadget.z, gadget.w
    if rng.getrandbits(1):
        out[z] |= 1 << w
    else:
        out[w] |= 1 << z
    # vertices 0..n-1 now form a tournament, so v's in-neighbours are the rest
    for v in rng.sample(range(gadget.m), dups):
        n = len(out)
        twin = out[v]
        for u in range(n):
            if u != v and not twin >> u & 1:
                out[u] |= 1 << n
        if rng.getrandbits(1):
            out[v] |= 1 << n
        else:
            twin |= 1 << v
        out.append(twin)
    for _ in range(extras):
        n = len(out)
        extra = 0
        for u in range(n):
            if rng.getrandbits(1):
                out[u] |= 1 << n
            else:
                extra |= 1 << u
        out.append(extra)
    return Tournament.from_out_masks(len(out), out)


def run_claims(config: ExperimentConfig) -> RunReport:
    report = RunReport(
        "claims",
        {
            "seed": config.seed,
            "n": N_BASE,
            "a": BICLIQUE_SIZE,
            "t3": TRANSITIVE_THRESHOLD,
            "s": S,
        },
    )
    with report.timed("family"):
        fam = _full_family(config.seed, S)
        report.params["k"] = list(fam.k)

    # (a) self-homomorphisms are root-preserving bijections
    with report.timed("self_homs"):
        for i, gadget in enumerate(fam.gadgets, start=1):
            graph = gadget.rooted.graph
            homs = list(iter_homs(graph, graph, cap=ENUMERATION_CAP))
            ok = bool(homs)
            details = f"{len(homs)} homomorphisms"
            for images in homs:
                if len(set(images)) != graph.n:
                    ok = False
                    details = f"non-bijective map {images[:6]}..."
                    break
                if {images[gadget.z], images[gadget.w]} != {gadget.z, gadget.w}:
                    ok = False
                    details = f"roots map to {(images[gadget.z], images[gadget.w])}"
                    break
            report.check(
                f"claims.self_homs_{i}",
                f"every self-homomorphism of gadget {i} is a root-preserving bijection",
                ok,
                details,
            )

    # (b) no homomorphism between gadgets with different thresholds
    with report.timed("cross_empty"):
        g1 = fam.gadgets[0].rooted.graph
        g2 = fam.gadgets[1].rooted.graph
        n12 = count_hom(g1, g2, max_nodes=NODE_BUDGET)
        n21 = count_hom(g2, g1, max_nodes=NODE_BUDGET)
        report.check(
            "claims.cross_empty",
            "exhausted search finds no homomorphism between distinct gadgets",
            n12 == 0 and n21 == 0,
            f"counts {n12}, {n21}",
        )

    # (c) sampled homomorphisms into tournaments are injective
    with report.timed("injective"):
        rng = random.Random(config.seed + 2)
        total = 0
        non_injective = 0
        hosts_used = 0
        while total < HOM_SAMPLES:
            gadget = fam.gadgets[hosts_used % fam.s]
            host = _twin_planted_host(gadget, dups=5, extras=3, rng=rng)
            hosts_used += 1
            for images in iter_homs(gadget.rooted.graph, host, cap=ENUMERATION_CAP):
                total += 1
                if len(set(images)) != len(images):
                    non_injective += 1
        report.check(
            "claims.injective",
            f"{HOM_SAMPLES} enumerated homomorphisms into tournaments are injective",
            non_injective == 0,
            f"{total} homomorphisms over {hosts_used} hosts, {non_injective} non-injective",
        )
    return report


# -- graphon: the block-pattern structure of the count matrix ---------------------------


def _graphon_one_host(
    report: RunReport,
    tag: str,
    G: SimpleGraph,
    fam: GadgetFamily,
    r: int,
    sample_pairs: int,
    rng: random.Random,
) -> None:
    host, atlas = build_host(G, fam, [r])
    with report.timed(f"{tag}.matrix"):
        [dm] = density_matrices(fam.doubled[:1], host, NODE_BUDGET)
    verdict = graphon_pattern_check(dm, atlas, 1)
    details = (
        f"N={host.n}, b={verdict.b}, a={verdict.a}"
        if verdict.ok
        else f"violations {verdict.violations[:4]}"
    )
    report.check(
        f"{tag}.pattern",
        "count matrix is supported exactly on per-block base edges with one value",
        verdict.ok,
        details,
    )
    # independent per-pair recounts: all base pairs plus sampled pairs
    with report.timed(f"{tag}.recount"):
        pairs = sorted(atlas.base_edge_pairs(1))
        seen = set(pairs)
        target = min(len(pairs) + sample_pairs, host.n * host.n)
        while len(pairs) < target:
            x = rng.randrange(host.n)
            y = rng.randrange(host.n)
            if (x, y) not in seen:
                seen.add((x, y))
                pairs.append((x, y))
        bad = []
        for x, y in pairs:
            if count_hom_rooted(fam.doubled[0].rooted, host, x, y, NODE_BUDGET) != dm.count(x, y):
                bad.append((x, y))
        report.check(
            f"{tag}.recount",
            f"{len(pairs)} independent per-pair recounts match the full matrix",
            not bad,
            f"mismatches {bad[:4]}" if bad else "",
        )


def run_graphon(config: ExperimentConfig) -> RunReport:
    report = RunReport(
        "graphon",
        {
            "seed": config.seed,
            "n": N_BASE,
            "a": BICLIQUE_SIZE,
            "t3": TRANSITIVE_THRESHOLD,
            "r_values": list(R_VALUES),
        },
    )
    fam = _full_family(config.seed, 1)
    report.params["k"] = list(fam.k)
    rng = random.Random(config.seed + 3)
    for r in R_VALUES:
        _graphon_one_host(
            report, f"graphon.edge_r{r}", single_edge_graph(), fam, r, sample_pairs=40, rng=rng
        )
    _graphon_one_host(report, "graphon.c5", cycle_graph(5), fam, 1, SAMPLE_PAIRS, rng)
    _block_landing_check(report, config.seed)
    return report


def _block_landing_check(report: RunReport, seed: int) -> None:
    """Enumerate every gadget homomorphism into a two-gadget host and check
    it lands inside a single cell of the single block with matching index."""
    with report.timed("landing"):
        fam = _full_family(seed, 2)
        host, atlas = build_host(single_edge_graph(), fam, [1, 1])
        vertex_block: dict[int, BlockAtlas] = {}
        vertex_cell: dict[int, tuple] = {}
        for block in atlas.blocks:
            for v in block.base:
                vertex_block[v] = block
            for cell in block.cells:
                for v in cell.left + cell.right:
                    vertex_block[v] = block
                    vertex_cell[v] = cell.edge
        for i, gadget in enumerate(fam.gadgets, start=1):
            homs = list(
                iter_homs(gadget.rooted.graph, host, cap=ENUMERATION_CAP)
            )
            bad = ""
            for images in homs:
                blocks_touched = {vertex_block[v] for v in images}
                if len(blocks_touched) != 1:
                    bad = f"image spans {len(blocks_touched)} blocks"
                    break
                block = blocks_touched.pop()
                if block.i != i:
                    bad = f"gadget {i} landed in block index {block.i}"
                    break
                roots = {images[gadget.z], images[gadget.w]}
                cells_touched = {
                    vertex_cell[v] for v in images if v not in roots and v in vertex_cell
                }
                if len(cells_touched) > 1:
                    bad = f"non-root image spans cells {sorted(cells_touched)}"
                    break
                if cells_touched and roots != set(next(iter(cells_touched))):
                    bad = f"roots {sorted(roots)} off the cell edge"
                    break
            report.check(
                f"graphon.landing_{i}",
                f"all gadget-{i} homomorphisms land in one cell of a matching block",
                bool(homs) and not bad,
                bad or f"{len(homs)} homomorphisms, all confined",
            )


# -- region: containment of the (x, y) statistics ----------------------------------------


def run_region(config: ExperimentConfig) -> RunReport:
    report = RunReport("region", {"seed": config.seed})
    dg = toy_family(3, (2,)).doubled[0]
    rng = random.Random(config.seed + 4)
    tol = Fraction(1, 10**9)
    extra_hosts = []
    if config.hosts_dir:
        hosts_dir = Path(config.hosts_dir)
        if not hosts_dir.is_dir():
            raise ValueError(f"the hosts path {hosts_dir} is not a directory")
        paths = sorted(hosts_dir.glob("*.txt"))
        if not paths:
            raise ValueError(f"the hosts directory {hosts_dir} holds no *.txt file")
        extra_hosts = [load_tournament(path) for path in paths]

    with report.timed("containment"):
        hosts = [random_tournament(rng.randint(3, 7), rng.randrange(2**30)) for _ in range(200)]
        hosts += [rotational_tournament(7), rotational_tournament(9)] + extra_hosts
        containment = verify_region_on_hosts(dg, hosts, tol)
        report.check(
            "region.containment",
            "every nondegenerate host point lies in the hull within 1e-9",
            containment.ok,
            f"checked {containment.checked}, skipped {containment.skipped_degenerate} degenerate"
            + (f", outside {list(containment.failures[:3])}" if containment.failures else ""),
        )

    with report.timed("hull_vertices"):
        # (1/r, 1/r^2) with no tolerance, as integer ratios
        bad_vertex = next(
            (r for r in range(1, 10**6 + 1) if not in_region_ratio(1, r, 1, r * r, 0, 1)),
            None,
        )
        report.check(
            "region.hull_vertices",
            "all hull vertices up to r = 10^6 are members, exact arithmetic",
            bad_vertex is None,
            f"first failure at r={bad_vertex}" if bad_vertex else "",
        )

    bad_chord = []
    for r in range(1, 1001):
        x1, y1 = Fraction(1, r + 1), Fraction(1, (r + 1) ** 2)
        x2, y2 = Fraction(1, r), Fraction(1, r * r)
        slope = (y2 - y1) / (x2 - x1)
        intercept = y1 - slope * x1
        if (slope, intercept) != chord(r):
            bad_chord.append(r)
    report.check(
        "region.chords",
        "chord slopes and intercepts match the closed form symbolically, r <= 1000",
        not bad_chord,
        f"failures {bad_chord[:4]}" if bad_chord else "",
    )

    bad_newton = []
    for trial in range(50):
        xs = sorted((rng.random() for _ in range(3)), reverse=True)
        p = (sum(xs), sum(x * x for x in xs), sum(x**3 for x in xs))
        q = power_from_elementary(*elementary_from_power(*p))
        if any(abs(a - b) > NEWTON_TOL * max(1.0, abs(a)) for a, b in zip(p, q)):
            bad_newton.append(trial)
    report.check(
        "region.newton",
        "power sum round trips through elementary polynomials to 1e-12",
        not bad_newton,
        f"failures {bad_newton}" if bad_newton else "",
    )
    return report


# -- reduction: the evaluation identity -----------------------------------------------


def run_reduction(config: ExperimentConfig) -> RunReport:
    report = RunReport("reduction", {"seed": config.seed})
    rng = random.Random(config.seed + 5)
    fam1 = toy_family(3, (2,))
    fam2 = toy_family(3, (2, 1))
    cases = [
        ("x1", fam1),
        ("x1 - x2", fam2),
        ("x1^2 - 3", fam1),
    ]
    for text, fam in cases:
        tag = text.replace(" ", "")
        with report.timed(f"identity[{tag}]"):
            p = parse_poly_text(text, s=fam.s)
            rq = build_reduction(p, fam, mode="minimal")
            hosts = [random_tournament(rng.randint(4, 7), rng.randrange(2**30)) for _ in range(18)]
            hosts += [rotational_tournament(7), rotational_tournament(9)]
            mismatches = []
            degenerate_bad = []
            nondegenerate = 0
            for idx, T in enumerate(hosts):
                value, rhs = identity_sides(rq, T)
                if rhs is None:
                    if value != 0:
                        degenerate_bad.append(idx)
                    continue
                nondegenerate += 1
                if value != rhs:
                    mismatches.append(idx)
            report.check(
                f"reduction.identity[{tag}]",
                f"evaluation identity exact on 20 hosts for p = {text}",
                not mismatches,
                f"nondegenerate {nondegenerate}"
                + (f", mismatches {mismatches}" if mismatches else ""),
            )
            report.check(
                f"reduction.divisible[{tag}]",
                f"value vanishes exactly on degenerate hosts for p = {text}",
                not degenerate_bad,
                f"violations {degenerate_bad}" if degenerate_bad else "",
            )
    return report


# -- convergence: the trajectory toward the hull vertices --------------------------------


def run_convergence(config: ExperimentConfig) -> RunReport:
    check_copy_counts(list(config.converge_r))
    if len(config.sizes) < 2:
        # the trend check compares consecutive sizes
        raise ValueError(
            f"the convergence study needs two or more sizes, got sizes {list(config.sizes)}"
        )
    report = RunReport(
        "converge",
        {
            "seed": config.seed,
            "sizes": list(config.sizes),
            "r": list(config.converge_r),
        },
    )
    with report.timed("study"):
        rows = convergence_study(list(config.sizes), list(config.converge_r), seed=config.seed)
        report.params["rows"] = [row.as_dict() for row in rows]
    for r in config.converge_r:
        sub = [row for row in rows if row.r == r]
        decreasing = all(
            a.err_x > b.err_x and a.err_y > b.err_y for a, b in zip(sub, sub[1:])
        )
        report.check(
            f"converge.trend_r{r}",
            f"|x - 1/{r}| and |y - 1/{r}^2| decrease across sizes",
            decreasing,
            ", ".join(f"n={row.n}: ({row.err_x:.4f}, {row.err_y:.4f})" for row in sub),
        )
        inside, spans = [], []
        for row in sub:
            q = row.lambda2 / row.lambda1
            lo_x, hi_x, lo_y, hi_y = deviation_bracket(row.n, q, r)
            inside.append(within_deviation_bracket(row.x, row.y, r, row.n, q))
            spans.append(
                f"n={row.n}: 1/r-x={1 / r - row.x:.4f} in [{lo_x:.4f}, {hi_x:.4f}], "
                f"1/r^2-y={1 / r**2 - row.y:.4f} in [{lo_y:.5f}, {hi_y:.4f}]"
            )
        report.check(
            f"converge.final_bound_r{r}",
            "at every size the deviation from the hull vertex lies in the "
            "fourth-power-tail bracket certified by the measured lambda2",
            all(inside),
            "; ".join(spans),
        )

    # the pipeline identity on a host whose spectrum is not just +-1
    with report.timed("crosscheck_literal"):
        r0 = config.converge_r[0]
        fam36 = _full_family(config.seed, 1)
        res = pipeline_cross_check(cycle_graph(5), fam36, r=r0)
        report.check(
            "converge.crosscheck_literal",
            f"full-gadget pipeline on the 5-cycle host (r={r0}) matches the closed form to 1e-9",
            res["gap_x"] <= REL_TOL and res["gap_y"] <= REL_TOL,
            f"host {res['host_size']}, gaps ({res['gap_x']:.2e}, {res['gap_y']:.2e})",
        )

    # the same identity on the edge host
    with report.timed("crosscheck_full_gadget"):
        res = pipeline_cross_check(single_edge_graph(), fam36, r=2)
        report.check(
            "converge.crosscheck_full_gadget",
            "full-gadget pipeline on the edge host matches the closed form to 1e-9",
            res["gap_x"] <= REL_TOL and res["gap_y"] <= REL_TOL,
            f"host {res['host_size']}, gaps ({res['gap_x']:.2e}, {res['gap_y']:.2e})",
        )
    return report


SUITES = {
    "core": run_core,
    "spectral": run_spectral,
    "claims": run_claims,
    "graphon": run_graphon,
    "region": run_region,
    "reduction": run_reduction,
    "converge": run_convergence,
}


def run_suite(name: str, config: ExperimentConfig) -> RunReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](config)
