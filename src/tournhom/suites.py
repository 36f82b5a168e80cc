"""Verification suites: each acceptance-grade check as a reportable run.

Suites are deterministic in (config, seed): every random object is drawn
from a seeded generator, all counts are exact, and reports echo the
parameters.  Timings are recorded for information only and are the one
non-reproducible field.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .digraphs import Digraph, RootedDigraph, Tournament, random_tournament
from .gadgets import (
    BaseTournament,
    GadgetFamily,
    build_family,
    make_k_sequence,
    rotational_tournament,
    sample_base_tournament,
    toy_family,
)
from .homcount import (
    count_hom,
    count_hom_bruteforce,
    count_hom_rooted,
    count_hom_rooted_bruteforce,
    disjoint_union_density_check,
    iter_homs,
)
from .hosts import BlockAtlas, SimpleGraph, build_host, cycle_graph, single_edge_graph
from .convergence import (
    convergence_study,
    deviation_bracket,
    pipeline_cross_check,
    within_deviation_bracket,
)
from .reduction import (
    build_reduction,
    eval_reduced,
    parse_poly_text,
    reduction_rhs,
)
from .region import (
    chord,
    elementary_from_power,
    in_region,
    power_from_elementary,
    verify_region_on_hosts,
)
from .spectral import (
    density_matrix,
    graphon_pattern_check,
    necklace_density_direct,
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


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    # base tournament / gadget family
    n_base: int = 36
    biclique_size: int = 6
    transitive_threshold: int = 11
    max_tries: int = 200
    s: int = 2
    # host parameters
    r_values: tuple[int, ...] = (1, 2)
    sample_pairs: int = 500
    # convergence study
    sizes: tuple[int, ...] = (64, 128, 256)
    converge_r: tuple[int, ...] = (2, 3)
    # budgets
    node_budget: int = 200_000_000
    enumeration_cap: int = 5000
    hom_samples: int = 1000
    # tolerances
    rel_tol: float = 1e-9
    newton_tol: float = 1e-12
    hosts_dir: str | None = None  # extra tournament files for the region suite
    out_dir: str | None = None

    @staticmethod
    def from_json(path: str | Path) -> "ExperimentConfig":
        doc = json.loads(Path(path).read_text())
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("r_values", "sizes", "converge_r"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return ExperimentConfig(**doc)


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

    def failures(self) -> list[SuiteItem]:
        return [i for i in self.items if not i.passed]

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
def _cached_base(n: int, a: int, t3: int, seed: int, max_tries: int) -> BaseTournament:
    return sample_base_tournament(n, a, t3, seed=seed, max_tries=max_tries)


def _full_family(config: ExperimentConfig, s: int | None = None) -> GadgetFamily:
    base = _cached_base(
        config.n_base,
        config.biclique_size,
        config.transitive_threshold,
        config.seed,
        config.max_tries,
    )
    return build_family(base, k_values=make_k_sequence(config.n_base, s or config.s))


def _random_digraph(rng: random.Random, n: int, arc_prob: float = 0.5) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < arc_prob
    ]
    return Digraph(n, arcs)


# -- core: counting oracle equivalence and multiplicativity ---------------------------


def run_core(config: ExperimentConfig) -> RunReport:
    report = RunReport("core", {"seed": config.seed})
    t0 = time.time()
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
        if count_hom_rooted(rooted, T, x, y) != count_hom_rooted_bruteforce(rooted, T, x, y):
            bad.append(done)
        done += 1
    report.check(
        "core.oracle_rooted",
        "rooted count equals brute force on 30 random conditional instances",
        not bad,
        f"disagreements {bad}" if bad else "",
    )
    report.timings["oracle"] = time.time() - t0

    t0 = time.time()
    bad = []
    for trial in range(20):
        F1 = _random_digraph(rng, rng.randint(1, 4))
        F2 = _random_digraph(rng, rng.randint(1, 4))
        T = random_tournament(rng.randint(2, 7), rng.randrange(2**30))
        if not disjoint_union_density_check(F1, F2, T):
            bad.append(trial)
    report.check(
        "core.multiplicativity",
        "density of a disjoint union equals the product, 20 exact cases",
        not bad,
        f"failures {bad}" if bad else "",
    )
    report.timings["multiplicativity"] = time.time() - t0
    return report


# -- spectral: necklace trace and eigenvalue identities -------------------------------


def run_spectral(config: ExperimentConfig) -> RunReport:
    report = RunReport("spectral", {"seed": config.seed})
    fam = toy_family(3, (2,))
    dg = fam.doubled[0]
    rng = random.Random(config.seed + 1)
    t0 = time.time()
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
        dm = density_matrix(dg, T)
        if not dm.is_zero():
            nontrivial += 1
        for ell in (3, 4):
            direct = necklace_density_direct(dg, T, ell, max_nodes=config.node_budget)
            trace = necklace_density_trace(dm, ell)
            if direct != trace:
                trace_bad.append((idx, ell))
            spec = necklace_density_spectral(dm, ell)
            gap = abs(spec - float(trace))
            if gap > config.rel_tol * max(1.0, abs(float(trace))):
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
    report.timings["spectral"] = time.time() - t0
    return report


# -- claims: the structural facts about the full-size gadgets --------------------------


def _twin_planted_host(gadget, dups: int, extras: int, rng: random.Random) -> Tournament:
    """The gadget completed to a tournament, with duplicated base vertices
    (each twin copies its original's orientation pattern) and random extras."""
    base = gadget.rooted.graph
    arcs = list(base.arcs)
    has = set(arcs)
    arcs.append((gadget.z, gadget.w) if rng.getrandbits(1) else (gadget.w, gadget.z))
    has.add(arcs[-1])
    ids = list(range(base.n))
    n = base.n
    for v in rng.sample(range(gadget.m), dups):
        for u in ids:
            if u == v:
                continue
            if (v, u) in has:
                arcs.append((n, u))
                has.add((n, u))
            else:
                arcs.append((u, n))
                has.add((u, n))
        pair = (v, n) if rng.getrandbits(1) else (n, v)
        arcs.append(pair)
        has.add(pair)
        ids.append(n)
        n += 1
    for _ in range(extras):
        for u in ids:
            arcs.append((u, n) if rng.getrandbits(1) else (n, u))
        ids.append(n)
        n += 1
    return Tournament(n, arcs)


def run_claims(config: ExperimentConfig) -> RunReport:
    report = RunReport(
        "claims",
        {
            "seed": config.seed,
            "n": config.n_base,
            "a": config.biclique_size,
            "t3": config.transitive_threshold,
            "s": config.s,
        },
    )
    t0 = time.time()
    fam = _full_family(config)
    report.params["k"] = list(fam.k)
    report.timings["family"] = time.time() - t0

    # (a) self-homomorphisms are root-preserving bijections
    t0 = time.time()
    for i, gadget in enumerate(fam.gadgets, start=1):
        graph = gadget.rooted.graph
        homs = list(iter_homs(graph, graph, cap=config.enumeration_cap))
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
    report.timings["self_homs"] = time.time() - t0

    # (b) no homomorphism between gadgets with different thresholds
    t0 = time.time()
    g1 = fam.gadgets[0].rooted.graph
    g2 = fam.gadgets[1].rooted.graph
    n12 = count_hom(g1, g2, max_nodes=config.node_budget)
    n21 = count_hom(g2, g1, max_nodes=config.node_budget)
    report.check(
        "claims.cross_empty",
        "exhausted search finds no homomorphism between distinct gadgets",
        n12 == 0 and n21 == 0,
        f"counts {n12}, {n21}",
    )
    report.timings["cross_empty"] = time.time() - t0

    # (c) sampled homomorphisms into tournaments are injective
    t0 = time.time()
    rng = random.Random(config.seed + 2)
    total = 0
    non_injective = 0
    hosts_used = 0
    while total < config.hom_samples:
        gadget = fam.gadgets[hosts_used % fam.s]
        host = _twin_planted_host(gadget, dups=5, extras=3, rng=rng)
        hosts_used += 1
        for images in iter_homs(gadget.rooted.graph, host, cap=config.enumeration_cap):
            total += 1
            if len(set(images)) != len(images):
                non_injective += 1
    report.check(
        "claims.injective",
        f"{config.hom_samples} enumerated homomorphisms into tournaments are injective",
        non_injective == 0,
        f"{total} homomorphisms over {hosts_used} hosts, {non_injective} non-injective",
    )
    report.timings["injective"] = time.time() - t0
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
    node_budget: int,
) -> None:
    host, atlas = build_host(G, fam, [r])
    t0 = time.time()
    dm = density_matrix(fam.doubled[0], host, method="sweep", max_nodes=node_budget)
    report.timings[f"{tag}.matrix"] = time.time() - t0
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
    t0 = time.time()
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
        if count_hom_rooted(fam.doubled[0].rooted, host, x, y, node_budget) != dm.count(x, y):
            bad.append((x, y))
    report.check(
        f"{tag}.recount",
        f"{len(pairs)} independent per-pair recounts match the full matrix",
        not bad,
        f"mismatches {bad[:4]}" if bad else "",
    )
    report.timings[f"{tag}.recount"] = time.time() - t0


def run_graphon(config: ExperimentConfig) -> RunReport:
    report = RunReport(
        "graphon",
        {
            "seed": config.seed,
            "n": config.n_base,
            "a": config.biclique_size,
            "t3": config.transitive_threshold,
            "r_values": list(config.r_values),
        },
    )
    fam = _full_family(config, s=1)
    report.params["k"] = list(fam.k)
    rng = random.Random(config.seed + 3)
    for r in config.r_values:
        _graphon_one_host(
            report,
            f"graphon.edge_r{r}",
            single_edge_graph(),
            fam,
            r,
            sample_pairs=40,
            rng=rng,
            node_budget=config.node_budget,
        )
    _graphon_one_host(
        report,
        "graphon.c5",
        cycle_graph(5),
        fam,
        1,
        sample_pairs=config.sample_pairs,
        rng=rng,
        node_budget=config.node_budget,
    )
    _block_landing_check(report, config)
    return report


def _block_landing_check(report: RunReport, config: ExperimentConfig) -> None:
    """Enumerate every gadget homomorphism into a two-gadget host and check
    it lands inside a single cell of the single block with matching index."""
    t0 = time.time()
    fam = _full_family(config, s=2)
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
            iter_homs(gadget.rooted.graph, host, cap=config.enumeration_cap)
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
    report.timings["landing"] = time.time() - t0


# -- region: containment of the (x, y) statistics ----------------------------------------


def run_region(config: ExperimentConfig) -> RunReport:
    report = RunReport("region", {"seed": config.seed})
    dg = toy_family(3, (2,)).doubled[0]
    rng = random.Random(config.seed + 4)
    tol = Fraction(1, 10**9)

    t0 = time.time()
    hosts = [random_tournament(rng.randint(3, 7), rng.randrange(2**30)) for _ in range(200)]
    hosts += [rotational_tournament(7), rotational_tournament(9)]
    if config.hosts_dir:
        from .digraphs import load_tournament

        for path in sorted(Path(config.hosts_dir).glob("*.txt")):
            hosts.append(load_tournament(path))
    containment = verify_region_on_hosts(dg, hosts, tol)
    report.check(
        "region.containment",
        "every nondegenerate host point lies in the hull within 1e-9",
        containment.ok,
        f"checked {containment.checked}, skipped {containment.skipped_degenerate} degenerate"
        + (f", outside {list(containment.failures[:3])}" if containment.failures else ""),
    )
    report.timings["containment"] = time.time() - t0

    t0 = time.time()
    bad_vertex = next(
        (
            r
            for r in range(1, 10**6 + 1)
            if not in_region(Fraction(1, r), Fraction(1, r * r))
        ),
        None,
    )
    report.check(
        "region.hull_vertices",
        "all hull vertices up to r = 10^6 are members, exact arithmetic",
        bad_vertex is None,
        f"first failure at r={bad_vertex}" if bad_vertex else "",
    )
    report.timings["hull_vertices"] = time.time() - t0

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
        if any(abs(a - b) > config.newton_tol * max(1.0, abs(a)) for a, b in zip(p, q)):
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
        t0 = time.time()
        p = parse_poly_text(text, s=fam.s)
        rq = build_reduction(p, fam, mode="minimal")
        hosts = [random_tournament(rng.randint(4, 7), rng.randrange(2**30)) for _ in range(18)]
        hosts += [rotational_tournament(7), rotational_tournament(9)]
        mismatches = []
        degenerate_bad = []
        nondegenerate = 0
        for idx, T in enumerate(hosts):
            value = eval_reduced(rq, T)
            rhs = reduction_rhs(rq, T)
            if rhs is None:
                if value != 0:
                    degenerate_bad.append(idx)
                continue
            nondegenerate += 1
            if value != rhs:
                mismatches.append(idx)
        tag = text.replace(" ", "")
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
        report.timings[f"identity[{tag}]"] = time.time() - t0
    return report


# -- convergence: the trajectory toward the hull vertices --------------------------------


def run_convergence(config: ExperimentConfig) -> RunReport:
    report = RunReport(
        "converge",
        {
            "seed": config.seed,
            "sizes": list(config.sizes),
            "r": list(config.converge_r),
        },
    )
    t0 = time.time()
    rows = convergence_study(list(config.sizes), list(config.converge_r), seed=config.seed)
    report.params["rows"] = [row.as_dict() for row in rows]
    report.timings["study"] = time.time() - t0
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
    t0 = time.time()
    r0 = config.converge_r[0]
    fam36 = _full_family(config, s=1)
    res = pipeline_cross_check(cycle_graph(5), fam36, r=r0, max_nodes=config.node_budget)
    report.check(
        "converge.crosscheck_literal",
        f"full-gadget pipeline on the 5-cycle host (r={r0}) matches the closed form to 1e-9",
        res["gap_x"] <= config.rel_tol and res["gap_y"] <= config.rel_tol,
        f"host {res['host_size']}, gaps ({res['gap_x']:.2e}, {res['gap_y']:.2e})",
    )
    report.timings["crosscheck_literal"] = time.time() - t0

    # the same identity on the edge host
    t0 = time.time()
    res = pipeline_cross_check(single_edge_graph(), fam36, r=2)
    report.check(
        "converge.crosscheck_full_gadget",
        "full-gadget pipeline on the edge host matches the closed form to 1e-9",
        res["gap_x"] <= config.rel_tol and res["gap_y"] <= config.rel_tol,
        f"host {res['host_size']}, gaps ({res['gap_x']:.2e}, {res['gap_y']:.2e})",
    )
    report.timings["crosscheck_full_gadget"] = time.time() - t0
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
    report = SUITES[name](config)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.save(out / f"{name}.json")
    return report
