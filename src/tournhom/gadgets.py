"""Gadget digraph constructions and their base-tournament sampler.

The base tournament must avoid large one-sided bicliques and large
transitive subtournaments while keeping all degrees below 2n/3; a random
tournament has all three properties with decent probability once the two
size parameters are calibrated to n (the asymptotic values sqrt(n) and
2n/13 - sqrt(n) are meaningless at desk scale, so both thresholds are
required inputs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .digraphs import (
    Digraph,
    RootedDigraph,
    Tournament,
    _bits,
    _draw_tournament,
    gather_rows,
    induced_subdigraph,
    transitive_tournament,
)
from .errors import BudgetExceededError, SamplingError
from .homcount import iter_homs

__all__ = [
    "BaseTournament",
    "BaseReport",
    "Gadget",
    "DoubledGadget",
    "GadgetFamily",
    "check_degree_bound",
    "find_one_way_biclique",
    "find_transitive_subtournament",
    "sample_base_tournament",
    "check_base_conditions",
    "make_k_sequence",
    "build_gadget",
    "symmetrize",
    "build_necklace",
    "glue",
    "build_family",
    "degree_bound_ok",
    "rotational_tournament",
    "toy_family",
]


# -- condition checkers -------------------------------------------------------

_MAX_NODES = 10**7  # the node budget of each search the sampler runs


def check_degree_bound(T: Tournament, bound: int) -> tuple[bool, int | None]:
    """All out- and in-degrees <= bound; witness is a violating vertex."""
    for v in range(T.n):
        if T.out_degree(v) > bound or T.in_degree(v) > bound:
            return False, v
    return True, None


def find_one_way_biclique(T: Digraph, a: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Disjoint A1, A2 of size a with every arc A1 -> A2, or None.

    Exact branch and bound on an explicit stack of frames [next vertex, A1,
    C]: A1 is grown in ascending vertex order while C, the common
    out-neighbourhood, shrinks, and a vertex is taken only if C keeps a
    vertices.  C never meets A1, as T has no loops, so A2 is any a of C.

    This is not an engine search: A1 and A2 have no arcs inside, and a map
    may send two non-adjacent pattern vertices to one host vertex, so no
    pattern makes the engine find a distinct vertices on each side.
    """
    if a < 1:
        raise ValueError("a must be positive")
    out, n = T.out_masks, T.n
    nodes = 0
    stack = [[0, 0, (1 << n) - 1]]
    while stack:
        frame = stack[-1]
        start, a1_mask, C = frame
        for v in range(start, n - a + len(stack)):
            C2 = C & out[v]
            if C2.bit_count() >= a:
                break
        else:
            stack.pop()
            continue
        frame[0] = v + 1
        nodes += 1
        if nodes > _MAX_NODES:
            raise BudgetExceededError("one-way biclique search budget exceeded")
        if len(stack) == a:
            return _bits(a1_mask | 1 << v), _bits(C2)[:a]
        stack.append([v + 1, a1_mask | 1 << v, C2])
    return None


def find_transitive_subtournament(T: Digraph, size: int) -> tuple[int, ...] | None:
    """A vertex set of the given size inducing a transitive subtournament, in
    its transitive order, or None.

    Such a set in that order is exactly a map of the transitive tournament:
    a map sends adjacent pattern vertices to distinct host vertices, and a
    tournament's vertices are pairwise adjacent."""
    if size < 0:
        raise ValueError(f"transitive subtournament size must be nonnegative, got {size}")
    return next(iter_homs(transitive_tournament(size), T, max_nodes=_MAX_NODES), None)


# -- base tournament sampling ---------------------------------------------------


@dataclass(frozen=True)
class BaseReport:
    n: int
    a: int
    t3: int
    degree_bound: int
    max_out_degree: int
    max_in_degree: int
    largest_one_way_biclique: int
    largest_transitive: int
    tries_used: int
    seed: int


@dataclass(frozen=True)
class BaseTournament:
    """A sampled base tournament together with its measured condition report."""

    tournament: Tournament
    report: BaseReport


def check_base_conditions(T: Tournament, a: int, t3: int) -> tuple[bool, dict]:
    """Evaluate the three base conditions; details include witnesses on failure."""
    bound = (2 * T.n) // 3
    ok1, bad_vertex = check_degree_bound(T, bound)
    details: dict = {"degree_bound": bound}
    if not ok1:
        details["degree_witness"] = bad_vertex
        return False, details
    biclique = find_one_way_biclique(T, a)
    if biclique is not None:
        details["biclique_witness"] = biclique
        return False, details
    trans = find_transitive_subtournament(T, t3)
    if trans is not None:
        details["transitive_witness"] = trans
        return False, details
    return True, details


def sample_base_tournament(
    n: int, a: int, t3: int, seed: int = 0, max_tries: int = 200
) -> BaseTournament:
    """Draw random tournaments until one meets all three conditions."""
    if n < 3:
        raise ValueError("n must be at least 3")
    if a < 1 or t3 < 3:
        raise ValueError("need a >= 1 and t3 >= 3")
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    rng = random.Random(seed)
    failures = {"degree": 0, "biclique": 0, "transitive": 0}
    last_details: dict = {}
    for attempt in range(1, max_tries + 1):
        T = _draw_tournament(rng, n)
        ok, details = check_base_conditions(T, a, t3)
        if not ok:
            [witness] = [key for key in details if key.endswith("_witness")]
            failures[witness.removesuffix("_witness")] += 1
            last_details = {witness: details[witness]}
            continue
        report = BaseReport(
            n=n,
            a=a,
            t3=t3,
            degree_bound=details["degree_bound"],
            max_out_degree=T.max_out_degree(),
            max_in_degree=T.max_in_degree(),
            largest_one_way_biclique=_largest_below(find_one_way_biclique, T, a),
            largest_transitive=_largest_below(find_transitive_subtournament, T, t3),
            tries_used=attempt,
            seed=seed,
        )
        return BaseTournament(T, report)
    raise SamplingError(
        f"no base tournament in {max_tries} tries "
        f"(n={n}, a={a}, t3={t3}; failures {failures}; last {last_details})"
    )


def _largest_below(find, T: Tournament, size: int) -> int:
    """The largest s < size with a witness find(T, s), or 0, for a T with none
    of the given size: a witness holds one of every smaller size, so the first
    size found scanning down is the largest."""
    return next((s for s in range(size - 1, 0, -1) if find(T, s) is not None), 0)


# -- gadget family ---------------------------------------------------------------


def _k_interval(m: int) -> tuple[int, int]:
    """Integers strictly inside (2m/3 + 2, 5m/6) as [lo, hi]."""
    lo = (2 * m + 6) // 3 + 1
    hi = (5 * m - 1) // 6
    return lo, hi


def make_k_sequence(m: int, s: int) -> list[int]:
    """Top s integers in the admissible open interval, descending, gaps >= 2."""
    if s < 1:
        raise ValueError("s must be positive")
    lo, hi = _k_interval(m)
    capacity = 0 if hi < lo else (hi - lo) // 2 + 1
    if capacity < s:
        m_min = m + 1
        while True:
            lo2, hi2 = _k_interval(m_min)
            if hi2 >= lo2 and (hi2 - lo2) // 2 + 1 >= s:
                break
            m_min += 1
        raise ValueError(
            f"interval ({2 * m / 3 + 2:g}, {5 * m / 6:g}) holds only {capacity} "
            f"spaced values, need {s}; smallest feasible m is {m_min}"
        )
    return [hi - 2 * i for i in range(s)]


@dataclass(frozen=True)
class Gadget:
    """Base tournament plus two non-adjacent roots split by the threshold k.

    Vertices 0..m-1 copy the base; z = m points to every base vertex below k
    which points on to w = m+1, and the remaining base vertices reverse both
    arcs.  Every pair except {z, w} is adjacent.  m and k are read from the
    rooted digraph; roots that are not its last two vertices raise ValueError.
    """

    rooted: RootedDigraph
    m: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        n = self.rooted.graph.n
        if self.rooted.roots != (n - 2, n - 1):
            raise ValueError(
                f"gadget roots must be the last two vertices {(n - 2, n - 1)}, "
                f"got {self.rooted.roots}"
            )
        object.__setattr__(self, "m", n - 2)
        object.__setattr__(self, "k", self.rooted.graph.out_degree(n - 2))

    @property
    def z(self) -> int:
        return self.rooted.roots[0]

    @property
    def w(self) -> int:
        return self.rooted.roots[1]


def build_gadget(base: Tournament | BaseTournament, k: int) -> Gadget:
    f0 = base.tournament if isinstance(base, BaseTournament) else base
    m = f0.n
    if not 0 < k < m:
        raise ValueError(f"k={k} out of range (0, {m})")
    z, w = m, m + 1
    low = (1 << k) - 1  # the base vertices below k
    out = [o | 1 << (w if v < k else z) for v, o in enumerate(f0.out_masks)]
    out += [low, (1 << m) - 1 ^ low]  # z and w
    return Gadget(RootedDigraph(Digraph.from_out_masks(m + 2, out), (z, w)))


def degree_bound_ok(g: Gadget) -> bool:
    """max degree strictly below 5m/6 (holds when the base obeys its bound)."""
    graph = g.rooted.graph
    return 6 * max(graph.max_out_degree(), graph.max_in_degree()) < 5 * g.m


@dataclass(frozen=True)
class DoubledGadget:
    """Two mirrored copies of a gadget glued with swapped roots.

    Layout: 0..m-1 left copy, m..2m-1 right copy, z = 2m, w = 2m+1.  The
    left copy realizes the original root pattern on (z, w); the right copy
    realizes it on (w, z).  Conditional counts into any host are symmetric
    in the two roots.  m and k (the arcs from z into the left copy) are
    read from the rooted digraph, and `halves` holds both copies as
    standalone rooted patterns.  An odd vertex count or one below 4, roots
    that are not the last two vertices, and a right copy that is not the
    left with z and w swapped raise ValueError.
    """

    rooted: RootedDigraph
    m: int = field(init=False)
    k: int = field(init=False)
    halves: tuple[RootedDigraph, RootedDigraph] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        graph, roots = self.rooted.graph, self.rooted.roots
        if graph.n % 2 != 0 or graph.n < 4:
            raise ValueError(f"doubled gadgets have 2m+2 >= 4 vertices, got {graph.n}")
        m = (graph.n - 2) // 2
        if roots != (2 * m, 2 * m + 1):
            raise ValueError(
                f"doubled gadget roots must be the last two vertices {(2 * m, 2 * m + 1)}, "
                f"got {roots}"
            )
        left, right = (
            RootedDigraph(induced_subdigraph(graph, [*range(start, start + m), *roots]), (m, m + 1))
            for start in (0, m)
        )
        if right.graph.out_masks != tuple(gather_rows(left.graph, [*range(m), m + 1, m])):
            raise ValueError("the right half is not the mirror of the left half")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", (graph.out_mask(2 * m) & (1 << m) - 1).bit_count())
        object.__setattr__(self, "halves", (left, right))

    @property
    def z(self) -> int:
        return self.rooted.roots[0]

    @property
    def w(self) -> int:
        return self.rooted.roots[1]


def symmetrize(g: Gadget) -> DoubledGadget:
    """Glue a mirror image onto the gadget so root order stops mattering.

    The gadget's rows are already in `glue`'s layout; the mirror copy is the
    same rows glued at offset m with the roots swapped."""
    m = g.m
    rows = g.rooted.graph.out_masks
    *left, z_left, w_left = glue(rows, 0, 2 * m, 2 * m + 1)
    *right, w_right, z_right = glue(rows, m, 2 * m + 1, 2 * m)
    out = [*left, *right, z_left | z_right, w_left | w_right]
    return DoubledGadget(RootedDigraph(Digraph.from_out_masks(2 * m + 2, out), (2 * m, 2 * m + 1)))


def build_necklace(F: RootedDigraph, ell: int) -> Digraph:
    """Cyclic chain of ell copies of F, root w of each glued to root z of the next."""
    if ell < 3:
        raise ValueError("necklace length must be at least 3")
    z, w = F.roots
    free = [v for v in range(F.graph.n) if v not in (z, w)]
    block = len(free)
    rows = gather_rows(F.graph, free + [z, w])
    out = [0] * (ell * (F.graph.n - 1))
    for i in range(ell):
        start, nxt = ell + i * block, (i + 1) % ell
        *copy, z_row, w_row = glue(rows, start, i, nxt)
        out[start : start + block] = copy
        out[i] |= z_row
        out[nxt] |= w_row
    return Digraph.from_out_masks(len(out), out)


def glue(rows: Sequence[int], start: int, z_at: int, w_at: int) -> list[int]:
    """The out-masks of a rooted pattern laid out free vertices first, then z,
    then w, with its free vertices moved to start, start+1, ... and its roots
    glued onto the vertices z_at and w_at.  The last two masks are the roots'
    arcs, which the caller ORs into the rows of z_at and w_at."""
    block = len(rows) - 2
    free = (1 << block) - 1
    return [
        (o & free) << start | (o >> block & 1) << z_at | (o >> block + 1 & 1) << w_at
        for o in rows
    ]


@dataclass(frozen=True)
class GadgetFamily:
    """One gadget and its doubled form per threshold value."""

    m: int
    k: tuple[int, ...]
    base: Tournament
    gadgets: tuple[Gadget, ...]
    doubled: tuple[DoubledGadget, ...]

    @property
    def s(self) -> int:
        return len(self.k)


def build_family(
    base: Tournament | BaseTournament,
    k_values: list[int],
    enforce_interval: bool = True,
) -> GadgetFamily:
    """Construct the gadget family; toy families may bypass the k interval."""
    f0 = base.tournament if isinstance(base, BaseTournament) else base
    m = f0.n
    if enforce_interval:
        lo, hi = _k_interval(m)
        for k in k_values:
            if not lo <= k <= hi:
                raise ValueError(f"k={k} outside admissible interval [{lo}, {hi}]")
        for k1, k2 in zip(k_values, k_values[1:]):
            if not k1 > k2 + 1:
                raise ValueError("k values must descend with gaps of at least 2")
    gadgets = tuple(build_gadget(f0, k) for k in k_values)
    return GadgetFamily(
        m=m,
        k=tuple(k_values),
        base=f0,
        gadgets=gadgets,
        doubled=tuple(symmetrize(g) for g in gadgets),
    )


def rotational_tournament(n: int) -> Tournament:
    """i beats i+1 .. i+(n-1)/2 mod n; defined for odd n, always strongly cyclic."""
    if n % 2 == 0:
        raise ValueError("rotational tournaments need odd n")
    half = (1 << (n - 1) // 2) - 1
    full = (1 << n) - 1
    # i + 1 .. i + (n-1)/2, the bits past n - 1 wrapped round to 0
    out = [(half << i + 1 | half << i + 1 >> n) & full for i in range(n)]
    return Tournament.from_out_masks(n, out)


@lru_cache(maxsize=16)
def toy_family(m: int = 3, k_values: tuple[int, ...] = (2,), seed: int = 1) -> GadgetFamily:
    """Small family for identity tests; the k interval is deliberately ignored.

    Odd m uses the rotational base (deterministic and cycle-rich, so toy
    hosts are rarely degenerate); even m falls back to a seeded draw.
    """
    if m % 2 == 1:
        f0 = rotational_tournament(m)
    else:
        f0 = _draw_tournament(random.Random(seed), m)
    return build_family(f0, k_values=list(k_values), enforce_interval=False)
