"""Exact homomorphism counting and enumeration between digraphs.

Counting and enumeration run one search engine, in two modes.  A
pattern is compiled once per set of pinned vertices into a plan: the arc
lists of every pattern vertex, a tie-break rank that depends on the
pattern only, the weakly connected components of the free (unpinned)
vertices, and one clique per component: its vertices in rank order, each
kept when it is adjacent to every vertex kept before it.  The executor
keeps a candidate bitmask over the host's vertices for every unplaced
pattern vertex.  Placing a vertex ANDs the host out- or in-mask of its
image into the mask of every unplaced neighbour (a digon gets both),
restores the old masks on backtrack, and prunes as soon as a mask is
empty: forward checking in the sense of Haralick and Elliott (1980).  The
next vertex is one with the smallest mask; ties break by the plan's rank,
so renaming the host's vertices changes no search decision and no node
count.

Maps need not be injective, but adjacent pattern vertices take distinct
images, since no digraph has a loop.  So before a node opens on a vertex
with mask M, the search counts the unplaced vertices of its part whose
mask is exactly M.  If there are more than |M| of them and they are
pairwise adjacent, the part has no map and the node is not opened: a
pigeonhole cut, the simplest case of counting for an all-different
constraint (Regin 1994).  Non-adjacent vertices may share an image, so
they never trigger it.  Sharers inside the clique of the branching
vertex's part are pairwise adjacent by construction, so the sharers are
tested pair by pair only when one of them lies outside that clique.

Counting multiplies the counts of independent parts: the components of the
free vertices, and the components the unplaced vertices fall into after a
placement (the doubled gadget splits into its two halves once its roots
are pinned).  Unplaced vertices that all lie in one clique cannot fall
apart, so they are not searched for components.  A part of one vertex
counts as the size of its mask.  Enumeration walks all free vertices in
one depth-first search.

Root-pair sweep.  hom_{x,y}(F, T) for every root pair is a sum over the
maps of the non-root part of F (the core), each adding the outer product
of the root images it allows (Lovasz, Large Networks and Graph Limits,
2012, ch. 6).  A sweep of patterns that share their core enumerates each
component of the core once, reads each root's mask off the core's images
at every map, and adds each pattern's outer product to its matrix; the
components' matrices multiply elementwise.

Block-diagonal sweep.  A homomorphism maps closed walks to closed walks,
so two pattern vertices joined by walks both ways have images joined by
walks both ways, and a strongly connected pattern maps inside one strong
component of the host.  When every swept pattern is strongly connected,
roots included, a count matrix is therefore zero off the diagonal blocks
of the host's strong components, and its block on a component C is the
matrix of the subdigraph induced on C, since a map into C reads only arcs
inside C.  So such a sweep runs once per component, on that subdigraph
relabelled in ascending order, and components whose relabelled out-masks
are equal (the blocks of a stacked host) share one sweep.  The search
makes the same decisions on a sub-host as on any other host.  Patterns
that are not strongly connected, and hosts of one component, are swept
whole.

The search runs on an explicit stack, and the plan builder does not
recurse either, so pattern size is bounded by memory, not by the
interpreter's recursion limit.

`max_nodes` bounds the number of search nodes.  A node is one free
pattern vertex chosen for branching: the search then tries each host
vertex left in its mask.  Pinned vertices are not nodes, nor are the
one-vertex parts whose count is read off their mask, nor the parts that
the pigeonhole cut empties, so a count that the pinned vertices' forward
checks settle takes no node, and a sweep that components share counts
its nodes once.  Counts are exact Python integers; densities exact
Fractions.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .digraphs import Digraph, QuantumDigraph, RootedDigraph, _bits, gather_rows
from .errors import BudgetExceededError, EnumerationCapError

__all__ = [
    "count_hom",
    "count_hom_bruteforce",
    "count_hom_rooted",
    "density",
    "conditional_density",
    "disjoint_union_density_check",
    "eval_quantum",
    "iter_homs",
    "rooted_count_matrix",
    "rooted_count_matrices",
    "is_hom",
]

BRUTE_FORCE_BUDGET = 10**8


# -- search plan -----------------------------------------------------------------


def _split(mask: int, adj: Sequence[int]) -> list[int]:
    """Masks of the weakly connected components of the vertices in mask."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier and comp != mask:
            b = frontier & -frontier
            frontier ^= b
            new = adj[b.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        mask &= ~comp
    return comps


def _parts(comps: list[int], order: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Components as (vertices in the order of `order`, mask); smallest
    first, then by lowest vertex, so that cheap parts settle a zero early."""
    comps = sorted(comps, key=lambda c: (c.bit_count(), c & -c))
    return [(tuple(u for u in order if c >> u & 1), c) for c in comps]


class _Plan(NamedTuple):
    outs: tuple[tuple[int, ...], ...]  # outs[v]: every u with an arc v -> u
    ins: tuple[tuple[int, ...], ...]  # ins[v]: every u with an arc u -> v
    adj: tuple[int, ...]  # adj[v]: neighbour bitmask over pattern vertices
    by_rank: tuple[int, ...]  # tie-break among equal masks: earlier goes first
    free: int  # mask of the unpinned vertices
    parts: tuple[tuple[tuple[int, ...], int], ...]  # components of the free vertices
    clique: tuple[int, ...]  # clique[v]: the greedy clique of v's part; 0 if v is pinned


@lru_cache(maxsize=512)
def _plan(F: Digraph, pinned: tuple[int, ...]) -> _Plan:
    n = F.n
    adj = tuple(F.out_mask(v) | F.in_mask(v) for v in range(n))
    by_rank = tuple(sorted(range(n), key=lambda v: (-adj[v].bit_count(), v)))
    free = (1 << n) - 1
    for p in pinned:
        free &= ~(1 << p)
    parts = tuple(_parts(_split(free, adj), by_rank))
    clique = [0] * n
    for verts, _ in parts:
        # greedy in rank order; any clique is sound, a tournament core is whole
        kept = 0
        for v in verts:
            if adj[v] & kept == kept:
                kept |= 1 << v
        for v in verts:
            clique[v] = kept
    return _Plan(
        outs=tuple(_bits(F.out_mask(v)) for v in range(n)),
        ins=tuple(_bits(F.in_mask(v)) for v in range(n)),
        adj=adj,
        by_rank=by_rank,
        free=free,
        parts=parts,
        clique=tuple(clique),
    )


# -- the executor ------------------------------------------------------------------

_COUNT, _ENUM = 0, 1


def _start(plan: _Plan, T: Digraph, pins: dict[int, int]):
    """Candidate masks and images with the pinned vertices placed.

    None when an arc between pinned vertices is missing from T or forward
    checking from the pins empties a mask."""
    n = len(plan.adj)
    dom = [(1 << T.n) - 1] * n
    images = [-1] * n
    for p, x in pins.items():
        images[p] = x
    outm, inm = T.out_masks, T.in_masks
    for p, x in pins.items():
        om, im = outm[x], inm[x]
        for u in plan.outs[p]:
            if u in pins:
                if not om >> pins[u] & 1:
                    return None
            else:
                dom[u] &= om
                if not dom[u]:
                    return None
        for u in plan.ins[p]:
            if u not in pins:
                dom[u] &= im
                if not dom[u]:
                    return None
    return dom, images


def _clique(M: int, masks: list[int], verts: Sequence[int], adj: Sequence[int]) -> bool:
    """Whether the vertices whose mask is M are pairwise adjacent."""
    group = [u for u, m in zip(verts, masks) if m == M]
    bits = sum(1 << u for u in group)
    return all(adj[u] & bits == bits ^ 1 << u for u in group)


def _search(plan, T, mode, state, parts, max_nodes):
    """The search loop, on an explicit stack of frames.

    Count mode returns the product over `parts` of their counts, splitting
    a part again whenever its unplaced vertices fall apart.  Enumerate mode
    takes one part and yields every full image tuple; a sweep is such an
    enumeration of the core (`_sweep`).  The generator returns (count,
    nodes used).

    A part is (its unplaced vertices in rank order, their mask).  A sum
    frame [False, rest, rest_mask, v, cands, acc, saved] places v at each
    host vertex left in cands; rest lists the part's other unplaced
    vertices, and saved holds the masks from before v was placed.  A
    product frame [True, parts, i, acc] multiplies the counts of parts.

    Forward checking also ANDs into the masks of placed neighbours.  That
    never empties one: a placed vertex's image stays in its mask, because
    every later neighbour was drawn from a mask already narrowed to agree
    with it.  So the inner loops need no test for placed vertices, and the
    masks come back on backtrack by restoring the frame's saved copy.
    """
    dom, images = state
    outm, inm = T.out_masks, T.in_masks
    outs, ins, adj, clique = plan.outs, plan.ins, plan.adj, plan.clique
    counting = mode == _COUNT
    limit = sys.maxsize if max_nodes is None else max_nodes
    nodes = 0
    size = int.bit_count
    get = dom.__getitem__

    def open_part(verts, mask):
        """A node on the first vertex in rank order with the smallest mask;
        None, and no node, when the pigeonhole cut shows the part has no map."""
        nonlocal nodes
        masks = list(map(get, verts))
        M = min(masks, key=size)
        i = masks.index(M)
        v = verts[i]
        s = size(M)
        if s < len(verts) and masks.count(M) > s:
            # sharers of M inside the clique of v's part are pairwise adjacent;
            # test them pair by pair only when v or another sharer lies outside
            out = mask & ~clique[v]
            inside = not out >> v & 1 and M not in map(get, _bits(out))
            if inside or _clique(M, masks, verts, adj):
                return None
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError("homomorphism search budget exceeded")
        return [False, verts[:i] + verts[i + 1 :], mask & ~(1 << v), v, M, 0, dom[:]]

    if counting:
        stack = [[True, parts, 0, 1]]
    else:
        first = open_part(*parts[0])
        stack = [first] if first else []
    ret = None  # what the frame just popped hands to the one below
    while stack:
        fr = stack[-1]
        if fr[0]:
            _, prts, i, acc = fr
            if ret is not None:
                acc *= ret
                i += 1
                ret = None
            while acc and i < len(prts) and len(prts[i][0]) == 1:
                acc *= dom[prts[i][0][0]].bit_count()
                i += 1
            if acc and i < len(prts):
                child = open_part(*prts[i])
                if child:
                    fr[2], fr[3] = i, acc
                    stack.append(child)
                    continue
                acc = 0
            stack.pop()
            ret = acc
            continue

        _, rest, rest_mask, v, cands, acc, saved = fr
        if ret is not None:
            acc += ret
            ret = None
            dom[:] = saved
        child = None
        while cands:
            b = cands & -cands
            cands ^= b
            g = b.bit_length() - 1
            mask = outm[g]
            for u in outs[v]:
                d = dom[u] & mask
                if not d:
                    break
                dom[u] = d
            else:
                mask = inm[g]
                for u in ins[v]:
                    d = dom[u] & mask
                    if not d:
                        break
                    dom[u] = d
                else:
                    images[v] = g
                    if not rest:
                        if counting:
                            acc += 1
                        else:
                            yield tuple(images)
                    elif not counting:
                        child = open_part(rest, rest_mask)
                    elif len(rest) == 1:
                        acc += dom[rest[0]].bit_count()
                    else:
                        near = adj[v] & rest_mask
                        if near & (near - 1) and rest_mask & ~clique[v]:
                            # v had two or more unplaced neighbours and rest is
                            # not inside the clique of v's part: rest may split
                            comps = _split(rest_mask, adj)
                            if len(comps) > 1:
                                child = [True, _parts(comps, rest), 0, 1]
                        if child is None:
                            child = open_part(rest, rest_mask)
                    if child is not None:
                        fr[4], fr[5] = cands, acc
                        stack.append(child)
                        break
            dom[:] = saved
        if child is None:
            stack.pop()
            ret = acc
    return ret, nodes


def _finish(search, visit=None) -> tuple[int, int]:
    """Run a search to its end, passing each map it yields to visit: (count, nodes)."""
    try:
        while True:
            visit(next(search))
    except StopIteration as done:
        return done.value


def _count(F: Digraph, T: Digraph, pins: dict[int, int], max_nodes: int | None) -> int:
    plan = _plan(F, tuple(sorted(pins)))
    state = _start(plan, T, pins)
    if state is None:
        return 0
    return _finish(_search(plan, T, _COUNT, state, plan.parts, max_nodes))[0]


# -- counting ----------------------------------------------------------------


def count_hom(F: Digraph, T: Digraph, max_nodes: int | None = None) -> int:
    """Exact number of arc-preserving maps V(F) -> V(T)."""
    if F.n == 0:
        return 1
    if T.n == 0:
        return 0
    return _count(F, T, {}, max_nodes)


def count_hom_rooted(
    F: RootedDigraph, T: Digraph, x: int, y: int, max_nodes: int | None = None
) -> int:
    """Homomorphisms with the roots (z, w) sent to (x, y); x = y is allowed."""
    if not (0 <= x < T.n and 0 <= y < T.n):
        raise ValueError("root images out of range")
    z, w = F.roots
    return _count(F.graph, T, {z: x, w: y}, max_nodes)


def count_hom_bruteforce(
    F: Digraph,
    T: Digraph,
    pins: dict[int, int] | None = None,
    budget: int = BRUTE_FORCE_BUDGET,
) -> int:
    """Oracle: enumerate all |V(T)|^k maps of the k vertices of F not in `pins`.

    `pins` fixes the images of some vertices (the roots of a rooted count).
    """
    pins = pins or {}
    for v, g in pins.items():
        if not (0 <= v < F.n and 0 <= g < T.n):
            raise ValueError("pinned image out of range")
    free = [v for v in range(F.n) if v not in pins]
    if T.n ** len(free) > budget:
        raise BudgetExceededError(f"{T.n}^{len(free)} maps exceed budget {budget}")
    arcs = list(F.arcs)
    images = [-1] * F.n
    for v, g in pins.items():
        images[v] = g
    total = 0
    for assignment in itertools.product(range(T.n), repeat=len(free)):
        for v, g in zip(free, assignment):
            images[v] = g
        if all(T.has_arc(images[u], images[v]) for u, v in arcs):
            total += 1
    return total


def is_hom(F: Digraph, T: Digraph, images: Sequence[int]) -> bool:
    return all(T.has_arc(images[u], images[v]) for u, v in F.arcs)


# -- densities ----------------------------------------------------------------


def density(F: Digraph, T: Digraph, max_nodes: int | None = None) -> Fraction:
    """hom(F, T) / |V(T)|^|V(F)| as an exact rational."""
    if T.n == 0:
        raise ValueError("empty host")
    return Fraction(count_hom(F, T, max_nodes), T.n**F.n)


def conditional_density(
    F: RootedDigraph, T: Digraph, x: int, y: int, max_nodes: int | None = None
) -> Fraction:
    """hom_{x,y}(F, T) / |V(T)|^(|V(F)|-2)."""
    if T.n == 0:
        raise ValueError("empty host")
    return Fraction(count_hom_rooted(F, T, x, y, max_nodes), T.n ** (F.graph.n - 2))


def eval_quantum(g: QuantumDigraph, T: Digraph, max_nodes: int | None = None) -> Fraction:
    """Sum of coef * density(term, T) over g's terms as given, exact, since
    density is linear in the terms.  Only terms equal as labelled digraphs are
    merged, and a digraph whose merged coefficient is 0 is not searched."""
    merged: dict[Digraph, Fraction] = {}
    for coef, term in g.terms:
        merged[term] = merged.get(term, 0) + coef
    return sum((c * density(F, T, max_nodes) for F, c in merged.items() if c), Fraction(0))


def disjoint_union_density_check(F1: Digraph, F2: Digraph, T: Digraph) -> bool:
    """Exact multiplicativity of densities under disjoint union."""
    from .digraphs import disjoint_union

    return density(disjoint_union(F1, F2), T) == density(F1, T) * density(F2, T)


# -- enumeration ---------------------------------------------------------------


def iter_homs(
    F: Digraph,
    T: Digraph,
    root_images: dict[int, int] | None = None,
    cap: int | None = None,
    max_nodes: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every homomorphism as an image tuple, in a deterministic order.

    Raises EnumerationCapError after `cap` maps have been produced.
    """
    pins = dict(root_images or {})
    if T.n == 0 and F.n > 0:
        return
    for v, g in pins.items():
        if not (0 <= v < F.n and 0 <= g < T.n):
            raise ValueError("pinned image out of range")
    plan = _plan(F, tuple(sorted(pins)))
    state = _start(plan, T, pins)
    if state is None:
        return
    if plan.free:
        free = tuple(v for v in plan.by_rank if plan.free >> v & 1)
        maps = _search(plan, T, _ENUM, state, [(free, plan.free)], max_nodes)
    else:
        maps = iter([tuple(state[1])])
    for produced, images in enumerate(maps, start=1):
        if cap is not None and produced > cap:
            raise EnumerationCapError(f"more than {cap} homomorphisms")
        yield images


# -- all-root-pairs sweep of patterns sharing a core --------------------------------


class _SweepPlan(NamedTuple):
    plan: _Plan  # the core's plan: the patterns with their roots left out
    # roots[p][i]: for z and for w of pattern p, each (u, k) with u in core part
    # i and an arc root -> u (k = 0) or u -> root (k = 1)
    roots: tuple[tuple[tuple[tuple[tuple[int, int], ...], ...], ...], ...]
    strong: bool  # every pattern is strongly connected, roots included


@lru_cache(maxsize=64)
def _sweep_plan(patterns: tuple[RootedDigraph, ...]) -> _SweepPlan:
    """Plan a sweep of rooted patterns that share their non-root part, the
    core, relabelled in ascending order.  Each root's core neighbours are
    listed per part, since one part's enumeration leaves the others unset."""
    first = patterns[0]
    n, (z, w) = first.graph.n, first.roots
    core = [v for v in range(n) if v != z and v != w]
    rows = gather_rows(first.graph, core)
    for F in patterns:
        if not F.roots_nonadjacent():
            raise ValueError("sweep requires non-adjacent roots")
        if F.graph.n != n or F.roots != first.roots:
            raise ValueError("swept patterns need the same vertex count and root labels")
        if gather_rows(F.graph, core) != rows:
            raise ValueError("swept patterns need the same arcs among their non-root vertices")
    plan = _plan(Digraph.from_out_masks(len(core), rows), ())

    def arcs(G: Digraph, root: int, part: int) -> tuple[tuple[int, int], ...]:
        sides = (G.out_mask(root), G.in_mask(root))
        return tuple((i, k) for i in _bits(part) for k in (0, 1) if sides[k] >> core[i] & 1)

    return _SweepPlan(
        plan=plan,
        roots=tuple(
            tuple((arcs(F.graph, z, part), arcs(F.graph, w, part)) for _, part in plan.parts)
            for F in patterns
        ),
        strong=all(len(F.graph.strong_components) == 1 for F in patterns),
    )


def rooted_count_matrices(
    patterns: Sequence[RootedDigraph], T: Digraph, max_nodes: int | None = None
) -> list[list[list[int]]]:
    """One matrix S_p with S_p[x][y] = hom_{x,y}(F_p, T) per pattern, in one sweep.

    The patterns must have non-adjacent roots, the same vertex count and
    root labels, and the same arcs among their non-root vertices (the
    core); anything else raises ValueError.  Each component of the core is
    enumerated once for all of them.  With non-adjacent roots a pattern's
    two roots are constrained only through the core, so each map of a
    component adds the outer product of the root images it allows to the
    pattern's matrix, and the components' matrices multiply elementwise.
    When every pattern is strongly connected, roots included, each strong
    component of T is swept on its own, and components with equal
    relabelled out-masks share one sweep (the block-diagonal sweep of the
    module docstring).  `max_nodes` bounds the nodes of the whole call.
    """
    patterns = tuple(patterns)
    if not patterns:
        return []
    sp = _sweep_plan(patterns)
    comps = T.strong_components if sp.strong else ()
    if len(comps) < 2:
        return _sweep(sp, T, max_nodes)[0]
    totals = [[[0] * T.n for _ in range(T.n)] for _ in patterns]
    swept: dict[tuple[int, ...], list[list[list[int]]]] = {}
    left = max_nodes
    for comp in comps:
        verts = _bits(comp)
        rows = tuple(gather_rows(T, verts))
        if rows not in swept:
            swept[rows], left = _sweep(sp, Digraph.from_out_masks(len(verts), rows), left)
        for total, sub in zip(totals, swept[rows]):
            for x, sub_row in zip(verts, sub):
                row = total[x]
                for y, c in zip(verts, sub_row):
                    row[y] = c
    return totals


def _sweep(sp: _SweepPlan, T: Digraph, left: int | None):
    """The sweep's matrices on all of T, one enumeration per part of the core,
    and what is left of the node budget `left`.  At each map, a root may go
    to the host vertices with the arcs it needs to and from the images of
    its core neighbours."""
    n, full, sides = T.n, (1 << T.n) - 1, (T.in_masks, T.out_masks)
    totals: list[list[list[int]]] | None = None
    for i, part in enumerate(sp.plan.parts):
        mats = [[[0] * n for _ in range(n)] for _ in sp.roots]
        # each root's arcs with the host masks they read: in-masks for root -> u
        here = [[[(u, sides[k]) for u, k in arcs] for arcs in roots[i]] for roots in sp.roots]

        def add(images):
            for (zarcs, warcs), S in zip(here, mats):
                xs = full
                for u, masks in zarcs:
                    xs &= masks[images[u]]
                if not xs:
                    continue
                ys = full
                for u, masks in warcs:
                    ys &= masks[images[u]]
                if ys:
                    ys = _bits(ys)
                    for x in _bits(xs):
                        row = S[x]
                        for y in ys:
                            row[y] += 1

        search = _search(sp.plan, T, _ENUM, _start(sp.plan, T, {}), [part], left)
        _, used = _finish(search, add)
        if left is not None:
            left -= used
        if totals is None:
            totals = mats
            continue
        for total, S in zip(totals, mats):
            for tx, sx in zip(total, S):
                for y in range(n):
                    tx[y] *= sx[y]
    if totals is None:
        totals = [[[1] * n for _ in range(n)] for _ in sp.roots]
    return totals, left


def rooted_count_matrix(
    F: RootedDigraph, T: Digraph, max_nodes: int | None = None
) -> list[list[int]]:
    """Matrix S with S[x][y] = hom_{x,y}(F, T): one enumeration of the non-root
    part of F, with the root masks read at each map.  Requires non-adjacent
    roots; see `rooted_count_matrices`."""
    return rooted_count_matrices([F], T, max_nodes)[0]
