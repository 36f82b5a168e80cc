"""Exact homomorphism counting and enumeration between digraphs.

Counting and enumeration run one search engine, in two modes.  A
pattern is compiled once per set of pinned vertices into a plan.  The plan
numbers the pattern vertices by a rank that depends on the pattern only
(more neighbours first, then the lower label), so bit i of every
pattern-vertex mask stands for the i-th vertex by rank.  It keeps each
vertex's out-only, in-only and digon neighbours as such masks, the weakly
connected components of the free (unpinned) vertices, and one clique per
component: its vertices in rank order, each kept when it is adjacent to
every vertex kept before it.

Domains.  The plan also gives each vertex v four need lists, the
neighbourhood-degree filter of Solnon's LAD (2010).  K+ is a greedy
clique of v's out-neighbours and K- one of its in-neighbours; for each u
in K+, and then in K-, the sizes of greedy cliques of u's out- and of
u's in-neighbours make the lists, each in descending order.  Adjacent
pattern vertices take distinct images, so a map h sends K+ injectively
into the out-neighbours of h(v), and the clique of u's out-neighbours
into those of h(u).  So h(v) has at least |K+| out-neighbours, and their
out-degrees, in descending order, dominate v's first list entry by
entry; likewise the in-degrees of its out-neighbours, and the out- and
in-degrees of its in-neighbours.  The domain of v is the set of host
vertices that pass all four (`_domains`).  It is computed with numpy
once per plan and host, kept in the plan under the host's identity, and
dropped when the host is: the pinned and planted hosts of a run compute
it once, and so do the component hosts of a sweep, which their host
keeps (`Digraph._component_hosts`).  No map is lost, so every count,
matrix and set of maps is what it would be without them.

The search state is a list of classes.  Forward checking (Haralick and
Elliott 1980) is the only step that narrows a vertex's candidate mask of
host vertices, so two unplaced vertices with the same relation (out, in,
digon or none) to every placed and pinned vertex hold equal masks.  A
class is such a set of vertices, as a pattern-vertex mask, with its one
host mask.  Placing a vertex at host vertex g splits each class into at
most four pieces: its out-neighbours AND the out-mask of g into their
host mask, its in-neighbours the in-mask, its digon neighbours both, and
the vertices not adjacent to it keep their mask.  A piece with an empty
mask prunes the placement.  Each frame of the search owns its class list:
a placement builds a new one, and the next node pops its vertex's class
from that list, which then holds the node's other classes with no copy,
so backtracking restores nothing.  The next vertex is the unplaced vertex
with the fewest candidates left in its class mask AND its domain, the
first by rank among equals: the fail-first rule of the Glasgow subgraph
solver (McCreesh, Prosser and Trimble 2020).  When a class's mask holds
one host vertex, no vertex has fewer candidates but one with none, so
the first such class in list order gives its first vertex by rank,
without the scan; the placement that built the list has already found
that class.  Renaming the host's vertices changes no search decision and
no node count: the list order comes from the pattern (its parts, and the
order of each vertex's sides) and from which classes are popped, and
that, like "one host vertex", is decided by mask and domain sizes, which
renaming keeps.

Maps need not be injective, but adjacent pattern vertices take distinct
images, since no digraph has a loop.  The vertices of one class all go
into its mask M, so a class with more than |M| pairwise-adjacent vertices
has no map, and the placement that made it is pruned without a node: the
Hall test of an all-different constraint (Regin 1994) on each class, as
the Glasgow subgraph solver (McCreesh, Prosser and Trimble 2020) runs it
on bitset domains.  The pairwise-adjacent vertices counted are the
class's vertices in the clique of its component, then its other vertices
in rank order, each kept when it is adjacent to every vertex kept before
it; only a class with more than |M| vertices is counted.  Non-adjacent
vertices may share an image, so they never trigger it.

Counting multiplies the counts of independent parts: the components of the
free vertices, and the components the unplaced vertices fall into after a
placement (the doubled gadget splits into its two halves once its roots
are pinned); each part keeps the classes' pieces inside it.  Unplaced
vertices that all lie in one clique cannot fall apart, so they are not
searched for components.  A part of one vertex counts as the size of its
mask.  Enumeration walks all free vertices in one depth-first search.

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
are equal (the blocks of a stacked host) share one sub-host and one
sweep.  The sub-hosts are built on a host's first sweep and kept, under
the host's identity, until the host is dropped; counts and matrices are
never kept.  The search makes the same decisions on a sub-host as on any
other host.  Patterns that are not strongly connected, and hosts of one
component, are swept whole.  A sweep makes a row of a matrix only when a
map first adds to it, so the work after the search is on touched rows.

The search runs on an explicit stack, and the plan builder does not
recurse either, so pattern size is bounded by memory, not by the
interpreter's recursion limit.

`max_nodes` bounds the number of search nodes.  A node is one free
pattern vertex chosen for branching: the search then tries each host
vertex left in its mask and its domain.  Pinned vertices are not nodes,
nor are the one-vertex parts whose count is read off their mask, so a
count that the pinned vertices' forward checks and Hall tests settle
takes no node, and a sweep that components share counts its nodes once.
Every public entry point refuses a negative `max_nodes` with ValueError
before any shortcut.  Counts are exact Python integers; densities exact
Fractions.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .digraphs import Digraph, QuantumDigraph, RootedDigraph, _bits, gather_rows
from .errors import BudgetExceededError, EnumerationCapError

__all__ = [
    "count_hom",
    "count_hom_bruteforce",
    "count_hom_rooted",
    "density",
    "eval_quantum",
    "iter_homs",
    "rooted_count_matrix",
    "rooted_count_matrices",
    "is_hom",
]

BRUTE_FORCE_BUDGET = 10**8


# -- search plan -----------------------------------------------------------------


def _split(mask: int, adj: Sequence[int]) -> list[int]:
    """Masks of the weakly connected components of the vertices in mask,
    smallest first, then by lowest vertex, so that cheap parts settle a
    zero early."""
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
    return sorted(comps, key=lambda c: (c.bit_count(), c & -c))


class _Plan(NamedTuple):
    # bit i of a pattern-vertex mask stands for label[i], the i-th vertex by rank
    label: tuple[int, ...]
    rank: tuple[int, ...]  # rank[v]: the bit of pattern vertex v
    adj: tuple[int, ...]  # adj[i]: the neighbours of i
    out: tuple[int, ...]  # out[i]: every j with an arc i -> j
    # sides[i]: (mask, k) for each of i's out-only (k = 0), in-only (k = 1)
    # and digon (k = 2) neighbours that i has; the rest are not adjacent to i
    sides: tuple[tuple[tuple[int, int], ...], ...]
    free: int  # the unpinned vertices
    parts: tuple[int, ...]  # the components of the free vertices, as `_split` orders them
    clique: int  # the union of the parts' greedy cliques
    # need[j][t]: entry t of need list j of each distinct set of four lists,
    # as a column, -1 past a list's end; vertex i has the row which[i]
    need: tuple[np.ndarray, ...]
    which: tuple[int, ...]
    domains: dict[int, tuple[int, ...]]  # id(host) -> each vertex's domain, by rank


# the entries of the need lists and of the host's lists are cut to _CAP, so
# that they and one more fit int16; min(d, _CAP) >= min(s, _CAP) whenever
# d >= s, so the cut keeps every image in its domain
_CAP = (1 << 15) - 2


def _greedy_clique(mask: int, adj: Sequence[int]) -> int:
    """The vertices of mask in rank order, each kept when it is adjacent to
    every vertex kept before it."""
    kept = 0
    for i in _bits(mask):
        if adj[i] & kept == kept:
            kept |= 1 << i
    return kept


@lru_cache(maxsize=512)
def _plan(F: Digraph, pinned: tuple[int, ...]) -> _Plan:
    """The search plan of F with the vertices `pinned` fixed.

    The vertices are numbered by rank, more neighbours first and then the
    lower label, and every pattern-vertex mask of the search is in that
    numbering.  Each vertex gets its out-only, in-only and digon masks and
    its need lists; the free vertices fall into parts, and each part gets
    a greedy clique.  The rank depends on F alone, so the search decides
    nothing from host labels."""
    n = F.n
    degree = [(F.out_mask(v) | F.in_mask(v)).bit_count() for v in range(n)]
    label = tuple(sorted(range(n), key=lambda v: (-degree[v], v)))
    rank = [0] * n
    for i, v in enumerate(label):
        rank[v] = i
    G = Digraph.from_out_masks(n, gather_rows(F, label))
    out, ins = G.out_masks, G.in_masks
    adj = tuple(o | i for o, i in zip(out, ins))
    sides = tuple(
        tuple((m, k) for k, m in enumerate((o & ~i, i & ~o, o & i)) if m) for o, i in zip(out, ins)
    )
    free = (1 << n) - 1
    for p in pinned:
        free &= ~(1 << rank[p])
    parts = tuple(_split(free, adj))
    # any clique is sound, a tournament core is whole
    clique = 0
    for part in parts:
        clique |= _greedy_clique(part, adj)
    # the need lists of i: for each u in K+ (a clique of i's out-neighbours)
    # and then in K-, u's clique sizes in its out- and in-neighbourhoods
    cliques = [[_greedy_clique(m, adj) for m in masks] for masks in (out, ins)]
    sizes = [[k.bit_count() for k in ks] for ks in cliques]
    rows: dict[tuple[tuple[int, ...], ...], int] = {}
    which = tuple(
        rows.setdefault(
            tuple(
                tuple(sorted((size[u] for u in _bits(ks[i])), reverse=True))
                for ks in cliques
                for size in sizes
            ),
            len(rows),
        )
        for i in range(n)
    )
    need = []
    for j in range(4):
        lists = [row[j] for row in rows]
        table = np.full((max(map(len, lists), default=0), len(lists), 1), -1, np.int16)
        for r, lst in enumerate(lists):
            table[: len(lst), r, 0] = [min(x, _CAP) for x in lst]
        need.append(table)
    return _Plan(label, tuple(rank), adj, out, sides, free, parts, clique, tuple(need), which, {})


def _domains(plan: _Plan, T: Digraph) -> tuple[int, ...]:
    """The host mask of the vertices each pattern vertex, by rank, can map to.

    Host vertex g's four lists are the out-degrees and the in-degrees of
    its out-neighbours, then of its in-neighbours, each in descending
    order.  g is in the domain of v when each of its lists is at least as
    long as v's need list and dominates it entry by entry.  The domains
    are computed once per plan and host, and dropped with the host."""
    known = plan.domains.get(id(T))
    if known is not None:
        return known
    n = T.n
    size = (n + 7) >> 3
    # each host vertex's out- and in-degree, cut to _CAP, plus one
    degree = [
        np.array([min(m.bit_count(), _CAP) + 1 for m in masks], np.int16)
        for masks in (T.out_masks, T.in_masks)
    ]
    ok = np.ones((plan.need[0].shape[1], n), bool)
    # host rows taken at once, and entries compared at once: bounds on the
    # temporary arrays
    block = 128
    step = max(1, (1 << 16) // (len(ok) * block or 1))
    for masks, needs in ((T.out_masks, plan.need[:2]), (T.in_masks, plan.need[2:])):
        for lo in range(0, n, block):
            raw = b"".join(m.to_bytes(size, "little") for m in masks[lo : lo + block])
            rows = np.frombuffer(raw, np.uint8).reshape(-1, size)
            nbrs = np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)
            here = ok[:, lo : lo + block]
            for need, deg in zip(needs, degree):
                width = len(need)
                # a neighbour's degree, -1 for a vertex that is not one
                lists = nbrs * deg - np.int16(1)
                lists.sort(axis=1)
                # row t: entry t of each host vertex's list, -1 past its end
                have = np.full((width, len(lists)), -1, np.int16)
                top = lists[:, : -width - 1 : -1]
                have[: top.shape[1]] = top.T
                for t in range(0, width, step):
                    here &= (have[t : t + step, None] >= need[t : t + step]).all(0)
    masks = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(ok, axis=1, bitorder="little")]
    known = tuple(masks[r] for r in plan.which)
    # keyed by identity, which costs no hash of the host, and dropped with it
    plan.domains[id(T)] = known
    weakref.finalize(T, plan.domains.pop, id(T), None)
    return known


# -- the executor ------------------------------------------------------------------

_COUNT, _ENUM = 0, 1


def _too_many(piece: int, size: int, clique: int, adj: Sequence[int]) -> bool:
    """Whether the piece holds more than `size` pairwise-adjacent vertices:
    those of its part's clique, then its other vertices in rank order, each
    kept when it is adjacent to every vertex kept before it."""
    kept = piece & clique
    rest = piece ^ kept
    while rest and kept.bit_count() <= size:
        b = rest & -rest
        rest ^= b
        if adj[b.bit_length() - 1] & kept == kept:
            kept |= b
    return kept.bit_count() > size


def _narrow(classes, sides, om: int, im: int, clique: int, adj: Sequence[int]):
    """The classes once a vertex with these sides is placed at a host vertex
    with out-mask om and in-mask im, and the index of the first of them, in
    list order, whose mask holds one host vertex (-1 if none).  (None, -1)
    when a piece's mask is empty or fails the Hall test."""
    masks = (om, im, om & im)
    new = []
    one = -1
    for P, H in classes:
        for side, k in sides:
            a = P & side
            if a:
                h = H & masks[k]
                s = h.bit_count()
                if not s or a.bit_count() > s and _too_many(a, s, clique, adj):
                    return None, -1
                if one < 0 and s == 1:
                    one = len(new)
                new.append((a, h))
                P ^= a
                if not P:
                    break
        else:
            if one < 0 and not H & (H - 1):
                one = len(new)
            new.append((P, H))
    return new, one


def _start(plan: _Plan, T: Digraph, pins: dict[int, int]):
    """The classes of the free vertices and the images, with the pinned
    vertices placed.

    The classes begin as the plan's parts, one each with every host vertex,
    and each pin splits them by its relation to their vertices.  None when
    an arc between pinned vertices is missing from T, or a class has an
    empty mask or fails the Hall test."""
    clique, adj = plan.clique, plan.adj
    if any(part.bit_count() > T.n and _too_many(part, T.n, clique, adj) for part in plan.parts):
        return None
    images = [-1] * len(plan.label)
    full = (1 << T.n) - 1
    classes = [(part, full) for part in plan.parts]
    outm, inm = T.out_masks, T.in_masks
    for p, x in pins.items():
        images[p] = x
    for p, x in pins.items():
        i = plan.rank[p]
        if any(not outm[x] >> images[plan.label[j]] & 1 for j in _bits(plan.out[i] & ~plan.free)):
            return None
        classes = _narrow(classes, plan.sides[i], outm[x], inm[x], clique, adj)[0]
        if classes is None:
            return None
    return classes, images


def _search(plan, T, mode, images, parts, max_nodes):
    """The search loop, on an explicit stack of frames.

    Count mode returns the product over `parts` of their counts, splitting
    a part again whenever its unplaced vertices fall apart.  Enumerate mode
    takes one part and yields the live `images` list at every map; a sweep
    is such an enumeration of the core (`_sweep`).  The generator returns
    (count, nodes used); the count is 0 in enumerate mode.

    A part is (its classes, the mask of their vertices).  A sum frame
    [False, rest, rest_mask, v, cands, acc] places v at each host vertex
    left in cands; rest holds the classes of the part's other unplaced
    vertices, before v is placed.  When its last candidate opens a sum
    frame, that frame takes its place on the stack and starts from its
    acc.  A product frame [True, parts, i, acc] multiplies the counts of
    parts.  Count mode counts a part of one vertex off its mask, so only an
    enumeration places a part's last vertex, and then every candidate left
    is a map.
    """
    outm, inm = T.out_masks, T.in_masks
    label, adj, sides, clique = plan.label, plan.adj, plan.sides, plan.clique
    dom = {1 << i: d for i, d in enumerate(_domains(plan, T))}
    # the host vertices in every free vertex's domain: a class mask K leaves
    # each of its vertices at least |K & common| candidates
    common = (1 << T.n) - 1
    for i in _bits(plan.free):
        common &= dom[1 << i]
    counting = mode == _COUNT
    limit = sys.maxsize if max_nodes is None else max_nodes
    nodes = 0

    def open_part(classes, mask, one=None):
        """A node on an unplaced vertex of a part, whose class is popped from
        `classes`, a list no other frame reads, which becomes the node's rest.
        `one` indexes the first class, in list order, whose mask holds one
        host vertex (-1: none; None: scan for it), and its first vertex by
        rank is taken; else the vertex with the fewest candidates left in
        its class mask and its domain, the first by rank among equals."""
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError("homomorphism search budget exceeded")
        if one is None:
            one = next((i for i, (_, H) in enumerate(classes) if not H & (H - 1)), -1)
        if one >= 0:
            P, H = classes.pop(one)
            b = P & -P
            cands = H & dom[b]
        else:
            best = sys.maxsize
            for i, (Q, K) in enumerate(classes):
                if (K & common).bit_count() > best:
                    continue
                while Q:
                    e = Q & -Q
                    Q ^= e
                    m = K & dom[e]
                    s = m.bit_count()
                    if s < best or s == best and e < b:
                        one, b, cands, best = i, e, m, s
            P, H = classes.pop(one)
        if P != b:
            classes.append((P ^ b, H))
        return [False, classes, mask ^ b, b.bit_length() - 1, cands, 0]

    if counting:
        stack = [[True, parts, 0, 1]]
    else:
        stack = [open_part(*parts[0])]
    ret = None  # what the frame just popped hands to the one below
    while stack:
        fr = stack[-1]
        if fr[0]:
            _, prts, i, acc = fr
            if ret is not None:
                acc *= ret
                i += 1
                ret = None
            while acc and i < len(prts) and not prts[i][1] & (prts[i][1] - 1):
                acc *= prts[i][0][0][1].bit_count()
                i += 1
            if acc and i < len(prts):
                fr[2], fr[3] = i, acc
                stack.append(open_part(*prts[i]))
                continue
            stack.pop()
            ret = acc
            continue

        _, rest, rest_mask, v, cands, acc = fr
        u = label[v]
        if not rest_mask:
            # the last vertex of an enumerated part: each candidate is a map
            while cands:
                b = cands & -cands
                cands ^= b
                images[u] = b.bit_length() - 1
                yield images
            stack.pop()
            ret = acc
            continue
        if ret is not None:
            acc += ret
            ret = None
        child = None
        vs = sides[v]
        while cands:
            b = cands & -cands
            cands ^= b
            g = b.bit_length() - 1
            classes, one = _narrow(rest, vs, outm[g], inm[g], clique, adj)
            if classes is None:
                continue
            if not counting:
                images[u] = g
                child = open_part(classes, rest_mask, one)
            elif not rest_mask & (rest_mask - 1):
                acc += classes[0][1].bit_count()
                continue
            else:
                near = adj[v] & rest_mask
                if near & (near - 1) and rest_mask & ~clique:
                    # v had two or more unplaced neighbours and rest is not
                    # inside the clique of its part: rest may split
                    comps = _split(rest_mask, adj)
                    if len(comps) > 1:
                        pieces = [([(P & c, H) for P, H in classes if P & c], c) for c in comps]
                        child = [True, pieces, 0, 1]
                if child is None:
                    child = open_part(classes, rest_mask, one)
            if cands or child[0]:
                fr[4], fr[5] = cands, acc
                stack.append(child)
            else:
                # the last candidate opened a sum frame: it takes this
                # frame's place and adds its count to this frame's sum
                child[5] = acc
                stack[-1] = child
            break
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


def _check_budget(max_nodes: int | None) -> None:
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be nonnegative, got {max_nodes}")


def _count(F: Digraph, T: Digraph, pins: dict[int, int], max_nodes: int | None) -> int:
    plan = _plan(F, tuple(sorted(pins)))
    state = _start(plan, T, pins)
    if state is None:
        return 0
    classes, images = state
    parts = [([c for c in classes if c[0] & part], part) for part in plan.parts]
    return _finish(_search(plan, T, _COUNT, images, parts, max_nodes))[0]


# -- counting ----------------------------------------------------------------


def count_hom(F: Digraph, T: Digraph, max_nodes: int | None = None) -> int:
    """Exact number of arc-preserving maps V(F) -> V(T)."""
    _check_budget(max_nodes)
    if F.n == 0:
        return 1
    if T.n == 0:
        return 0
    return _count(F, T, {}, max_nodes)


def count_hom_rooted(
    F: RootedDigraph, T: Digraph, x: int, y: int, max_nodes: int | None = None
) -> int:
    """Homomorphisms with the roots (z, w) sent to (x, y); x = y is allowed."""
    _check_budget(max_nodes)
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


def eval_quantum(g: QuantumDigraph, T: Digraph, max_nodes: int | None = None) -> Fraction:
    """Sum of coef * density(term, T) over g's terms as given, exact, since
    density is linear in the terms.  Only terms equal as labelled digraphs are
    merged, and a digraph whose merged coefficient is 0 is not searched."""
    _check_budget(max_nodes)
    merged: dict[Digraph, Fraction] = {}
    for coef, term in g.terms:
        merged[term] = merged.get(term, 0) + coef
    return sum((c * density(F, T, max_nodes) for F, c in merged.items() if c), Fraction(0))


# -- enumeration ---------------------------------------------------------------


def iter_homs(
    F: Digraph,
    T: Digraph,
    root_images: dict[int, int] | None = None,
    cap: int | None = None,
    max_nodes: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every homomorphism as an image tuple, in a deterministic order.

    Raises EnumerationCapError after `cap` maps have been produced, and
    ValueError for a negative `cap` or `max_nodes`.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    _check_budget(max_nodes)
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
    classes, images = state
    if plan.free:
        maps = map(tuple, _search(plan, T, _ENUM, images, [(classes, plan.free)], max_nodes))
    else:
        maps = iter([tuple(images)])
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
        verts = (plan.label[j] for j in _bits(part))
        return tuple((i, k) for i in verts for k in (0, 1) if sides[k] >> core[i] & 1)

    return _SweepPlan(
        plan=plan,
        roots=tuple(
            tuple((arcs(F.graph, z, part), arcs(F.graph, w, part)) for part in plan.parts)
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
    Each matrix is T.n fresh row lists.
    """
    _check_budget(max_nodes)
    patterns = tuple(patterns)
    if not patterns:
        return []
    sp = _sweep_plan(patterns)
    n = T.n
    if not sp.strong or len(T.strong_components) < 2:
        mats = _sweep(sp, T, max_nodes)[0]
    else:
        mats = [[None] * n for _ in patterns]
        swept: dict[int, list[list[list[int] | None]]] = {}
        left = max_nodes
        for verts, sub in T._component_hosts():
            if id(sub) not in swept:
                swept[id(sub)], left = _sweep(sp, sub, left)
            for total, S in zip(mats, swept[id(sub)]):
                for x, sub_row in zip(verts, S):
                    if sub_row is not None:
                        row = total[x] = [0] * n
                        for j in itertools.compress(range(len(verts)), sub_row):
                            row[verts[j]] = sub_row[j]
    return [[[0] * n if row is None else row for row in S] for S in mats]


def _sweep(sp: _SweepPlan, T: Digraph, left: int | None):
    """The sweep's matrices on all of T, one enumeration per part of the core,
    and what is left of the node budget `left`.  At each map, a root may go
    to the host vertices with the arcs it needs to and from the images of
    its core neighbours.  A row is made when a map first adds to it; a row
    that no map of some part touched is None."""
    n, full, sides = T.n, (1 << T.n) - 1, (T.in_masks, T.out_masks)
    state = _start(sp.plan, T, {})
    if state is None:  # a part's clique has more vertices than T
        return [[None] * n for _ in sp.roots], left
    classes, images = state
    totals: list[list[list[int] | None]] | None = None
    for i, part in enumerate(sp.plan.parts):
        mats: list[list[list[int] | None]] = [[None] * n for _ in sp.roots]
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
                        if row is None:
                            row = S[x] = [0] * n
                        for y in ys:
                            row[y] += 1

        # with no pins, the classes are the parts, each with every host vertex
        search = _search(sp.plan, T, _ENUM, images, [([classes[i]], part)], left)
        _, used = _finish(search, add)
        if left is not None:
            left -= used
        if totals is None:
            totals = mats
            continue
        for total, S in zip(totals, mats):
            for x, (tx, sx) in enumerate(zip(total, S)):
                if tx is not None:
                    total[x] = None if sx is None else list(map(mul, tx, sx))
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
