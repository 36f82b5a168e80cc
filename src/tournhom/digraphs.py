"""Core digraph, tournament and quantum-digraph types.

Vertices are dense integers 0..n-1.  A digraph is stored only as big-int
bit masks (bit u of out_mask(v) is set iff the arc (v, u) is present),
which makes neighborhood intersection the cheap primitive the
homomorphism search needs.  Every constructor ends in one core that checks
the out-masks and derives the in-masks from them; the builders here and
in `gadgets` and `hosts` write masks directly.  The arc set `arcs`, the
strong components `strong_components` and the components' relabelled
sub-hosts are derived from the masks on first read.  All types are
immutable after construction.  A quantum digraph keeps its terms as
given, since its density is linear in them.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import json_field

__all__ = [
    "Digraph",
    "Tournament",
    "RootedDigraph",
    "QuantumDigraph",
    "transitive_tournament",
    "random_tournament",
    "disjoint_union",
    "induced_subdigraph",
    "is_acyclic",
    "gather_rows",
    "parse_digraph",
    "read_text_format",
    "format_digraph",
    "load_digraph",
    "save_digraph",
    "load_tournament",
    "load_rooted",
    "load_quantum",
    "save_quantum",
]


class Digraph:
    """A loopless digraph with at most one arc per ordered pair."""

    # weak references let a search keep what it learns of a host only while
    # the host lives
    __slots__ = ("n", "_out", "_in", "_arcs", "_strong", "_hosts", "__weakref__")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        if n > sys.maxsize:  # [0] * n would raise OverflowError
            raise ValueError(f"vertex count n={n} is more than a list can index")
        out = [0] * max(n, 0)
        for u, v in arcs:
            if type(u) is not int or type(v) is not int:
                u, v = int(u), int(v)  # e.g. numpy integers, whose shifts wrap
            # _build finds a loop on the masks; a head past n is refused
            # here, before its shift builds a far bit
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            out[u] |= 1 << v
        self._build(n, out)

    @classmethod
    def from_out_masks(cls, n: int, out: Iterable[int]):
        """The digraph in which bit v of out[u] is set iff (u, v) is an arc."""
        g = cls.__new__(cls)
        g._build(n, out)
        return g

    def _build(self, n: int, out: Iterable[int]) -> None:
        # the one core every constructor runs: it checks the out-masks and
        # derives the in-masks, which it never takes from a caller
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        out = tuple(out)
        if len(out) != n:
            raise ValueError(f"{n} vertices need {n} out-masks, got {len(out)}")
        for u, o in enumerate(out):
            if o >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            if o >> n:  # also true of a negative mask
                v = n + (o >> n & -(o >> n)).bit_length() - 1
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        self.n = n
        self._out = out
        self._in = _transpose(n, out)
        self._arcs = None
        self._strong = None
        self._hosts = None
        self._validate()

    def _validate(self) -> None:
        """Conditions a subclass adds to a loopless digraph's."""

    # -- adjacency access -------------------------------------------------

    def out_mask(self, v: int) -> int:
        return self._out[v]

    def in_mask(self, v: int) -> int:
        return self._in[v]

    @property
    def out_masks(self) -> tuple[int, ...]:
        """out_mask(v) for every vertex v, as one tuple."""
        return self._out

    @property
    def in_masks(self) -> tuple[int, ...]:
        """in_mask(v) for every vertex v, as one tuple."""
        return self._in

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arc set, derived from the masks on first read and kept."""
        if self._arcs is None:
            self._arcs = frozenset(self.sorted_arcs())
        return self._arcs

    @property
    def strong_components(self) -> tuple[int, ...]:
        """The masks of the strong components, ordered by lowest vertex;
        derived from the masks on first read and kept."""
        if self._strong is None:
            self._strong = _strong_components(self.n, self._out, self._in)
        return self._strong

    def _component_hosts(self) -> tuple[tuple[tuple[int, ...], Digraph], ...]:
        """Each strong component: its vertices, ascending, and the subdigraph
        they induce, relabelled in that order.  Components whose relabelled
        out-masks are equal share one sub-host.  Derived on first call and
        kept, so what a search keeps of a sub-host lives as long as this
        digraph."""
        if self._hosts is None:
            subs: dict[tuple[int, ...], Digraph] = {}
            found = []
            for comp in self.strong_components:
                verts = _bits(comp)
                rows = tuple(gather_rows(self, verts))
                if rows not in subs:
                    subs[rows] = Digraph.from_out_masks(len(verts), rows)
                found.append((verts, subs[rows]))
            self._hosts = tuple(found)
        return self._hosts

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self._out)

    def out_degree(self, v: int) -> int:
        return self._out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self._in[v].bit_count()

    def max_out_degree(self) -> int:
        return max((m.bit_count() for m in self._out), default=0)

    def max_in_degree(self) -> int:
        return max((m.bit_count() for m in self._in), default=0)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self._out[u] >> v & 1)

    def sorted_arcs(self) -> list[tuple[int, int]]:
        """Arcs in ascending (u, v) order; the canonical iteration order."""
        us, vs = _arc_arrays(self.n, self._out)
        return list(zip(us.tolist(), vs.tolist()))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        # label-sensitive equality
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, arcs={self.arc_count})"


class Tournament(Digraph):
    """A complete orientation: exactly one arc per unordered vertex pair."""

    __slots__ = ()

    def _validate(self) -> None:
        full = (1 << self.n) - 1
        for u, (o, i) in enumerate(zip(self._out, self._in)):
            # v in both masks: a digon; v in neither: no arc.  The first u with
            # a bad pair has none with a smaller v, which would have failed first
            bad = (o & i) | (full ^ 1 << u) & ~(o | i)
            if bad:
                v = (bad & -bad).bit_length() - 1
                kind = "double orientation" if (o & i) >> v & 1 else "missing arc"
                raise ValueError(f"{kind} on pair ({u}, {v})")


def _arc_arrays(n: int, out: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The arcs (u, v) of the out-masks as two arrays, in ascending order.

    The masks are laid out as rows of 64-bit words; only the nonzero words
    are unpacked, so a sparse graph costs its words plus its arcs.
    """
    words = (n + 63) >> 6
    rows = np.frombuffer(b"".join(o.to_bytes(8 * words, "little") for o in out), dtype="<u8")
    where = np.flatnonzero(rows)
    hits = np.flatnonzero(np.unpackbits(rows[where].view(np.uint8), bitorder="little"))
    us, word = np.divmod(where[hits >> 6], words)
    return us, word << 6 | hits & 63


def _strong_components(n: int, out: tuple[int, ...], ins: tuple[int, ...]) -> tuple[int, ...]:
    """Kosaraju's algorithm on the masks, without recursion.

    A depth-first search along the out-masks lists the vertices as they
    finish.  Taken latest finish first, each vertex not yet placed starts
    a component: the unplaced vertices that reach it along the in-masks.
    """
    finished: list[int] = []
    unseen = (1 << n) - 1
    while unseen:
        b = unseen & -unseen
        unseen ^= b
        stack = [b.bit_length() - 1]
        while stack:
            nxt = out[stack[-1]] & unseen
            if nxt:
                b = nxt & -nxt
                unseen ^= b
                stack.append(b.bit_length() - 1)
            else:
                finished.append(stack.pop())
    comps = []
    left = (1 << n) - 1
    for v in reversed(finished):
        if not left >> v & 1:
            continue
        comp = frontier = 1 << v
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = ins[b.bit_length() - 1] & left & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        left ^= comp
    return tuple(sorted(comps, key=lambda c: c & -c))


_TRANSPOSE_WORDS = 1 << 14  # mask words unpacked at once, which bounds the arc arrays


def _transpose(n: int, out: tuple[int, ...]) -> tuple[int, ...]:
    """The in-masks of the out-masks: bit u of the v-th is bit v of out[u]."""
    words = (n + 63) >> 6
    cols = np.zeros(n * words, dtype="<u8")
    step = max(1, _TRANSPOSE_WORDS // max(words, 1))
    for lo in range(0, n, step):
        us, vs = _arc_arrays(n, out[lo : lo + step])
        us += lo
        # arcs into one word of a column set distinct bits, so adding is OR-ing
        bits = np.left_shift(np.uint64(1), (us & 63).astype(np.uint64))
        np.add.at(cols, vs * words + (us >> 6), bits)
    data = memoryview(cols.tobytes())
    size = 8 * words
    return tuple(int.from_bytes(data[v * size : (v + 1) * size], "little") for v in range(n))


@dataclass(frozen=True)
class RootedDigraph:
    """A digraph with an ordered pair of distinguished root vertices."""

    graph: Digraph
    roots: tuple[int, int]

    def __post_init__(self):
        z, w = self.roots
        if not (0 <= z < self.graph.n and 0 <= w < self.graph.n):
            raise ValueError(f"roots {self.roots} out of range")
        if z == w:
            raise ValueError("roots must be distinct")

    @property
    def z(self) -> int:
        return self.roots[0]

    @property
    def w(self) -> int:
        return self.roots[1]

    def roots_nonadjacent(self) -> bool:
        z, w = self.roots
        return not (self.graph.has_arc(z, w) or self.graph.has_arc(w, z))


@dataclass(frozen=True)
class QuantumDigraph:
    """A finite formal rational combination of digraphs: its (coefficient,
    digraph) terms as given, neither merged nor reordered."""

    terms: tuple[tuple[Fraction, Digraph], ...]

    @staticmethod
    def of(terms: Iterable[tuple[Fraction | int, Digraph]]) -> "QuantumDigraph":
        return QuantumDigraph(tuple((Fraction(c), g) for c, g in terms))


# -- constructors ----------------------------------------------------------


def transitive_tournament(n: int) -> Tournament:
    """The tournament with arc (i, j) iff i < j."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    full = (1 << n) - 1
    return Tournament.from_out_masks(n, [full >> i + 1 << i + 1 for i in range(n)])


def random_tournament(n: int, seed: int) -> Tournament:
    """Orient each pair independently with probability 1/2; pure in (n, seed)."""
    return _draw_tournament(random.Random(seed), n)


def _draw_tournament(rng: random.Random, n: int) -> Tournament:
    out = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return Tournament.from_out_masks(n, out)


def disjoint_union(*graphs: Digraph) -> Digraph:
    """Concatenate vertex sets in order, shifting each graph's labels by the
    vertex count of the graphs before it."""
    out: list[int] = []
    for g in graphs:
        shift = len(out)
        out += [o << shift for o in g.out_masks]
    return Digraph.from_out_masks(len(out), out)


def induced_subdigraph(g: Digraph, vertices: Iterable[int]) -> Digraph:
    """Restrict to a vertex subset, relabeled 0..k-1 in ascending order."""
    sub = sorted(set(vertices))
    for v in sub:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    return Digraph.from_out_masks(len(sub), gather_rows(g, sub))


def gather_rows(g: Digraph, order: Sequence[int]) -> list[int]:
    """The out-masks of the vertices in `order`, relabelled so that order[i]
    becomes i; arcs to vertices outside `order` are dropped.

    The bits move one run of consecutive labels at a time, so a few long
    runs cost a few shifts per row."""
    runs: list[list[int]] = []  # [first label, length, new label of the first]
    for i, v in enumerate(order):
        if runs and v == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([v, 1, i])
    # the runs land on disjoint bits, so their sum is their union
    return [
        sum((g.out_mask(v) >> first & (1 << length) - 1) << at for first, length, at in runs)
        for v in order
    ]


def is_acyclic(g: Digraph) -> bool:
    """True iff g has a topological order (Kahn's algorithm)."""
    indeg = [g.in_degree(v) for v in range(g.n)]
    stack = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for u in _bits(g.out_mask(v)):
            indeg[u] -= 1
            if indeg[u] == 0:
                stack.append(u)
    return seen == g.n


# -- text format -----------------------------------------------------------
#
# line 1: "digraph <n>"; optional "roots <z> <w>"; then one arc "u v" per line.


def format_digraph(g: Digraph, roots: tuple[int, int] | None = None) -> str:
    lines = [f"digraph {g.n}"]
    if roots is not None:
        lines.append(f"roots {roots[0]} {roots[1]}")
    lines.extend(f"{u} {v}" for u, v in g.sorted_arcs())
    return "\n".join(lines) + "\n"


def parse_digraph(text: str) -> tuple[Digraph, tuple[int, int] | None]:
    n, roots, pairs = read_text_format(text)
    return Digraph(n, pairs), roots


def read_text_format(text: str) -> tuple[int, tuple[int, int] | None, list[tuple[int, int]]]:
    """The vertex count, the roots if given, and the pairs of a digraph text.

    One pass splits each line once; a malformed line raises ValueError
    naming its number."""
    numbered = enumerate(map(str.split, text.splitlines()), 1)
    lines = ((number, tokens) for number, tokens in numbered if tokens)
    header = next(lines, None)
    if header is None or header[1][0] != "digraph":
        raise ValueError("expected 'digraph <n>' header")
    (n,) = _int_fields(header, "digraph <n>")
    roots, pairs = None, []
    for line in lines:
        try:
            u, v = line[1]
            pairs.append((int(u), int(v)))
        except ValueError:
            # the line after the header may be the roots line, which never reads as a pair
            if line[1][0] != "roots" or roots is not None or pairs:
                _int_fields(line, "<u> <v>")  # raises, naming the line
            z, w = _int_fields(line, "roots <z> <w>")
            roots = (z, w)
    return n, roots, pairs


def _int_fields(line: tuple[int, list[str]], form: str) -> list[int]:
    """The integer fields of a numbered line that must read `form`."""
    number, tokens = line
    words = form.split()
    try:
        if len(tokens) == len(words):
            return [int(tok) for tok, word in zip(tokens, words) if word[0] == "<"]
    except ValueError:
        pass
    raise ValueError(f"line {number}: expected {form!r}, got {' '.join(tokens)!r}")


def load_digraph(path: str | Path) -> Digraph:
    g, _ = parse_digraph(Path(path).read_text())
    return g


def save_digraph(path: str | Path, g: Digraph, roots: tuple[int, int] | None = None) -> None:
    Path(path).write_text(format_digraph(g, roots))


def load_tournament(path: str | Path) -> Tournament:
    n, _, pairs = read_text_format(Path(path).read_text())
    return Tournament(n, pairs)


def load_rooted(path: str | Path) -> RootedDigraph:
    g, roots = parse_digraph(Path(path).read_text())
    if roots is None:
        raise ValueError(f"{path}: no roots line")
    return RootedDigraph(g, roots)


# -- quantum digraph JSON ----------------------------------------------------
#
# {"terms": [{"coef": "<num>/<den>", "graph": "<path-or-inline>"}], ...}
# A graph string starting with "digraph" is inline; anything else is a path
# resolved relative to the JSON file.  An optional "meta" block may carry
# evaluator hints; it is ignored by the loader here.


def _coef_to_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def save_quantum(path: str | Path, q: QuantumDigraph, meta: dict | None = None) -> None:
    doc: dict = {
        "terms": [
            {"coef": _coef_to_str(c), "graph": format_digraph(g)} for c, g in q.terms
        ]
    }
    if meta is not None:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=1))


def load_quantum(path: str | Path, doc: object = None) -> QuantumDigraph:
    """Read a quantum digraph file, or `doc`, its parsed JSON, if given."""
    path = Path(path)
    if doc is None:
        doc = json.loads(path.read_text())
    terms = []
    owner = f"a term of {path}"
    for t in json_field(doc, "terms", [dict], str(path)):
        # a float is refused: it would be read as its binary expansion
        coef = json_field(t, "coef", (int, str), owner)
        try:
            coef = Fraction(coef)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"{owner}'s field 'coef' must be an exact rational such as \"1/10\", got {coef!r}"
            ) from None
        spec = json_field(t, "graph", str, owner)
        if spec.lstrip().startswith("digraph"):
            g, _ = parse_digraph(spec)
        else:
            g = load_digraph(path.parent / spec)
        terms.append((coef, g))
    return QuantumDigraph(tuple(terms))


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)
