"""Host tournaments built from a simple graph and a doubled gadget family.

A block glues one doubled-gadget copy onto every edge of the graph over a
transitive base, orients each cell left-to-right, points the remaining
base vertices at every cell, and orders distinct cells by the edge order.
The full host stacks the per-index blocks with all arcs from earlier to
later blocks.  Each vertex's out-arcs are written as one bitmask, and the
tournament constructor re-validates completeness, so a missed pair in any
step aborts construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .digraphs import Digraph, Tournament, read_text_format, save_digraph
from .errors import json_field
from .gadgets import DoubledGadget, GadgetFamily, glue

__all__ = [
    "SimpleGraph",
    "parse_simple_graph",
    "load_simple_graph",
    "save_simple_graph",
    "single_edge_graph",
    "path_graph",
    "cycle_graph",
    "edge_sort_key",
    "CellAtlas",
    "BlockAtlas",
    "HostAtlas",
    "build_host",
]


@dataclass(frozen=True)
class SimpleGraph:
    """Loopless undirected graph; edges are (a, b) pairs with a < b."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        for e in self.edges:
            if len(e) != 2 or not 0 <= e[0] < e[1] < self.n:
                raise ValueError(f"edge {e} invalid for n={self.n}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def single_edge_graph() -> SimpleGraph:
    return SimpleGraph(2, frozenset({(0, 1)}))


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    return SimpleGraph(n, frozenset(edges))


def parse_simple_graph(text: str) -> SimpleGraph:
    """Digraph text format with one line per undirected edge, u < v."""
    n, roots, pairs = read_text_format(text)
    if roots is not None:
        raise ValueError("a simple graph has no roots line")
    edges = set()
    for u, v in pairs:
        if not u < v:
            raise ValueError(f"undirected edge must be written low high, got {u} {v}")
        if (u, v) in edges:
            raise ValueError(f"duplicate edge ({u}, {v})")
        edges.add((u, v))
    return SimpleGraph(n, frozenset(edges))


def load_simple_graph(path: str | Path) -> SimpleGraph:
    return parse_simple_graph(Path(path).read_text())


def save_simple_graph(path: str | Path, g: SimpleGraph) -> None:
    """One line per edge, low end first, in ascending order."""
    save_digraph(path, Digraph(g.n, g.edges))


# -- edge order -----------------------------------------------------------------


def edge_sort_key(edge: tuple[int, int]) -> tuple[int, int]:
    """The edge order: a larger endpoint sum succeeds, ties by first endpoint."""
    a, b = edge
    return (a + b, a)


# -- atlas ------------------------------------------------------------------------


@dataclass(frozen=True)
class CellAtlas:
    edge: tuple[int, int]  # host ids of the glued roots, tail < head
    left: tuple[int, ...]
    right: tuple[int, ...]


@dataclass(frozen=True)
class BlockAtlas:
    i: int  # gadget index, 1-based
    k: int  # copy index, 1-based
    base: tuple[int, ...]
    cells: tuple[CellAtlas, ...]


@dataclass(frozen=True)
class HostAtlas:
    """The role of every vertex of the host of a graph, m and multiplicities r.

    The host stacks r[i-1] copies of block i, gadget by gadget, each at the
    next multiple of the block size.  A block is the graph's base vertices,
    then one cell of 2m vertices per edge in ascending edge order, its left
    half first.  `blocks` and `order` are derived from the inputs, which are
    all that the JSON form keeps.
    """

    graph: SimpleGraph
    m: int
    r: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"the gadget base size m must be positive, got {self.m}")
        if not self.r or min(self.r) < 1:
            raise ValueError("multiplicities must be a nonempty list of positive integers")
        object.__setattr__(self, "r", tuple(self.r))

    @property
    def order(self) -> int:
        """The host's vertex count, read without laying out the blocks."""
        return (self.graph.n + self.graph.edge_count * 2 * self.m) * sum(self.r)

    @cached_property
    def blocks(self) -> tuple[BlockAtlas, ...]:
        """The blocks in host order, laid out on first use, so that a short
        file naming a huge host is refused by `order` before it costs memory."""
        n, m = self.graph.n, self.m
        edges = sorted(self.graph.edges)
        size = n + len(edges) * 2 * m
        blocks = []
        for i, ri in enumerate(self.r, start=1):
            for k in range(1, ri + 1):
                offset = size * len(blocks)
                cells = []
                for idx, (a, b) in enumerate(edges):
                    start = offset + n + idx * 2 * m
                    halves = tuple(range(start, start + m)), tuple(range(start + m, start + 2 * m))
                    cells.append(CellAtlas((offset + a, offset + b), *halves))
                blocks.append(BlockAtlas(i, k, tuple(range(offset, offset + n)), tuple(cells)))
        return tuple(blocks)

    def base_edge_pairs(self, i: int) -> set[tuple[int, int]]:
        """Host-id root pairs (tail, head) of blocks with the given gadget index."""
        return {cell.edge for block in self.blocks if block.i == i for cell in block.cells}

    def to_json(self) -> dict:
        edges = [list(e) for e in sorted(self.graph.edges)]
        return {"m": self.m, "r": list(self.r), "n": self.graph.n, "edges": edges}

    @staticmethod
    def from_json(doc: dict) -> "HostAtlas":
        """The atlas of `to_json`; a missing or mistyped field raises ValueError naming it."""
        m = json_field(doc, "m", int, "the atlas")
        r = json_field(doc, "r", [int], "the atlas")
        n = json_field(doc, "n", int, "the atlas")
        edges = [tuple(e) for e in json_field(doc, "edges", [[int]], "the atlas")]
        if len(set(edges)) != len(edges):
            raise ValueError("the atlas's field 'edges' lists an edge twice")
        return HostAtlas(SimpleGraph(n, frozenset(edges)), m, r)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1))

    @staticmethod
    def load(path: str | Path) -> "HostAtlas":
        return HostAtlas.from_json(json.loads(Path(path).read_text()))


# -- construction -------------------------------------------------------------------


def _block_rows(dg: DoubledGadget, block: BlockAtlas) -> list[int]:
    """Out-masks of one block's vertices, in host order, laid out as its atlas says.

    The doubled gadget's layout (left copy, right copy, z, w) is the one
    `glue` takes, so a cell is the gadget's first 2m vertices, shifted."""
    m, base = dg.m, block.base
    cell = (1 << 2 * m) - 1
    # step 5: higher-order cells point at lower-order cells
    below, lower = {}, 0
    for c in sorted(block.cells, key=lambda c: edge_sort_key(c.edge)):
        below[c.edge] = lower
        lower |= cell << c.left[0]
    # step 1: transitive base, low to high
    rows = {x: (2 << base[-1]) - (2 << x) for x in base}
    cell_rows = []
    for c in block.cells:
        (a, b), start = c.edge, c.left[0]
        # step 2: glue the doubled gadget onto the edge
        *glued, z_row, w_row = glue(dg.rooted.graph.out_masks, start, a, b)
        rows[a] |= z_row
        rows[b] |= w_row
        for x in base:
            if x not in (a, b):  # step 4: every other base vertex points at the whole cell
                rows[x] |= cell << start
        right = ((1 << m) - 1) << start + m  # step 3: the left half points at the right half
        cell_rows += [row | (right if p < m else 0) | below[c.edge] for p, row in enumerate(glued)]
    return [*rows.values(), *cell_rows]


def build_host(
    G: SimpleGraph, family: GadgetFamily, r: list[int]
) -> tuple[Tournament, HostAtlas]:
    """The stacked host: r[i-1] copies of block i, earlier blocks beat later ones."""
    if len(r) != family.s:
        raise ValueError("need one multiplicity per gadget")
    atlas = HostAtlas(G, family.m, r)
    full = (1 << atlas.order) - 1
    out: list[int] = []
    for block in atlas.blocks:
        rows = _block_rows(family.doubled[block.i - 1], block)
        # all arcs from earlier blocks to later blocks
        later = full >> len(out) + len(rows) << len(out) + len(rows)
        out += [row | later for row in rows]
    return Tournament.from_out_masks(atlas.order, out), atlas
