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
        for a, b in self.edges:
            if not (0 <= a < b < self.n):
                raise ValueError(f"edge ({a}, {b}) invalid for n={self.n}")

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
    m: int
    blocks: tuple[BlockAtlas, ...]
    edge_order: tuple[tuple[int, int], ...]  # base-local edges, ascending under the order

    def base_edge_pairs(self, i: int) -> set[tuple[int, int]]:
        """Host-id root pairs (tail, head) of blocks with the given gadget index."""
        return {cell.edge for block in self.blocks if block.i == i for cell in block.cells}

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "edge_order": [list(e) for e in self.edge_order],
            "blocks": [
                {
                    "i": b.i,
                    "k": b.k,
                    "base": list(b.base),
                    "cells": [
                        {
                            "edge": list(c.edge),
                            "left": list(c.left),
                            "right": list(c.right),
                        }
                        for c in b.cells
                    ],
                }
                for b in self.blocks
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "HostAtlas":
        """The atlas of `to_json`; a missing or mistyped field raises ValueError naming it."""

        def ints(d: dict, key: str, owner: str) -> tuple[int, ...]:
            return tuple(json_field(d, key, [int], owner))

        def pair(d: dict, key: str, owner: str) -> tuple[int, int]:
            value = ints(d, key, owner)
            if len(value) != 2:
                raise ValueError(f"{owner}'s field {key!r} must be a pair of vertex ids")
            return value

        blocks = tuple(
            BlockAtlas(
                i=json_field(b, "i", int, "an atlas block"),
                k=json_field(b, "k", int, "an atlas block"),
                base=ints(b, "base", "an atlas block"),
                cells=tuple(
                    CellAtlas(
                        edge=pair(c, "edge", "an atlas cell"),
                        left=ints(c, "left", "an atlas cell"),
                        right=ints(c, "right", "an atlas cell"),
                    )
                    for c in json_field(b, "cells", [dict], "an atlas block")
                ),
            )
            for b in json_field(doc, "blocks", [dict], "the atlas")
        )
        return HostAtlas(
            m=json_field(doc, "m", int, "the atlas"),
            blocks=blocks,
            edge_order=tuple(tuple(e) for e in json_field(doc, "edge_order", [[int]], "the atlas")),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1))

    @staticmethod
    def load(path: str | Path) -> "HostAtlas":
        return HostAtlas.from_json(json.loads(Path(path).read_text()))


# -- construction -------------------------------------------------------------------


def _block_rows(
    G: SimpleGraph, dg: DoubledGadget, offset: int, i: int, k: int
) -> tuple[list[int], BlockAtlas]:
    """Out-masks and atlas of one block, vertex ids shifted by offset.

    The doubled gadget's layout (left copy, right copy, z, w) is the one
    `glue` takes, so a cell is the gadget's first 2m vertices, shifted."""
    n, m = G.n, dg.m
    edges = sorted(G.edges)
    cell = (1 << 2 * m) - 1
    starts = {e: offset + n + idx * 2 * m for idx, e in enumerate(edges)}
    # step 5: higher-order cells point at lower-order cells
    below, lower = {}, 0
    for e in sorted(edges, key=edge_sort_key):
        below[e] = lower
        lower |= cell << starts[e]
    # step 1: transitive base, low to high
    rows = [((1 << n) - 1) >> x + 1 << offset + x + 1 for x in range(n)]
    cells = []
    for (a, b), start in starts.items():
        # step 2: glue the doubled gadget onto the edge
        *glued, z_row, w_row = glue(dg.rooted.graph.out_masks, start, offset + a, offset + b)
        rows[a] |= z_row
        rows[b] |= w_row
        for x in range(n):
            if x not in (a, b):  # step 4: every other base vertex points at the whole cell
                rows[x] |= cell << start
        right = ((1 << m) - 1) << start + m  # step 3: the left half points at the right half
        rows += [row | (right if p < m else 0) | below[(a, b)] for p, row in enumerate(glued)]
        halves = tuple(range(start, start + m)), tuple(range(start + m, start + 2 * m))
        cells.append(CellAtlas((offset + a, offset + b), *halves))
    atlas = BlockAtlas(i=i, k=k, base=tuple(range(offset, offset + n)), cells=tuple(cells))
    return rows, atlas


def build_host(
    G: SimpleGraph, family: GadgetFamily, r: list[int]
) -> tuple[Tournament, HostAtlas]:
    """The stacked host: r[i-1] copies of block i, earlier blocks beat later ones."""
    if len(r) != family.s:
        raise ValueError("need one multiplicity per gadget")
    if any(ri < 1 for ri in r):
        raise ValueError("multiplicities must be positive")
    block_size = G.n + G.edge_count * 2 * family.m
    full = (1 << block_size * sum(r)) - 1
    out: list[int] = []
    blocks = []
    for i, dg in enumerate(family.doubled, start=1):
        for k in range(1, r[i - 1] + 1):
            rows, block = _block_rows(G, dg, len(out), i, k)
            # all arcs from earlier blocks to later blocks
            later = full >> len(out) + block_size << len(out) + block_size
            out += [row | later for row in rows]
            blocks.append(block)
    host = Tournament.from_out_masks(len(out), out)
    atlas = HostAtlas(
        m=family.m,
        blocks=tuple(blocks),
        edge_order=tuple(sorted(G.edges, key=edge_sort_key)),
    )
    return host, atlas
