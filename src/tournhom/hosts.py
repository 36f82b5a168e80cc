"""Host tournaments built from a simple graph and a doubled gadget family.

A block glues one doubled-gadget copy onto every edge of the graph over a
transitive base, orients each cell left-to-right, points the remaining
base vertices at every cell, and orders distinct cells by the edge order.
The full host stacks the per-index blocks with all arcs from earlier to
later blocks.  The tournament constructor re-validates completeness, so a
missed pair in any step aborts construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .digraphs import Tournament
from .gadgets import DoubledGadget, GadgetFamily

__all__ = [
    "SimpleGraph",
    "parse_simple_graph",
    "load_simple_graph",
    "save_simple_graph",
    "single_edge_graph",
    "path_graph",
    "cycle_graph",
    "edge_order_succ",
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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("digraph"):
        raise ValueError("expected 'digraph <n>' header")
    n = int(lines[0].split()[1])
    edges = set()
    for ln in lines[1:]:
        u, v = (int(tok) for tok in ln.split())
        if not u < v:
            raise ValueError(f"undirected edge must be written low high, got {u} {v}")
        if (u, v) in edges:
            raise ValueError(f"duplicate edge ({u}, {v})")
        edges.add((u, v))
    return SimpleGraph(n, frozenset(edges))


def load_simple_graph(path: str | Path) -> SimpleGraph:
    return parse_simple_graph(Path(path).read_text())


def save_simple_graph(path: str | Path, g: SimpleGraph) -> None:
    lines = [f"digraph {g.n}"]
    lines.extend(f"{a} {b}" for a, b in sorted(g.edges))
    Path(path).write_text("\n".join(lines) + "\n")


# -- edge order -----------------------------------------------------------------


def edge_sort_key(edge: tuple[int, int]) -> tuple[int, int]:
    a, b = edge
    return (a + b, a)


def edge_order_succ(e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """True iff e2 strictly succeeds e1: larger endpoint sum, ties by first endpoint."""
    return edge_sort_key(e2) > edge_sort_key(e1)


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

    def role(self, v: int) -> tuple:
        """("base", block) or ("cell", block, edge, "left"|"right")."""
        for block in self.blocks:
            if v in block.base:
                return ("base", block)
            for cell in block.cells:
                if v in cell.left:
                    return ("cell", block, cell.edge, "left")
                if v in cell.right:
                    return ("cell", block, cell.edge, "right")
        raise ValueError(f"vertex {v} not in atlas")

    def base_edge_pairs(self, i: int | None = None) -> set[tuple[int, int]]:
        """Host-id root pairs (tail, head) of blocks with the given gadget index."""
        pairs = set()
        for block in self.blocks:
            if i is not None and block.i != i:
                continue
            pairs.update(cell.edge for cell in block.cells)
        return pairs

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
        blocks = tuple(
            BlockAtlas(
                i=b["i"],
                k=b["k"],
                base=tuple(b["base"]),
                cells=tuple(
                    CellAtlas(
                        edge=tuple(c["edge"]),
                        left=tuple(c["left"]),
                        right=tuple(c["right"]),
                    )
                    for c in b["cells"]
                ),
            )
            for b in doc["blocks"]
        )
        return HostAtlas(
            m=doc["m"],
            blocks=blocks,
            edge_order=tuple(tuple(e) for e in doc["edge_order"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1))

    @staticmethod
    def load(path: str | Path) -> "HostAtlas":
        return HostAtlas.from_json(json.loads(Path(path).read_text()))


# -- construction -------------------------------------------------------------------


def _block_arcs(G: SimpleGraph, dg: DoubledGadget, offset: int) -> tuple[list, BlockAtlas]:
    """Arcs and atlas of one block, vertex ids shifted by offset."""
    n = G.n
    m = dg.m
    edges = sorted(G.edges)
    arcs: list[tuple[int, int]] = []
    # step 1: transitive base, low to high
    for i in range(n):
        for j in range(i + 1, n):
            arcs.append((offset + i, offset + j))
    cell_vertices: dict[tuple[int, int], list[int]] = {}
    cells = []
    gadget_graph = dg.rooted.graph
    z, w = dg.rooted.roots
    for idx, (a, b) in enumerate(edges):
        start = offset + n + idx * 2 * m
        mapping = {z: offset + a, w: offset + b}
        for pos, v in enumerate(dg.left):
            mapping[v] = start + pos
        for pos, v in enumerate(dg.right):
            mapping[v] = start + m + pos
        # step 2: glue the doubled gadget onto the edge
        arcs.extend((mapping[u], mapping[v]) for u, v in gadget_graph.arcs)
        left_ids = tuple(start + pos for pos in range(m))
        right_ids = tuple(start + m + pos for pos in range(m))
        # step 3: orient the two halves of the cell left to right
        arcs.extend((u, v) for u in left_ids for v in right_ids)
        # step 4: every other base vertex points at the whole cell
        cell = left_ids + right_ids
        for x in range(n):
            if x not in (a, b):
                arcs.extend((offset + x, v) for v in cell)
        cell_vertices[(a, b)] = list(cell)
        cells.append(CellAtlas(edge=(offset + a, offset + b), left=left_ids, right=right_ids))
    # step 5: higher-order cells point at lower-order cells
    for e1 in edges:
        for e2 in edges:
            if edge_order_succ(e2, e1):  # e1 succeeds e2
                arcs.extend(
                    (u, v) for u in cell_vertices[e1] for v in cell_vertices[e2]
                )
    atlas = BlockAtlas(
        i=1,
        k=1,
        base=tuple(offset + v for v in range(n)),
        cells=tuple(cells),
    )
    return arcs, atlas


def build_host(
    G: SimpleGraph, family: GadgetFamily, r: list[int]
) -> tuple[Tournament, HostAtlas]:
    """The stacked host: r[i-1] copies of block i, earlier blocks beat later ones."""
    if len(r) != family.s:
        raise ValueError("need one multiplicity per gadget")
    if any(ri < 1 for ri in r):
        raise ValueError("multiplicities must be positive")
    block_size = G.n + G.edge_count * 2 * family.m
    arcs: list[tuple[int, int]] = []
    blocks = []
    spans = []
    offset = 0
    for i, dg in enumerate(family.doubled, start=1):
        for k in range(1, r[i - 1] + 1):
            block_arcs, block = _block_arcs(G, dg, offset)
            arcs.extend(block_arcs)
            blocks.append(
                BlockAtlas(i=i, k=k, base=block.base, cells=block.cells)
            )
            spans.append((offset, offset + block_size))
            offset += block_size
    # all arcs from earlier blocks to later blocks
    for b1 in range(len(spans)):
        for b2 in range(b1 + 1, len(spans)):
            lo1, hi1 = spans[b1]
            lo2, hi2 = spans[b2]
            arcs.extend((u, v) for u in range(lo1, hi1) for v in range(lo2, hi2))
    host = Tournament(offset, arcs)
    atlas = HostAtlas(
        m=family.m,
        blocks=tuple(blocks),
        edge_order=tuple(sorted(G.edges, key=edge_sort_key)),
    )
    return host, atlas
