"""Host tournament construction and the provenance atlas."""

import pytest

from tournhom.digraphs import Tournament, induced_subdigraph, transitive_tournament
from tournhom.gadgets import toy_family
from tournhom.hosts import (
    HostAtlas,
    build_host,
    cycle_graph,
    edge_sort_key,
    parse_simple_graph,
    path_graph,
    save_simple_graph,
    single_edge_graph,
    load_simple_graph,
    SimpleGraph,
)


class TestEdgeOrder:
    def test_equal_sums_compare_first(self):
        assert edge_sort_key((2, 3)) > edge_sort_key((1, 4))

    def test_sum_dominates(self):
        assert edge_sort_key((2, 3)) > edge_sort_key((0, 1))

    def test_irreflexive(self):
        assert not edge_sort_key((1, 2)) > edge_sort_key((1, 2))

    def test_total_on_distinct(self):
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
        assert len({edge_sort_key(e) for e in edges}) == len(edges)


class TestSimpleGraphFormat:
    def test_round_trip(self, tmp_path):
        g = cycle_graph(5)
        save_simple_graph(tmp_path / "g.txt", g)
        assert load_simple_graph(tmp_path / "g.txt") == g

    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(5),
            single_edge_graph(),
            path_graph(7),
            SimpleGraph(4, frozenset()),
            SimpleGraph(0, frozenset()),
            SimpleGraph(12, frozenset([(7, 11), (0, 9), (3, 4), (0, 2), (5, 10), (2, 3), (1, 11)])),
        ],
        ids=["cycle5", "edge", "path7", "edgeless", "empty", "unsorted12"],
    )
    def test_writes_one_line_per_edge_in_order(self, tmp_path, g):
        save_simple_graph(tmp_path / "g.txt", g)
        expected = f"digraph {g.n}\n" + "".join(f"{a} {b}\n" for a, b in sorted(g.edges))
        assert (tmp_path / "g.txt").read_bytes() == expected.encode()
        assert load_simple_graph(tmp_path / "g.txt") == g

    def test_cycle_text(self, tmp_path):
        save_simple_graph(tmp_path / "g.txt", cycle_graph(5))
        assert (tmp_path / "g.txt").read_text() == "digraph 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"

    def test_rejects_high_low(self):
        with pytest.raises(ValueError, match="low high"):
            parse_simple_graph("digraph 3\n2 1\n")

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_simple_graph("digraph 3\n1 2\n1 2\n")


class TestBlock:
    """One block: build_host with a one-gadget family and multiplicity 1."""

    @staticmethod
    def block(G):
        return build_host(G, toy_family(3, (2,)), [1])

    def test_single_edge_size_and_validity(self):
        host, atlas = self.block(single_edge_graph())
        assert isinstance(host, Tournament) and host.n == 2 + 6
        cell = atlas.blocks[0].cells[0]
        assert cell.edge == (0, 1)
        assert cell.left == (2, 3, 4) and cell.right == (5, 6, 7)

    def test_edgeless_graph_gives_transitive_base(self):
        host, atlas = self.block(SimpleGraph(4, frozenset()))
        assert host == transitive_tournament(4)
        assert atlas.blocks[0].cells == ()

    def test_path_cell_order(self):
        # edges (0,1) and (1,2): the (1,2) cell beats the (0,1) cell
        host, atlas = self.block(path_graph(3))
        assert host.n == 3 + 2 * 6
        cells = {c.edge: c for c in atlas.blocks[0].cells}
        low = cells[(0, 1)].left + cells[(0, 1)].right
        high = cells[(1, 2)].left + cells[(1, 2)].right
        for u in high:
            for v in low:
                assert host.has_arc(u, v)

    def test_base_points_at_foreign_cells(self):
        host, atlas = self.block(path_graph(3))
        cells = {c.edge: c for c in atlas.blocks[0].cells}
        for v in cells[(1, 2)].left + cells[(1, 2)].right:
            assert host.has_arc(0, v)  # base vertex 0 is not an endpoint of (1,2)

    def test_left_beats_right_within_cell(self):
        host, atlas = self.block(single_edge_graph())
        cell = atlas.blocks[0].cells[0]
        for u in cell.left:
            for v in cell.right:
                assert host.has_arc(u, v)


class TestHost:
    def test_single_block_equals_block(self):
        # each block of a stacked host is the one-block host, shifted
        fam = toy_family(3, (2,))
        block, atlas = build_host(path_graph(3), fam, [1])
        assert atlas.blocks[0].i == 1 and atlas.blocks[0].k == 1
        host, _ = build_host(path_graph(3), fam, [2])
        size = block.n
        for start in (0, size):
            assert induced_subdigraph(host, range(start, start + size)) == block

    def test_two_copies_cross_arcs(self):
        fam = toy_family(3, (2,))
        host, atlas = build_host(single_edge_graph(), fam, [2])
        assert host.n == 16
        for u in range(8):
            for v in range(8, 16):
                assert host.has_arc(u, v)

    def test_two_gadget_block_order(self):
        fam = toy_family(3, (2, 1))
        host, atlas = build_host(single_edge_graph(), fam, [1, 1])
        assert [(b.i, b.k) for b in atlas.blocks] == [(1, 1), (2, 1)]
        for u in range(8):
            for v in range(8, 16):
                assert host.has_arc(u, v)

    def test_size_formula(self):
        fam = toy_family(3, (2, 1))
        host, _ = build_host(cycle_graph(5), fam, [2, 1])
        per_block = 5 + 5 * 6
        assert host.n == 3 * per_block

    def test_multiplicity_validation(self):
        fam = toy_family(3, (2,))
        with pytest.raises(ValueError):
            build_host(single_edge_graph(), fam, [1, 1])
        with pytest.raises(ValueError):
            build_host(single_edge_graph(), fam, [0])


class TestAtlas:
    def test_roles(self):
        fam = toy_family(3, (2,))
        host, atlas = build_host(single_edge_graph(), fam, [1])
        [block] = atlas.blocks
        [cell] = block.cells
        assert 0 in block.base
        assert 2 in cell.left and cell.edge == (0, 1)
        assert 5 in cell.right
        # each host vertex has exactly one role
        roles = [*block.base, *cell.left, *cell.right]
        assert sorted(roles) == list(range(host.n))

    def test_base_edge_pairs_by_index(self):
        fam = toy_family(3, (2, 1))
        host, atlas = build_host(single_edge_graph(), fam, [2, 1])
        assert atlas.base_edge_pairs(1) == {(0, 1), (8, 9)}
        assert atlas.base_edge_pairs(2) == {(16, 17)}

    def test_json_round_trip(self, tmp_path):
        fam = toy_family(3, (2,))
        _, atlas = build_host(path_graph(3), fam, [1])
        atlas.save(tmp_path / "atlas.json")
        assert HostAtlas.load(tmp_path / "atlas.json") == atlas

    @pytest.mark.parametrize(
        "G", [SimpleGraph(4, frozenset()), single_edge_graph(), path_graph(3), cycle_graph(5)],
        ids=["edgeless", "edge", "path3", "cycle5"],
    )
    @pytest.mark.parametrize("r", [(1,), (2,), (1, 1), (2, 1)])
    def test_the_atlas_is_its_inputs(self, G, r):
        fam = toy_family(3, (2, 1)[: len(r)])
        host, built = build_host(G, fam, list(r))
        atlas = HostAtlas(G, 3, r)
        assert HostAtlas.from_json(atlas.to_json()) == atlas == built
        assert atlas.to_json() == {"m": 3, "r": list(r), "n": G.n,
                                   "edges": [list(e) for e in sorted(G.edges)]}
        assert atlas.order == host.n
        # every host vertex has exactly one role across all blocks
        roles = [v for b in atlas.blocks for c in b.cells for v in (*c.left, *c.right)]
        roles += [v for b in atlas.blocks for v in b.base]
        assert sorted(roles) == list(range(host.n))
        assert [(b.i, b.k) for b in atlas.blocks] == [
            (i, k) for i, ri in enumerate(r, start=1) for k in range(1, ri + 1)
        ]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.clear(), "the atlas lacks the field 'm'"),  # a bare KeyError
            (lambda doc: doc.update(m="3"), "the atlas's field 'm' must be an integer"),
            (lambda doc: doc.update(m=0), "m must be positive, got 0"),
            (lambda doc: doc.pop("r"), "the atlas lacks the field 'r'"),
            (lambda doc: doc.update(r=[True]), "field 'r' must be a list of integers"),
            (lambda doc: doc.update(r=[1, 0]), "multiplicities must be a nonempty list"),
            (lambda doc: doc.update(r=[]), "multiplicities must be a nonempty list"),
            (lambda doc: doc.update(n=1.5), "the atlas's field 'n' must be an integer"),
            (lambda doc: doc.update(n=-1), "vertex count must be nonnegative, got -1"),
            (lambda doc: doc.update(edges={}), "field 'edges' must be a list of lists"),
            (lambda doc: doc.update(edges=[0, 1]), "field 'edges' must be a list of lists"),
            (lambda doc: doc.update(edges=[[0, 1, 2]]), "edge (0, 1, 2) invalid for n=3"),
            (lambda doc: doc.update(edges=[[0]]), "edge (0,) invalid for n=3"),
            (lambda doc: doc.update(edges=[[1, 0]]), "edge (1, 0) invalid for n=3"),
            (lambda doc: doc.update(edges=[[1, 3]]), "edge (1, 3) invalid for n=3"),
            (lambda doc: doc["edges"].append([0, 1]), "field 'edges' lists an edge twice"),
        ],
        ids=["empty", "m-str", "m-zero", "no-r", "r-bool", "r-zero", "r-empty", "n-float",
             "n-negative", "edges-object", "edges-flat", "edge-three-ids", "edge-one-id",
             "edge-high-low", "edge-out-of-range", "edge-twice"],
    )
    def test_from_json_names_a_bad_field(self, edit, message):
        _, atlas = build_host(path_graph(3), toy_family(3, (2,)), [1])
        doc = atlas.to_json()
        edit(doc)
        with pytest.raises(ValueError) as err:
            HostAtlas.from_json(doc)
        assert message in str(err.value)

    def test_a_file_of_the_layout_ids_names_a_missing_field(self):
        # the earlier format: every vertex id of every cell, and the edge order
        old = {
            "m": 3,
            "edge_order": [[0, 1]],
            "blocks": [{"i": 1, "k": 1, "base": [0, 1],
                        "cells": [{"edge": [0, 1], "left": [2, 3, 4], "right": [5, 6, 7]}]}],
        }
        with pytest.raises(ValueError, match="the atlas lacks the field 'r'"):
            HostAtlas.from_json(old)
