"""Core digraph/tournament type behaviour and serialization."""

import json
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tournhom import digraphs
from tournhom.digraphs import (
    Digraph,
    QuantumDigraph,
    RootedDigraph,
    Tournament,
    disjoint_union,
    format_digraph,
    induced_subdigraph,
    is_acyclic,
    load_quantum,
    load_rooted,
    load_tournament,
    parse_digraph,
    random_tournament,
    save_digraph,
    transitive_tournament,
)

CYCLE3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def tournaments_strategy(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, 2**30).map(lambda s: random_tournament(n, s))
    )


class TestDigraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph(2, [(0, 5)])

    def test_adjacency_views_match_arcs(self):
        g = Digraph(4, [(0, 1), (0, 2), (3, 0)])
        assert g.out_mask(0) == 0b0110 and g.out_masks[0] == g.out_mask(0)
        assert g.in_mask(0) == 0b1000 and g.in_masks[0] == g.in_mask(0)
        assert g.out_degree(0) == 2 and g.in_degree(0) == 1
        assert g.has_arc(3, 0) and not g.has_arc(0, 3)

    def test_equality_is_label_sensitive(self):
        a = Digraph(2, [(0, 1)])
        b = Digraph(2, [(1, 0)])
        assert a != b
        assert a == Digraph(2, [(0, 1)])


class TestMakeTournament:
    """Making a tournament from its arc set: `Tournament(n, arcs)`."""

    def test_single_pair(self):
        t = Tournament(2, {(0, 1)})
        assert t.has_arc(0, 1)

    def test_cyclic_triangle_is_valid(self):
        t = Tournament(3, {(0, 1), (1, 2), (2, 0)})
        assert len(t.arcs) == 3

    def test_double_orientation_names_pair(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            Tournament(3, {(0, 1), (1, 0), (1, 2), (2, 0)})

    def test_missing_pair_names_pair(self):
        with pytest.raises(ValueError, match=r"missing arc on pair \(0, 2\)"):
            Tournament(3, {(0, 1), (1, 2)})

    @pytest.mark.parametrize(
        "digons, missing, message",
        [
            ([(4, 2)], [(3, 1)], "missing arc on pair (1, 3)"),
            ([(4, 0)], [(0, 2), (1, 3)], "missing arc on pair (0, 2)"),
            ([(2, 1), (4, 3)], [(1, 4)], "double orientation on pair (1, 2)"),
            ([(3, 2), (4, 0)], [(2, 4)], "double orientation on pair (0, 4)"),
            ([(4, 3)], [], "double orientation on pair (3, 4)"),
        ],
    )
    def test_first_bad_pair_in_lexicographic_order(self, digons, missing, message):
        # the transitive tournament on 5 vertices with arcs added and removed
        arcs = {(u, v) for u in range(5) for v in range(u + 1, 5)}
        arcs |= set(digons)
        arcs -= {(min(p), max(p)) for p in missing}
        with pytest.raises(ValueError) as err:
            Tournament(5, arcs)
        assert str(err.value) == message


class TestTransitiveTournament:
    def test_n1_empty(self):
        assert transitive_tournament(1).arcs == frozenset()

    def test_n3_definition(self):
        assert transitive_tournament(3).arcs == {(0, 1), (0, 2), (1, 2)}

    def test_n4_acyclic(self):
        assert is_acyclic(transitive_tournament(4))


class TestRandomTournament:
    def test_deterministic_in_seed(self):
        assert random_tournament(5, 7) == random_tournament(5, 7)

    def test_handshake_identity(self):
        t = random_tournament(1000, 3)
        assert sum(t.out_degree(v) for v in range(1000)) == 1000 * 999 // 2

    def test_different_seeds_both_valid(self):
        a = random_tournament(5, 7)
        b = random_tournament(5, 8)
        assert isinstance(a, Tournament) and isinstance(b, Tournament)


class TestDisjointUnion:
    def test_arc_shift(self):
        arc = Digraph(2, [(0, 1)])
        u = disjoint_union(arc, arc)
        assert u.n == 4 and u.arcs == {(0, 1), (2, 3)}

    def test_empty_identity(self):
        g = CYCLE3
        assert disjoint_union(g, Digraph(0, [])) == g

    @given(st.integers(0, 2**30), st.integers(0, 2**30), st.integers(0, 2**30))
    @settings(max_examples=25)
    def test_counts_add_and_associative(self, s1, s2, s3):
        a, b, c = (random_tournament(3, s) for s in (s1, s2, s3))
        u = disjoint_union(disjoint_union(a, b), c)
        v = disjoint_union(a, disjoint_union(b, c))
        assert u.n == a.n + b.n + c.n
        assert len(u.arcs) == len(a.arcs) + len(b.arcs) + len(c.arcs)
        assert u == v  # same labels either way for this layout


class TestInducedSubdigraph:
    def test_triangle_pair(self):
        sub = induced_subdigraph(CYCLE3, {0, 1})
        assert sub.n == 2 and sub.arcs == {(0, 1)}

    def test_full_subset_identity(self):
        assert induced_subdigraph(CYCLE3, {0, 1, 2}) == CYCLE3

    def test_transitive_relabel(self):
        sub = induced_subdigraph(transitive_tournament(4), {1, 3})
        assert sub.arcs == {(0, 1)}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subdigraph(CYCLE3, {0, 9})


class TestIsAcyclic:
    def test_transitive_true(self):
        assert is_acyclic(transitive_tournament(5))

    def test_cycle_false(self):
        assert not is_acyclic(CYCLE3)

    def test_empty_true(self):
        assert is_acyclic(Digraph(3, []))

    @given(tournaments_strategy())
    @settings(max_examples=30)
    def test_acyclic_tournaments_are_transitive(self, t):
        if is_acyclic(t):
            order = sorted(range(t.n), key=lambda v: -t.out_degree(v))
            for i, u in enumerate(order):
                for v in order[i + 1 :]:
                    assert t.has_arc(u, v)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        save_digraph(path, CYCLE3)
        g, roots = parse_digraph(path.read_text())
        assert g == CYCLE3 and roots is None

    def test_roots_round_trip(self, tmp_path):
        path = tmp_path / "r.txt"
        save_digraph(path, CYCLE3, roots=(0, 2))
        r = load_rooted(path)
        assert r.roots == (0, 2) and r.graph == CYCLE3

    def test_tournament_load_validates(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("digraph 3\n0 1\n1 2\n")
        with pytest.raises(ValueError, match="missing arc"):
            load_tournament(path)

    def test_format_is_lf_terminated_and_sorted(self):
        text = format_digraph(Digraph(3, [(2, 0), (0, 1)]))
        assert text == "digraph 3\n0 1\n2 0\n"


class TestQuantumDigraph:
    def test_json_round_trip_inline(self, tmp_path):
        q = QuantumDigraph.of([(1, CYCLE3), (-2, Digraph(2, [(0, 1)]))])
        path = tmp_path / "q.json"
        terms = [{"coef": str(c), "graph": format_digraph(g)} for c, g in q.terms]
        path.write_text(json.dumps({"terms": terms}))
        assert load_quantum(path) == q

    def test_json_graph_by_path(self, tmp_path):
        save_digraph(tmp_path / "c3.txt", CYCLE3)
        (tmp_path / "q.json").write_text(
            '{"terms": [{"coef": "1/3", "graph": "c3.txt"}]}'
        )
        q = load_quantum(tmp_path / "q.json")
        assert q.terms[0][1] == CYCLE3

    @pytest.mark.parametrize(
        "coef, value", [(3, Fraction(3)), ("-1/10", Fraction(-1, 10)), ("0.1", Fraction(1, 10))]
    )
    def test_json_coefficients_are_exact(self, tmp_path, coef, value):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"terms": [{"coef": coef, "graph": "digraph 1"}]}))
        assert load_quantum(path).terms == ((value, Digraph(1, [])),)

    def test_json_float_coefficient_is_refused(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"terms": [{"coef": 0.1, "graph": "digraph 1"}]}))
        with pytest.raises(ValueError, match="field 'coef' must be an integer or a string"):
            load_quantum(path)


class TestRootedDigraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            RootedDigraph(CYCLE3, (1, 1))
        with pytest.raises(ValueError):
            RootedDigraph(CYCLE3, (0, 5))

    def test_roots_nonadjacent(self):
        assert not RootedDigraph(CYCLE3, (0, 1)).roots_nonadjacent()
        g = Digraph(4, [(0, 2), (2, 1), (3, 0)])
        assert RootedDigraph(g, (0, 1)).roots_nonadjacent()


# -- the mask store against a reference built from plain sets ---------------------


class _Reference:
    """A digraph kept as a set of arc tuples and successor/predecessor dicts,
    built with no code of the package."""

    def __init__(self, n, arcs):
        self.n = n
        self.arcs = {(u, v) for u, v in arcs}
        self.succ = {v: set() for v in range(n)}
        self.pred = {v: set() for v in range(n)}
        for u, v in self.arcs:
            self.succ[u].add(v)
            self.pred[v].add(u)

    def masks(self, side):
        return tuple(sum(1 << u for u in side[v]) for v in range(self.n))

    def text(self):
        return "".join(f"{u} {v}\n" for u, v in sorted(self.arcs))

    def first_bad_pair(self):
        for u in range(self.n):
            for v in range(u + 1, self.n):
                present = ((u, v) in self.arcs) + ((v, u) in self.arcs)
                if present != 1:
                    kind = "double orientation" if present else "missing arc"
                    return f"{kind} on pair ({u}, {v})"
        return None


@st.composite
def arc_lists(draw, max_n=150):
    """(n, arcs): loopless arcs on 0..n-1 at a drawn density, in random
    order, a quarter of them twice; n reaches past two 64-bit words of a mask."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from([0.02, 0.2, 0.5, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    rng.shuffle(arcs)
    return n, arcs + arcs[: len(arcs) // 4]


class TestMaskStoreAgainstReference:
    @given(arc_lists())
    @settings(max_examples=100, deadline=None)
    def test_views_and_text(self, case):
        n, arcs = case
        g, ref = Digraph(n, arcs), _Reference(n, arcs)
        assert g.arcs == ref.arcs and type(g.arcs) is frozenset
        assert g.out_masks == ref.masks(ref.succ)
        assert g.in_masks == ref.masks(ref.pred)
        assert g.sorted_arcs() == sorted(ref.arcs)
        assert g.arc_count == len(ref.arcs)
        assert format_digraph(g) == f"digraph {n}\n" + ref.text()
        assert Digraph.from_out_masks(n, ref.masks(ref.succ)) == g

    @given(arc_lists(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_in_masks_from_blocks_of_rows(self, case, words):
        # a budget of a few mask words splits the transpose into many blocks
        n, arcs = case
        with mock.patch.object(digraphs, "_TRANSPOSE_WORDS", words):
            g = Digraph(n, arcs)
        ref = _Reference(n, arcs)
        assert g.in_masks == ref.masks(ref.pred)

    def test_transpose_peak_is_bounded(self):
        # 4.5 M arcs: their arc arrays, made all at once, peaked at 173 MB
        n = 3000
        out = [((1 << n) - 1) >> u + 1 << u + 1 for u in range(n)]
        tracemalloc.start()
        try:
            t = Tournament.from_out_masks(n, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.in_masks == tuple((1 << v) - 1 for v in range(n))
        assert peak < 96 * 2**20, f"peak {peak / 2**20:.0f} MB"

    @given(arc_lists(max_n=70), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_equality_and_hash_under_relabelling(self, case, seed):
        n, arcs = case
        rng = random.Random(seed)
        perm = list(range(n))
        rng.shuffle(perm)
        g = Digraph(n, arcs)
        moved_arcs = [(perm[u], perm[v]) for u, v in arcs]
        moved = Digraph(n, moved_arcs)
        same = Digraph(n, rng.sample(moved_arcs, len(moved_arcs)))  # another order
        assert moved == same and hash(moved) == hash(same)
        assert (moved == g) == (set(moved_arcs) == set(arcs))
        if moved == g:
            assert hash(moved) == hash(g)

    @given(arc_lists(max_n=70), st.data())
    @settings(max_examples=100, deadline=None)
    def test_error_messages(self, case, data):
        n, arcs = case
        spot = data.draw(st.integers(0, len(arcs)))
        v = data.draw(st.integers(0, max(n - 1, 0)))
        if n:
            with pytest.raises(ValueError) as err:
                Digraph(n, arcs[:spot] + [(v, v)] + arcs[spot:])
            assert str(err.value) == f"self-loop at vertex {v}"
        far = data.draw(st.integers(max(n, 1), n + 100))  # never equal to v
        bad = data.draw(st.sampled_from([(v, far), (far, v), (-1, v)]))
        with pytest.raises(ValueError) as err:
            Digraph(n, arcs[:spot] + [bad] + arcs[spot:])
        assert str(err.value) == f"arc ({bad[0]}, {bad[1]}) out of range for n={n}"
        # the same checks on masks, which skip the arc front
        ref = _Reference(n, arcs)
        masks = list(ref.masks(ref.succ))
        if n:
            masks_with_loop = masks[:v] + [masks[v] | 1 << v] + masks[v + 1 :]
            with pytest.raises(ValueError, match=rf"^self-loop at vertex {v}$"):
                Digraph.from_out_masks(n, masks_with_loop)
            masks[v] |= 1 << far
            with pytest.raises(ValueError, match=rf"^arc \({v}, {far}\) out of range for n={n}$"):
                Digraph.from_out_masks(n, masks)

    def test_far_head_refused_before_its_mask(self):
        # a head of 10**12 would make a 125 GB mask if shifted before the check
        far = 10**12
        with pytest.raises(ValueError, match=rf"^arc \(1, {far}\) out of range for n=3$"):
            Digraph(3, [(0, 1), (1, far), (2, 0)])
        with pytest.raises(ValueError, match=rf"^arc \(0, {far}\) out of range for n=3$"):
            parse_digraph(f"digraph 3\n0 1\n0 {far}\n")

    def test_numpy_arcs_read_as_python_ints(self):
        # a shift of a numpy int64 by 64 or more wraps, so each end is read as an int
        import numpy as np

        arcs = [(0, 70), (70, 1), (3, 64)]
        assert Digraph(71, np.array(arcs, dtype=np.int64)) == Digraph(71, arcs)
        with pytest.raises(ValueError, match=r"^arc \(-1, 2\) out of range for n=71$"):
            Digraph(71, np.array([(0, 1), (-1, 2)], dtype=np.int64))

    @given(st.integers(0, 90), st.integers(0, 2**32), st.data())
    @settings(max_examples=100, deadline=None)
    def test_tournaments_and_near_tournaments(self, n, seed, data):
        rng = random.Random(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        t, ref = Tournament(n, arcs), _Reference(n, arcs)
        assert t.arcs == ref.arcs and t.in_masks == ref.masks(ref.pred)
        assert Tournament.from_out_masks(n, ref.masks(ref.succ)) == t
        if not pairs:
            return
        # take some arcs away and add some reversed ones
        dropped = data.draw(st.sets(st.integers(0, len(arcs) - 1), max_size=3))
        doubled = data.draw(st.sets(st.integers(0, len(arcs) - 1), max_size=3))
        near = [a for i, a in enumerate(arcs) if i not in dropped]
        near += [arcs[i][::-1] for i in doubled]
        ref = _Reference(n, near)
        expected = ref.first_bad_pair()
        near_masks = ref.masks(ref.succ)
        for build in (lambda: Tournament(n, near), lambda: Tournament.from_out_masks(n, near_masks)):
            if expected is None:
                assert build().arcs == ref.arcs
            else:
                with pytest.raises(ValueError) as err:
                    build()
                assert str(err.value) == expected

    @given(st.lists(arc_lists(max_n=80), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_union(self, cases):
        shifted, offset = [], 0
        for n, arcs in cases:
            shifted += [(u + offset, v + offset) for u, v in arcs]
            offset += n
        u = disjoint_union(*(Digraph(n, arcs) for n, arcs in cases))
        ref = _Reference(offset, shifted)
        assert u.n == offset and u.arcs == ref.arcs
        assert u.out_masks == ref.masks(ref.succ) and u.in_masks == ref.masks(ref.pred)

    @given(arc_lists(max_n=130), st.data())
    @settings(max_examples=100, deadline=None)
    def test_induced_subdigraph(self, case, data):
        n, arcs = case
        keep = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
        index = {v: i for i, v in enumerate(sorted(keep))}
        kept = [(index[u], index[v]) for u, v in arcs if u in index and v in index]
        sub, ref = induced_subdigraph(Digraph(n, arcs), keep), _Reference(len(keep), kept)
        assert sub.n == len(keep) and sub.arcs == ref.arcs
        assert sub.out_masks == ref.masks(ref.succ) and sub.in_masks == ref.masks(ref.pred)


# -- strong components -----------------------------------------------------------------


def forward_stack(blocks):
    """The blocks side by side, with every arc from an earlier block to a later one."""
    n = sum(b.n for b in blocks)
    out, end = [], 0
    for b in blocks:
        end += b.n
        later = (1 << n) - (1 << end)
        out += [o << end - b.n | later for o in b.out_masks]
    return Digraph.from_out_masks(n, out)


def landau_components(T):
    """The strong components of a tournament from its scores alone: sorted by
    score, the first k vertices beat no later one iff s_1 + ... + s_k = C(k, 2)."""
    order = sorted(range(T.n), key=T.out_degree)
    comps, start, total = [], 0, 0
    for k, v in enumerate(order, 1):
        total += T.out_degree(v)
        if total == k * (k - 1) // 2:
            comps.append(sum(1 << u for u in order[start:k]))
            start = k
    return sorted(comps, key=lambda c: c & -c)


class TestStrongComponents:
    def test_small_cases(self):
        assert Digraph(0, []).strong_components == ()
        assert Digraph(3, [(0, 1)]).strong_components == (0b001, 0b010, 0b100)
        assert CYCLE3.strong_components == (0b111,)
        # 3 -> 0 -> 1 -> 2 -> 0 and 3 -> 4 <-> 5: components ordered by lowest vertex
        g = Digraph(6, [(3, 0), (0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 4)])
        assert g.strong_components == (0b000111, 0b001000, 0b110000)
        assert g.strong_components is g.strong_components

    @given(st.lists(st.tuples(st.integers(1, 7), st.integers(0, 2**30)), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_tournaments_follow_landau(self, blocks):
        blocks = [random_tournament(n, seed) for n, seed in blocks]
        for T in blocks + [forward_stack(blocks)]:
            T = Tournament.from_out_masks(T.n, T.out_masks)
            assert list(T.strong_components) == landau_components(T)
        # a strongly connected block stays whole inside the stack
        offset = 0
        stack = forward_stack(blocks)
        for b in blocks:
            for comp in b.strong_components:
                assert comp << offset in stack.strong_components
            offset += b.n

    @given(arc_lists(max_n=90))
    @settings(max_examples=100, deadline=None)
    def test_digraphs_match_networkx(self, case):
        nx = pytest.importorskip("networkx")
        n, arcs = case
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(arcs)
        expected = sorted(
            (sum(1 << v for v in comp) for comp in nx.strongly_connected_components(g)),
            key=lambda c: c & -c,
        )
        assert list(Digraph(n, arcs).strong_components) == expected
