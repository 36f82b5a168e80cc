"""Homomorphism counting engine against the brute-force oracle."""

import contextlib
import gc
import hashlib
import itertools
import random
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tournhom import homcount
from tournhom.digraphs import (
    Digraph,
    QuantumDigraph,
    RootedDigraph,
    Tournament,
    disjoint_union,
    random_tournament,
    transitive_tournament,
)
from tournhom.errors import BudgetExceededError, EnumerationCapError
from tournhom.homcount import (
    count_hom,
    count_hom_bruteforce,
    count_hom_rooted,
    density,
    eval_quantum,
    is_hom,
    iter_homs,
    rooted_count_matrices,
    rooted_count_matrix,
)
from tournhom.gadgets import rotational_tournament, toy_family

CYCLE3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
# the reverse orientation, where 0 -> 2 -> 1 is a path
CYCLE3_REV = Digraph(3, [(0, 2), (2, 1), (1, 0)])
SINGLE = Digraph(1, [])
ARC = Digraph(2, [(0, 1)])
# roots 0, 1 with a middle vertex 2: 0 -> 2 -> 1
PATH_GADGET = RootedDigraph(Digraph(3, [(0, 2), (2, 1)]), (0, 1))


def random_digraph(n, p_num, p_den, seed):
    rng = random.Random(seed)
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.randrange(p_den) < p_num
    ]
    return Digraph(n, arcs)


class TestCountHom:
    def test_single_vertex(self):
        for n in (1, 4, 7):
            assert count_hom(SINGLE, random_tournament(n, 0)) == n

    def test_single_arc_counts_pairs(self):
        for n in (2, 5, 8):
            assert count_hom(ARC, random_tournament(n, 1)) == n * (n - 1) // 2

    def test_cycle_into_transitive_is_zero(self):
        assert count_hom(CYCLE3, transitive_tournament(4)) == 0

    def test_cycle_into_cycle(self):
        assert count_hom(CYCLE3, CYCLE3) == 3
        assert count_hom_bruteforce(CYCLE3, CYCLE3) == 3

    def test_empty_pattern_counts_one(self):
        assert count_hom(Digraph(0, []), random_tournament(3, 0)) == 1

    def test_oracle_agreement_random_pairs(self):
        rng = random.Random(20240901)
        for _ in range(60):
            F = random_digraph(rng.randint(1, 4), 1, 2, rng.randrange(2**30))
            T = random_tournament(rng.randint(1, 6), rng.randrange(2**30))
            assert count_hom(F, T) == count_hom_bruteforce(F, T)

    def test_oracle_agreement_digraph_hosts(self):
        rng = random.Random(7)
        for _ in range(30):
            F = random_digraph(rng.randint(1, 4), 1, 3, rng.randrange(2**30))
            T = random_digraph(rng.randint(1, 5), 2, 3, rng.randrange(2**30))
            assert count_hom(F, T) == count_hom_bruteforce(F, T)

    def test_two_isolated_vertices(self):
        two = Digraph(2, [])
        for n in (3, 6):
            assert count_hom(two, random_tournament(n, 2)) == n * n

    def test_arc_plus_isolated(self):
        g = Digraph(3, [(0, 1)])
        for n in (3, 5):
            assert count_hom(g, random_tournament(n, 4)) == n * n * (n - 1) // 2

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            count_hom_bruteforce(random_tournament(8, 0), random_tournament(12, 1), budget=10)

    def test_pins_fix_images_and_shrink_the_enumeration(self):
        T = random_tournament(12, 1)
        with pytest.raises(BudgetExceededError):
            count_hom_bruteforce(CYCLE3, T, budget=12**2)
        by_x = [count_hom_bruteforce(CYCLE3, T, {0: x}, budget=12**2) for x in range(12)]
        assert sum(by_x) == count_hom(CYCLE3, T)
        with pytest.raises(ValueError, match="out of range"):
            count_hom_bruteforce(CYCLE3, T, {0: 12})


class TestRootedCounts:
    def test_path_gadget_forced_middle(self):
        assert count_hom_rooted(PATH_GADGET, CYCLE3_REV, 0, 1) == 1
        assert count_hom_bruteforce(PATH_GADGET.graph, CYCLE3_REV, {0: 0, 1: 1}) == 1

    def test_path_gadget_equal_roots(self):
        assert count_hom_rooted(PATH_GADGET, CYCLE3_REV, 0, 0) == 0

    def test_no_free_vertices(self):
        bare = RootedDigraph(Digraph(2, []), (0, 1))
        t = random_tournament(4, 3)
        for x in range(4):
            for y in range(4):
                assert count_hom_rooted(bare, t, x, y) == 1

    def test_adjacent_roots_respect_host_arc(self):
        rooted_arc = RootedDigraph(ARC, (0, 1))
        t = transitive_tournament(3)
        assert count_hom_rooted(rooted_arc, t, 0, 1) == 1
        assert count_hom_rooted(rooted_arc, t, 1, 0) == 0
        assert count_hom_rooted(rooted_arc, t, 0, 0) == 0

    def test_oracle_agreement(self):
        rng = random.Random(99)
        for _ in range(30):
            n_f = rng.randint(2, 4)
            F = random_digraph(n_f, 1, 2, rng.randrange(2**30))
            roots = rng.sample(range(n_f), 2)
            rooted = RootedDigraph(F, tuple(roots))
            T = random_tournament(rng.randint(1, 5), rng.randrange(2**30))
            x, y = rng.randrange(T.n), rng.randrange(T.n)
            assert count_hom_rooted(rooted, T, x, y) == count_hom_bruteforce(
                F, T, {roots[0]: x, roots[1]: y}
            )

    def test_conditional_sum_equals_total(self):
        rng = random.Random(5)
        for _ in range(20):
            F = random_digraph(4, 1, 2, rng.randrange(2**30))
            if F.has_arc(0, 1) or F.has_arc(1, 0):
                continue
            rooted = RootedDigraph(F, (0, 1))
            T = random_tournament(rng.randint(1, 5), rng.randrange(2**30))
            total = sum(
                count_hom_rooted(rooted, T, x, y)
                for x in range(T.n)
                for y in range(T.n)
            )
            assert total == count_hom(F, T)


class TestDensity:
    def test_arc_density(self):
        for n in (2, 5, 9):
            assert density(ARC, random_tournament(n, 6)) == Fraction(n - 1, 2 * n)

    def test_cycle_density_zero(self):
        assert density(CYCLE3, transitive_tournament(5)) == 0

    def test_cycle_density_ninth(self):
        assert density(CYCLE3, CYCLE3) == Fraction(1, 9)

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError):
            density(ARC, Digraph(0, []))

    def test_rooted_count_density_third(self):
        # hom_{0,1}(F, T) / |V(T)|^(|V(F)|-2)
        assert Fraction(count_hom_rooted(PATH_GADGET, CYCLE3_REV, 0, 1), 3) == Fraction(1, 3)

    @given(st.integers(0, 2**30), st.integers(0, 2**30), st.integers(2, 7), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_multiplicativity(self, s1, s2, n, s3):
        F1 = random_digraph(random.Random(s1).randint(1, 4), 1, 2, s1)
        F2 = random_digraph(random.Random(s2).randint(1, 4), 1, 2, s2)
        T = random_tournament(n, s3)
        assert density(disjoint_union(F1, F2), T) == density(F1, T) * density(F2, T)


class TestEvalQuantum:
    def test_single_vertex_is_one(self):
        q = QuantumDigraph.of([(1, SINGLE)])
        for seed in range(3):
            assert eval_quantum(q, random_tournament(4, seed)) == 1

    def test_cancellation(self):
        q = QuantumDigraph.of([(1, ARC), (-1, ARC)])
        assert eval_quantum(q, random_tournament(5, 0)) == 0

    def test_square_identity(self):
        q = QuantumDigraph.of([(1, disjoint_union(ARC, ARC)), (-1, ARC)])
        for seed in range(5):
            t = random_tournament(6, seed)
            d = density(ARC, t)
            assert eval_quantum(q, t) == d * d - d

    def test_relabelled_terms_add_up(self):
        # C3 and its reverse are isomorphic but not equal; each is counted
        transitive = Digraph(3, [(1, 0), (2, 0), (2, 1)])
        q = QuantumDigraph.of([(1, CYCLE3), (2, CYCLE3_REV), (5, transitive)])
        for n, seed in [(3, 0), (5, 1), (6, 2), (7, 3)]:
            T = random_tournament(n, seed)
            assert eval_quantum(q, T) == 3 * density(CYCLE3, T) + 5 * density(transitive, T)

    def test_cancelling_terms_take_no_nodes(self):
        T = random_tournament(5, 0)
        with pytest.raises(BudgetExceededError):
            density(CYCLE3, T, max_nodes=0)
        q = QuantumDigraph.of([(1, CYCLE3), (-1, Digraph(3, [(0, 1), (1, 2), (2, 0)]))])
        assert eval_quantum(q, T, max_nodes=0) == 0

    def test_non_isomorphic_regular_tournaments(self):
        # Paley(43) against the rotational tournament on 43 vertices: an
        # isomorphism search between them once ran out of its budget, while
        # the Hall test counts each term 0 before the first node
        p = 43
        squares = {x * x % p for x in range(1, p)}
        paley = Tournament(p, [(i, j) for i in range(p) for j in range(p) if (j - i) % p in squares])
        q = QuantumDigraph.of([(1, paley), (-1, rotational_tournament(p))])
        assert eval_quantum(q, random_tournament(8, 1), max_nodes=0) == 0

    @given(st.integers(0, 2**32), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_brute_force(self, seed, size):
        rng = random.Random(seed)
        terms = []
        for _ in range(size):
            coef = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if terms and rng.random() < 0.5:
                # an exact or a relabelled copy of an earlier term, sometimes cancelling it
                c, F = rng.choice(terms)
                if rng.random() < 0.5:
                    F = relabelled(F, rng.sample(range(F.n), F.n))
                if rng.random() < 0.3:
                    coef = -c
            else:
                F = random_digraph(rng.randint(0, 4), 1, 2, rng.randrange(2**30))
            terms.append((coef, F))
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            T = random_tournament(n, rng.randrange(2**30))
        else:
            T = random_digraph(n, 1, 2, rng.randrange(2**30))
        expected = sum(c * Fraction(count_hom_bruteforce(F, T), n**F.n) for c, F in terms)
        assert eval_quantum(QuantumDigraph.of(terms), T) == expected


class TestEnumeration:
    def test_maps_are_homs_and_count_matches(self):
        rng = random.Random(11)
        for _ in range(10):
            F = random_digraph(3, 1, 2, rng.randrange(2**30))
            T = random_tournament(4, rng.randrange(2**30))
            maps = list(iter_homs(F, T))
            assert len(maps) == count_hom(F, T)
            assert len(set(maps)) == len(maps)
            for m in maps:
                assert is_hom(F, T, m)

    def test_rooted_enumeration(self):
        maps = list(iter_homs(PATH_GADGET.graph, CYCLE3_REV, root_images={0: 0, 1: 1}))
        assert maps == [(0, 1, 2)]

    def test_cap_error(self):
        with pytest.raises(EnumerationCapError):
            list(iter_homs(SINGLE, random_tournament(5, 0), cap=3))

    def test_cap_not_hit(self):
        assert len(list(iter_homs(SINGLE, random_tournament(5, 0), cap=5))) == 5

    def test_negative_cap_is_named(self):
        assert list(iter_homs(CYCLE3, transitive_tournament(4), cap=0)) == []
        with pytest.raises(ValueError, match="cap must be nonnegative, got -1"):
            list(iter_homs(SINGLE, random_tournament(5, 0), cap=-1))


class TestRootedCountMatrix:
    def test_matches_per_pair_counts(self):
        rng = random.Random(42)
        for _ in range(15):
            n_f = rng.randint(3, 5)
            F = random_digraph(n_f, 1, 2, rng.randrange(2**30))
            z, w = 0, 1
            if F.has_arc(z, w) or F.has_arc(w, z):
                continue
            rooted = RootedDigraph(F, (z, w))
            T = random_tournament(rng.randint(2, 6), rng.randrange(2**30))
            S = rooted_count_matrix(rooted, T)
            for x in range(T.n):
                for y in range(T.n):
                    assert S[x][y] == count_hom_rooted(rooted, T, x, y)

    def test_requires_nonadjacent_roots(self):
        with pytest.raises(ValueError):
            rooted_count_matrix(RootedDigraph(ARC, (0, 1)), random_tournament(3, 0))


class TestRootedCountMatrices:
    """One sweep for several rooted patterns that share their non-root part."""

    @staticmethod
    def halves(fam):
        return [h for dg in fam.doubled for h in dg.halves]

    @pytest.mark.parametrize("m, ks", [(3, (2, 1)), (4, (3, 2, 1))])
    def test_family_halves_match_single_sweeps_and_oracle(self, m, ks):
        halves = self.halves(toy_family(m, ks))
        rng = random.Random(m)
        for n in range(5, 13):
            T = random_tournament(n, rng.randrange(2**30))
            mats = rooted_count_matrices(halves, T)
            assert mats == [rooted_count_matrix(F, T) for F in halves]
            if n <= 6:
                for F, S in zip(halves, mats):
                    assert S == [
                        [count_hom_bruteforce(F.graph, T, {F.z: x, F.w: y}) for y in range(n)]
                        for x in range(n)
                    ]

    def test_a_dead_pattern_does_not_cut_the_others(self):
        # both share the core 2 -> 3; the digon z <-> 2 has no image in a tournament
        core = [(2, 3)]
        dead = RootedDigraph(Digraph(4, core + [(0, 2), (2, 0), (3, 1)]), (0, 1))
        path = RootedDigraph(Digraph(4, core + [(0, 2), (3, 1)]), (0, 1))
        for seed in range(4):
            T = random_tournament(7, seed)
            first, second = rooted_count_matrices([dead, path], T)
            assert not any(map(any, first))
            assert second == rooted_count_matrix(path, T)
            assert any(map(any, second))

    def test_patterns_must_share_the_core_and_have_separate_roots(self):
        T = random_tournament(5, 0)
        # the same one-vertex core, other arcs to the roots: accepted
        reversed_gadget = RootedDigraph(Digraph(3, [(2, 0), (1, 2)]), (0, 1))
        assert rooted_count_matrices([reversed_gadget, PATH_GADGET], T) == [
            rooted_count_matrix(reversed_gadget, T),
            rooted_count_matrix(PATH_GADGET, T),
        ]
        longer = RootedDigraph(Digraph(4, [(0, 2), (2, 3), (3, 1)]), (0, 1))
        swapped = RootedDigraph(PATH_GADGET.graph, (1, 0))
        adjacent = RootedDigraph(Digraph(3, [(0, 2), (2, 1), (0, 1)]), (0, 1))
        for bad in (longer, swapped, adjacent):
            with pytest.raises(ValueError):
                rooted_count_matrices([PATH_GADGET, bad], T)
        backwards = RootedDigraph(Digraph(4, [(0, 2), (3, 2), (3, 1)]), (0, 1))
        with pytest.raises(ValueError):
            rooted_count_matrices([longer, backwards], T)
        a, b = (self.halves(toy_family(4, (2,), seed=seed))[0] for seed in (1, 2))
        assert a.graph != b.graph
        with pytest.raises(ValueError):
            rooted_count_matrices([a, b], T)
        assert rooted_count_matrices([], T) == []

    def test_single_pattern_node_count_is_pinned(self):
        # core 2 -> 3 -> 4 -> 5 with z pointing at all of it: the roots' masks
        # are read at each map of the core and prune nothing, so the sweep
        # takes the nodes of the core's enumeration, with the fan or without
        core = [(2, 3), (3, 4), (4, 5)]
        fan = [(0, v) for v in range(2, 6)]
        pruned = RootedDigraph(Digraph(6, core + fan + [(5, 1)]), (0, 1))
        bare = RootedDigraph(Digraph(6, core + [(5, 1)]), (0, 1))
        T = random_tournament(12, 0)
        expected = rooted_count_matrix(pruned, T, max_nodes=351)
        assert rooted_count_matrices([pruned], T, max_nodes=351) == [expected]
        with pytest.raises(BudgetExceededError):
            rooted_count_matrix(pruned, T, max_nodes=350)
        assert nodes_needed(lambda b: rooted_count_matrix(bare, T, max_nodes=b)) == 351

    def test_family_sweep_node_count_is_pinned(self):
        # two gadgets on their 40-vertex single-edge host, two different
        # blocks of 20: forward checking alone took 699 nodes on the whole
        # host, the pigeonhole cut 339, sweeping each block on its own 181,
        # 534 once the roots' masks stopped cutting the core's search, and
        # 530 with the Hall test on every class
        from tournhom.hosts import build_host, single_edge_graph
        from tournhom.spectral import density_matrices

        fam = toy_family(9, (7, 6))
        host, _ = build_host(single_edge_graph(), fam, [1, 1])
        assert len(host.strong_components) == 2
        expected = density_matrices(fam.doubled, host)
        assert density_matrices(fam.doubled, host, max_nodes=530) == expected
        with pytest.raises(BudgetExceededError):
            density_matrices(fam.doubled, host, max_nodes=529)

    def test_full_scale_half_node_count_is_pinned(self):
        # the k = 29 left half of the full-scale family on its 74-vertex
        # single-edge host: 167 nodes when each node took the first vertex of
        # the class with the smallest mask, 91 on the vertex with the fewest
        # candidates left in its domain
        from tournhom.hosts import build_host, single_edge_graph
        from tournhom.suites import _full_family

        fam = _full_family(0, 1)
        host, _ = build_host(single_edge_graph(), fam, [1])
        assert host.n == 74
        left = fam.doubled[0].halves[0]
        expected = rooted_count_matrix(left, host)
        assert_budget(lambda b: rooted_count_matrix(left, host, max_nodes=b), expected, 91)


# -- the search engine ---------------------------------------------------------------


def all_maps(F, T, pins=None):
    """Every homomorphism by exhaustion, for patterns of a few vertices."""
    pins = pins or {}
    free = [v for v in range(F.n) if v not in pins]
    found = set()
    for assignment in itertools.product(range(T.n), repeat=len(free)):
        images = [-1] * F.n
        for v, g in pins.items():
            images[v] = g
        for v, g in zip(free, assignment):
            images[v] = g
        if is_hom(F, T, images):
            found.add(tuple(images))
    return found


def random_pattern(rng):
    """Small patterns with digons, sometimes disconnected."""
    F = random_digraph(rng.randint(1, 4), 1, 2, rng.randrange(2**30))
    if rng.random() < 0.3:
        F = disjoint_union(F, random_digraph(rng.randint(1, 2), 1, 2, rng.randrange(2**30)))
    return F


def random_host(rng):
    if rng.random() < 0.5:
        return random_tournament(rng.randint(1, 5), rng.randrange(2**30))
    # digons in the host let digons in the pattern map somewhere
    return random_digraph(rng.randint(1, 5), 1, 2, rng.randrange(2**30))


def relabelled(T, perm):
    return Digraph(T.n, [(perm[u], perm[v]) for u, v in T.arcs])


def nodes_needed(run):
    """The smallest max_nodes with which run(max_nodes) finishes."""
    lo, hi = 0, 1
    while True:
        try:
            run(hi)
            break
        except BudgetExceededError:
            lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except BudgetExceededError:
            lo = mid + 1
    return lo


class TestSearchEngine:
    def test_counts_and_maps_agree_with_oracle(self):
        rng = random.Random(20261018)
        digons = 0
        for _ in range(150):
            F = random_pattern(rng)
            T = random_host(rng)
            digons += any((v, u) in F.arcs for u, v in F.arcs)
            expected = all_maps(F, T)
            assert count_hom(F, T) == count_hom_bruteforce(F, T) == len(expected)
            maps = list(iter_homs(F, T))
            assert len(maps) == len(set(maps))
            assert set(maps) == expected
        assert digons > 10

    def test_disconnected_patterns_multiply(self):
        rng = random.Random(4)
        for _ in range(40):
            F1, F2 = random_pattern(rng), random_pattern(rng)
            T = random_host(rng)
            F = disjoint_union(F1, F2)
            assert count_hom(F, T) == count_hom(F1, T) * count_hom(F2, T)
            assert count_hom(F, T) == count_hom_bruteforce(F, T)
            assert set(iter_homs(F, T)) == all_maps(F, T)

    def test_rooted_counts_agree_with_oracle(self):
        rng = random.Random(31)
        seen_equal = seen_adjacent = seen_bare = 0
        for _ in range(200):
            F = random_pattern(rng)
            if F.n < 2:
                continue
            z, w = rng.sample(range(F.n), 2)
            rooted = RootedDigraph(F, (z, w))
            T = random_host(rng)
            x = rng.randrange(T.n)
            y = x if rng.random() < 0.3 else rng.randrange(T.n)
            seen_equal += x == y
            seen_adjacent += not rooted.roots_nonadjacent()
            seen_bare += F.n == 2
            count = count_hom_rooted(rooted, T, x, y)
            assert count == count_hom_bruteforce(F, T, {z: x, w: y})
            pinned_maps = all_maps(F, T, {z: x, w: y})
            assert count == len(pinned_maps)
            assert set(iter_homs(F, T, root_images={z: x, w: y})) == pinned_maps
        assert seen_equal > 20 and seen_adjacent > 20 and seen_bare > 5

    def test_no_free_vertex_with_adjacent_roots(self):
        digon = RootedDigraph(Digraph(2, [(0, 1), (1, 0)]), (0, 1))
        host = Digraph(3, [(0, 1), (1, 0), (1, 2)])
        assert count_hom_rooted(digon, host, 0, 1) == 1
        assert count_hom_rooted(digon, host, 1, 2) == 0
        assert count_hom_rooted(digon, host, 1, 1) == 0
        assert list(iter_homs(digon.graph, host, root_images={0: 1, 1: 0})) == [(1, 0)]
        assert list(iter_homs(digon.graph, host, root_images={0: 2, 1: 1})) == []

    def test_rooted_count_matrix_matches_pairs(self):
        rng = random.Random(77)
        done = 0
        while done < 40:
            F = random_pattern(rng)
            if F.n < 2:
                continue
            z, w = rng.sample(range(F.n), 2)
            rooted = RootedDigraph(F, (z, w))
            if not rooted.roots_nonadjacent():
                continue
            T = random_host(rng)
            S = rooted_count_matrix(rooted, T)
            assert S == [
                [count_hom_bruteforce(F, T, {z: x, w: y}) for y in range(T.n)]
                for x in range(T.n)
            ]
            done += 1

    def test_zero_budget_raises_where_search_is_needed(self):
        T = random_tournament(6, 3)
        with pytest.raises(BudgetExceededError):
            count_hom(CYCLE3, T, max_nodes=0)
        # roots 0, 1 joined by the path 0 -> 2 -> 3 -> 1: two free vertices
        long_gadget = RootedDigraph(Digraph(4, [(0, 2), (2, 3), (3, 1)]), (0, 1))
        expected = count_hom_bruteforce(long_gadget.graph, T, {0: 0, 1: 1})
        assert count_hom_rooted(long_gadget, T, 0, 1) == expected
        with pytest.raises(BudgetExceededError):
            count_hom_rooted(long_gadget, T, 0, 1, max_nodes=0)
        with pytest.raises(BudgetExceededError):
            list(iter_homs(CYCLE3, T, max_nodes=0))
        with pytest.raises(BudgetExceededError):
            rooted_count_matrix(PATH_GADGET, T, max_nodes=0)

    def test_negative_budget_refused_before_any_shortcut(self):
        T = random_tournament(6, 3)
        roots_only = RootedDigraph(Digraph(2, []), (0, 1))  # no free vertex: no node
        cancelling = QuantumDigraph.of([(1, CYCLE3), (-1, CYCLE3)])  # nothing searched
        calls = [
            lambda b: count_hom(CYCLE3, T, max_nodes=b),
            lambda b: count_hom(Digraph(0, []), T, max_nodes=b),
            lambda b: count_hom_rooted(roots_only, T, 0, 1, max_nodes=b),
            lambda b: list(iter_homs(CYCLE3, T, max_nodes=b)),
            lambda b: list(iter_homs(SINGLE, Digraph(0, []), max_nodes=b)),
            lambda b: rooted_count_matrices([PATH_GADGET], T, max_nodes=b),
            lambda b: rooted_count_matrices([], T, max_nodes=b),
            lambda b: eval_quantum(cancelling, T, max_nodes=b),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="max_nodes must be nonnegative, got -1"):
                call(-1)
        # a zero budget stays valid where no node is needed
        assert count_hom(Digraph(0, []), T, max_nodes=0) == 1
        assert count_hom_rooted(roots_only, T, 0, 1, max_nodes=0) == 1
        assert eval_quantum(cancelling, T, max_nodes=0) == 0
        assert rooted_count_matrices([], T, max_nodes=0) == []

    def test_budget_is_the_node_count(self):
        T = random_tournament(7, 8)
        needed = nodes_needed(lambda b: count_hom(CYCLE3, T, max_nodes=b))
        assert needed > 0
        assert count_hom(CYCLE3, T, max_nodes=needed) == count_hom_bruteforce(CYCLE3, T)
        with pytest.raises(BudgetExceededError):
            count_hom(CYCLE3, T, max_nodes=needed - 1)

    def test_node_count_ignores_host_labels(self):
        # roots 0, 1 joined through a chain of triangles: hundreds of nodes
        arcs = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 1), (3, 6), (6, 4), (4, 7), (7, 3), (2, 6)]
        rooted = RootedDigraph(Digraph(8, arcs), (0, 1))
        rng = random.Random(8)
        for seed in range(3):
            T = random_tournament(16, seed)
            perm = list(range(T.n))
            rng.shuffle(perm)
            T2 = relabelled(T, perm)
            for x, y in ((0, 1), (2, 7), (5, 5)):
                first = nodes_needed(lambda b: count_hom_rooted(rooted, T, x, y, max_nodes=b))
                second = nodes_needed(
                    lambda b: count_hom_rooted(rooted, T2, perm[x], perm[y], max_nodes=b)
                )
                assert first == second > 100
                count = count_hom_rooted(rooted, T, x, y)
                assert count == count_hom_rooted(rooted, T2, perm[x], perm[y]) > 0
                # the same maps, renamed, from the same number of nodes
                pins, pins2 = {0: x, 1: y}, {0: perm[x], 1: perm[y]}
                F = rooted.graph
                maps, k = search_nodes(lambda b: list(iter_homs(F, T, pins, max_nodes=b)))
                maps2, k2 = search_nodes(lambda b: list(iter_homs(F, T2, pins2, max_nodes=b)))
                assert k == k2 > 100 and len(maps) == count
                assert sorted(tuple(perm[g] for g in m) for m in maps) == sorted(maps2)
        # the sweep of the core, on 12 vertices: over a thousand nodes
        for seed in range(3):
            T = random_tournament(12, seed)
            perm = list(range(T.n))
            rng.shuffle(perm)
            T2 = relabelled(T, perm)
            (S,), k = search_nodes(lambda b: rooted_count_matrices([rooted], T, max_nodes=b))
            (S2,), k2 = search_nodes(lambda b: rooted_count_matrices([rooted], T2, max_nodes=b))
            assert k == k2 > 1000
            assert all(S2[perm[x]][perm[y]] == S[x][y] for x in range(T.n) for y in range(T.n))


def cut_case(rng):
    """A tournament core of 2 to 4 vertices, then vertices joined to it by
    random arcs and digons (parts that are not cliques), sometimes a second
    component; the host is a random digraph, digons included."""
    core = random_tournament(rng.randint(2, 4), rng.randrange(2**30))
    n = core.n + rng.randint(0, 2)
    arcs = set(core.arcs)
    for v in range(core.n, n):
        for u in range(v):
            kind = rng.randrange(5)
            arcs |= [set(), set(), {(u, v)}, {(v, u)}, {(u, v), (v, u)}][kind]
    F = Digraph(n, arcs)
    if n < 6 and rng.random() < 0.3:
        F = disjoint_union(F, random_digraph(1, 1, 2, 0))
    return F, random_digraph(rng.randint(1, 5), 1, 2, rng.randrange(2**30))


@contextlib.contextmanager
def no_plan_cliques():
    """Plans whose cliques are empty, so that every Hall test builds its
    clique from the piece alone and every split is decided by `_split`."""
    plan = homcount._plan

    def no_cliques(F, pinned):
        return plan(F, pinned)._replace(clique=0)

    with mock.patch.object(homcount, "_plan", no_cliques), mock.patch.object(
        homcount, "_sweep_plan", homcount._sweep_plan.__wrapped__
    ):
        yield


def search_nodes(run):
    """run(None) and the nodes used by the searches it drains."""
    nodes = []
    search = homcount._search

    def counted(*args):
        out = yield from search(*args)
        nodes.append(out[1])
        return out

    with mock.patch.object(homcount, "_search", counted):
        return run(None), sum(nodes)


def assert_budget(run, result, k):
    """run finishes with result at max_nodes=k and raises at k - 1."""
    assert run(k) == result
    if k:
        with pytest.raises(BudgetExceededError):
            run(k - 1)


class TestPigeonholeCut:
    """Pairwise-adjacent vertices of one class, which share its mask M, need
    |M| or more host vertices (the Hall test)."""

    TT3 = Digraph(3, [(0, 1), (0, 2), (1, 2)])

    def test_non_adjacent_sharers_are_not_cut(self):
        # once a -> 0, b and c share the mask {1}, but may both map to 1
        star = Digraph(3, [(0, 1), (0, 2)])
        assert count_hom(star, ARC) == 1
        assert list(iter_homs(star, ARC)) == [(0, 1, 1)]
        leaves = RootedDigraph(star, (1, 2))
        assert count_hom_rooted(leaves, ARC, 1, 1) == 1
        assert rooted_count_matrix(leaves, ARC) == [[0, 0], [0, 1]]

    def test_adjacent_sharers_are_cut_without_a_node(self):
        # in 0 -> 1 <- 2, placing a at 0 or 2 leaves b -> c one class with the
        # mask {1}; forward checking alone opens a node at b each time, 3
        # nodes in all
        host = Digraph(3, [(0, 1), (2, 1)])
        assert count_hom(self.TT3, host, max_nodes=1) == 0
        assert list(iter_homs(self.TT3, host, max_nodes=1)) == []
        with pytest.raises(BudgetExceededError):
            count_hom(self.TT3, host, max_nodes=0)
        # the same two placements leave b and c of the out-star apart: both count
        star = Digraph(3, [(0, 1), (0, 2)])
        assert count_hom(star, host) == 2

    def test_a_class_with_a_larger_mask_is_cut(self):
        # a -> b, c, d (a transitive triangle) and e -> a: in 0 -> 1, 0 -> 2,
        # 1 -> 2, 3 -> 0, placing a at 0 leaves b, c, d one class with the mask
        # {1, 2} and e the mask {3}; a count splits e off, but an enumeration
        # cut on the smallest mask alone opened a node at e before it cut b,
        # c, d, 2 nodes in all
        F = Digraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 0)])
        host = Digraph(4, [(0, 1), (0, 2), (1, 2), (3, 0)])
        assert count_hom_bruteforce(F, host) == 0
        assert_budget(lambda b: count_hom(F, host, max_nodes=b), 0, 1)
        assert_budget(lambda b: list(iter_homs(F, host, max_nodes=b)), [], 1)

    @given(st.integers(0, 2**30))
    @settings(max_examples=50, deadline=None)
    def test_counts_agree_with_oracle(self, seed):
        rng = random.Random(seed)
        F, T = cut_case(rng)
        count = count_hom(F, T)
        assert count == count_hom_bruteforce(F, T)
        maps = list(iter_homs(F, T))
        assert len(maps) == len(set(maps)) == count
        assert all(is_hom(F, T, images) for images in maps)
        z, w = rng.sample(range(F.n), 2)
        x, y = rng.randrange(T.n), rng.randrange(T.n)
        rooted = RootedDigraph(F, (z, w))
        assert count_hom_rooted(rooted, T, x, y) == count_hom_bruteforce(F, T, {z: x, w: y})
        if rooted.roots_nonadjacent():
            assert rooted_count_matrices([rooted], T) == [
                [
                    [count_hom_bruteforce(F, T, {z: a, w: b}) for b in range(T.n)]
                    for a in range(T.n)
                ]
            ]

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_plan_cliques_change_no_result(self, seed):
        # the plan's cliques seed the Hall test's cliques and skip splits that
        # cannot happen: with empty cliques every count, map (in the same
        # order) and matrix is the same, each budget is exact, and when the
        # pattern's vertices are pairwise adjacent so is every node count
        rng = random.Random(seed)
        F, T = cut_case(rng)
        z, w = rng.sample(range(F.n), 2)
        x, y = rng.randrange(T.n), rng.randrange(T.n)
        rooted = RootedDigraph(F, (z, w))
        runs = {
            "count": lambda b: count_hom(F, T, max_nodes=b),
            "rooted": lambda b: count_hom_rooted(rooted, T, x, y, max_nodes=b),
            "maps": lambda b: list(iter_homs(F, T, max_nodes=b)),
        }
        if rooted.roots_nonadjacent():
            runs["sweep"] = lambda b: rooted_count_matrices([rooted], T, max_nodes=b)
        everyone = (1 << F.n) - 1
        complete = all(F.out_mask(v) | F.in_mask(v) | 1 << v == everyone for v in range(F.n))
        results = {}
        for name, run in runs.items():
            result, k = search_nodes(run)
            assert_budget(run, result, k)
            with no_plan_cliques():
                plain, plain_k = search_nodes(run)
                assert plain == result
                assert_budget(run, result, plain_k)
            if complete:
                assert plain_k == k
            results[name] = result
        maps = results["maps"]
        assert results["count"] == count_hom_bruteforce(F, T) == len(maps)
        assert len(set(maps)) == len(maps) and all(is_hom(F, T, m) for m in maps)
        assert results["rooted"] == count_hom_bruteforce(F, T, {z: x, w: y})
        if "sweep" in results:
            assert results["sweep"] == [
                [
                    [count_hom_bruteforce(F, T, {z: a, w: b}) for b in range(T.n)]
                    for a in range(T.n)
                ]
            ]

    def test_enumeration_node_count_is_pinned(self):
        # a gadget with its roots free: the root left out of the plan's clique
        # joins a piece's clique in 66 of the enumeration's 153 Hall cuts
        from tournhom.suites import _twin_planted_host

        gadget = toy_family(7, (4,)).gadgets[0]
        F = gadget.rooted.graph
        host = _twin_planted_host(gadget, dups=3, extras=2, rng=random.Random(0))
        maps = list(iter_homs(F, host))
        assert len(maps) == 30
        assert_budget(lambda b: list(iter_homs(F, host, max_nodes=b)), maps, 194)
        assert_budget(lambda b: count_hom(F, host, max_nodes=b), 30, 172)


class TestDomains:
    """A free vertex branches only over its domain: the host vertices whose
    neighbours' degrees dominate its need lists."""

    @given(st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_every_map_lies_in_the_domains(self, seed):
        # digons, neighbourhoods that are not cliques and second components
        # in the pattern, and digons in the host; the maps are found by
        # exhaustion, so a domain that left out an image would show
        rng = random.Random(seed)
        F, T = cut_case(rng)
        plan = homcount._plan(F, ())
        dom = homcount._domains(plan, T)
        maps = all_maps(F, T)
        assert all(dom[plan.rank[v]] >> g & 1 for images in maps for v, g in enumerate(images))
        assert set(iter_homs(F, T)) == maps
        assert count_hom(F, T) == count_hom_bruteforce(F, T) == len(maps)
        z, w = rng.sample(range(F.n), 2)
        x, y = rng.randrange(T.n), rng.randrange(T.n)
        rooted = RootedDigraph(F, (z, w))
        assert count_hom_rooted(rooted, T, x, y) == count_hom_bruteforce(F, T, {z: x, w: y})
        if rooted.roots_nonadjacent():
            assert rooted_count_matrices([rooted], T) == [
                [
                    [count_hom_bruteforce(F, T, {z: a, w: b}) for b in range(T.n)]
                    for a in range(T.n)
                ]
            ]

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_entries_cut_to_the_cap_keep_every_map(self, seed):
        # the lists are int16, with every entry cut to a cap; no host or
        # pattern here reaches the real cap, so a cap of 2 stands in for it
        rng = random.Random(seed)
        F, T = cut_case(rng)
        with mock.patch.object(homcount, "_CAP", 2):
            plan = homcount._plan.__wrapped__(F, ())
            dom = homcount._domains(plan, T)
        maps = all_maps(F, T)
        assert all(dom[plan.rank[v]] >> g & 1 for images in maps for v, g in enumerate(images))

    def test_a_domain_leaves_out_the_vertices_without_the_degrees(self):
        # the transitive triangle 0 -> 1 -> 2, 0 -> 2: vertex 0 needs two
        # adjacent out-neighbours, one of them with an out-neighbour; in a
        # host of the same triangle and the arc 3 -> 4, only host vertex 0
        # has them
        TT3 = Digraph(3, [(0, 1), (0, 2), (1, 2)])
        host = Digraph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        plan = homcount._plan(TT3, ())
        assert homcount._domains(plan, host)[plan.rank[0]] == 0b1
        assert list(iter_homs(TT3, host)) == [(0, 1, 2)]

    def test_domains_are_dropped_with_the_host(self):
        # a pattern no other test counts, so that no other host shares its plan
        F = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (3, 1)])
        T = random_tournament(9, 11)
        count_hom(F, T)
        plan = homcount._plan(F, ())
        assert list(plan.domains) == [id(T)]
        host = weakref.ref(T)
        del T
        gc.collect()
        assert host() is None and plan.domains == {}
        # the host keeps each component's sub-host, and a sweep's plan their
        # domains: a second call builds neither, and both go with the host
        T = forward_stack([random_tournament(5, 1), random_tournament(6, 2)])
        first = rooted_count_matrices([C4], T)
        subs = T._component_hosts()
        domains = homcount._sweep_plan((C4,)).plan.domains
        kept = dict(domains)
        assert kept and set(kept) <= {id(sub) for _, sub in subs}
        assert rooted_count_matrices([C4], T) == first
        assert T._component_hosts() is subs and domains == kept
        sub_hosts = [weakref.ref(sub) for _, sub in subs]
        del T, subs, kept
        gc.collect()
        assert all(sub() is None for sub in sub_hosts) and domains == {}


def forward_stack(blocks):
    """The blocks side by side, with every arc from an earlier block to a later one."""
    n = sum(b.n for b in blocks)
    out, end = [], 0
    for b in blocks:
        end += b.n
        later = (1 << n) - (1 << end)
        out += [o << end - b.n | later for o in b.out_masks]
    return Digraph.from_out_masks(n, out)


@contextlib.contextmanager
def whole_host_sweeps():
    """Sweeps that search the whole host, as for patterns that are not strongly connected."""
    sweep_plan = homcount._sweep_plan.__wrapped__

    def one_component(patterns):
        return sweep_plan(patterns)._replace(strong=False)

    with mock.patch.object(homcount, "_sweep_plan", one_component):
        yield


def _rooted(n, arcs):
    return RootedDigraph(Digraph(n, arcs), (0, 1))


# strongly connected, roots included: the 4-cycle through both roots, and two
# patterns on the core 2 -> 3 (cycles 0 2 3 and 1 2 3; cycle 2 0 3 1)
C4 = _rooted(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
TWO_CYCLES = _rooted(4, [(2, 3), (0, 2), (3, 0), (3, 1), (1, 2)])
ONE_CYCLE = _rooted(4, [(2, 3), (2, 0), (0, 3), (3, 1), (1, 2)])
# not strongly connected: the out-star onto the roots, and a path on the same core
OUT_STAR = _rooted(3, [(2, 0), (2, 1)])
CORE_PATH = _rooted(4, [(2, 3), (0, 2), (3, 1)])
SWEEPS = {
    "c4": [C4],
    "shared-core": [TWO_CYCLES, ONE_CYCLE],
    "out-star": [OUT_STAR],
    "path": [PATH_GADGET],
    "mixed": [TWO_CYCLES, CORE_PATH],
}


class TestBlockDiagonalSweep:
    """A strongly connected pattern maps inside one strong component of the host."""

    @given(
        st.sampled_from(sorted(SWEEPS)),
        st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2**30), st.integers(0, 2)),
                 min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweeps_agree_with_oracle_and_whole_host(self, name, draws):
        # each block is a fresh tournament, a repeat of the one before, or a
        # renamed copy of it, which may not share its sweep
        blocks = []
        for size, seed, kind in draws:
            if not blocks or kind == 0:
                blocks.append(random_tournament(size, seed))
            elif kind == 1:
                blocks.append(blocks[-1])
            else:
                perm = list(range(blocks[-1].n))
                random.Random(seed).shuffle(perm)
                blocks.append(relabelled(blocks[-1], perm))
        T = forward_stack(blocks)
        patterns = SWEEPS[name]
        run = lambda b: rooted_count_matrices(patterns, T, max_nodes=b)
        result, k = search_nodes(run)
        assert_budget(run, result, k)
        for F, S in zip(patterns, result):
            assert S == [
                [count_hom_bruteforce(F.graph, T, {F.z: x, F.w: y}) for y in range(T.n)]
                for x in range(T.n)
            ]
        with whole_host_sweeps():
            whole, nodes = search_nodes(run)
        assert whole == result
        if name in ("out-star", "path", "mixed"):
            assert nodes == k

    @pytest.mark.parametrize("patterns", [[C4], [TWO_CYCLES, ONE_CYCLE]], ids=["c4", "shared-core"])
    def test_equal_blocks_share_one_sweep(self, patterns):
        for seed in range(6):
            block = random_tournament(6, seed)
            single, k = search_nodes(lambda b: rooted_count_matrices(patterns, block, max_nodes=b))
            for r in (2, 3):
                T = forward_stack([block] * r)
                run = lambda b: rooted_count_matrices(patterns, T, max_nodes=b)
                result, nodes = search_nodes(run)
                assert nodes == k
                assert_budget(run, result, k)
                for S, B in zip(result, single):
                    for x in range(T.n):
                        i, bx = divmod(x, block.n)
                        assert S[x] == [0] * (i * block.n) + B[bx] + [0] * ((r - i - 1) * block.n)


class TestSweepCalls:
    """What a sweep keeps between calls on one host is its component
    sub-hosts: never a count, a matrix or a row."""

    HOSTS = {
        "equal": [random_tournament(5, 3)] * 3,
        "unequal": [random_tournament(4, 1), random_tournament(6, 2), random_tournament(5, 4)],
    }

    @pytest.mark.parametrize("blocks", sorted(HOSTS))
    @pytest.mark.parametrize("patterns", [[C4], [TWO_CYCLES, ONE_CYCLE]], ids=["c4", "shared-core"])
    def test_first_and_second_call_match_pinned_counts(self, blocks, patterns):
        T = forward_stack(self.HOSTS[blocks])
        assert len(T.strong_components) > 1
        for _ in range(2):
            result = rooted_count_matrices(patterns, T)
            for F, S in zip(patterns, result):
                assert S == [[count_hom_rooted(F, T, x, y) for y in range(T.n)] for x in range(T.n)]

    @pytest.mark.parametrize("blocks", sorted(HOSTS))
    def test_returned_rows_are_fresh(self, blocks):
        # with a one-vertex block, so that zero rows and touched rows both show
        T = forward_stack(self.HOSTS[blocks] + [Digraph(1, [])])
        patterns = [TWO_CYCLES, ONE_CYCLE]
        first = rooted_count_matrices(patterns, T)
        expected = [[list(row) for row in S] for S in first]
        rows = [row for S in first for row in S]
        assert any(map(any, rows)) and not all(map(any, rows))
        assert len(set(map(id, rows))) == len(patterns) * T.n
        for row in rows:
            row[0] = -1
        assert rooted_count_matrices(patterns, T) == expected

    @pytest.mark.parametrize("blocks", sorted(HOSTS))
    def test_budget_holds_on_each_call(self, blocks):
        T = forward_stack(self.HOSTS[blocks])
        run = lambda b: rooted_count_matrices([TWO_CYCLES, ONE_CYCLE], T, max_nodes=b)
        result, k = search_nodes(run)
        assert k
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                run(k - 1)
            assert run(k) == result


def golden_pattern(rng):
    """3 to 9 vertices; each pair a digon, non-adjacent or one arc."""
    n = rng.randint(3, 9)
    digon = rng.choice((0, 0, 0.04))
    apart = rng.choice((0.2, 0.35, 0.5))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < digon:
                arcs += [(u, v), (v, u)]
            elif r >= digon + apart:
                arcs.append((u, v) if rng.getrandbits(1) else (v, u))
    return Digraph(n, arcs)


class TestEngineGolden:
    """The engine's outputs and full-scale node counts, recorded on the code
    whose forced placements took the first by rank of the one-host-vertex
    classes.  The maps, their order and the counts must not change; a random
    case's node count may, on branches that end in an empty mask."""

    MAPS = "a8474c504f7415bc06ce414410c215c4fb20d1d7367244651c75758ff3ecda09"
    COUNTS = "7bbaef67074d17c164218b2d81f1568d8381eb5e77c2954d30d10ab912448d4d"

    def test_random_maps_and_counts(self):
        rng = random.Random(27)
        maps_sha, counts_sha = hashlib.sha256(), hashlib.sha256()
        for _ in range(150):
            F = golden_pattern(rng)
            T = random_tournament(rng.randint(5, 14), rng.randrange(2**30))
            pinned = rng.sample(range(F.n), rng.randint(0, 2))
            pins = {v: rng.randrange(T.n) for v in pinned}
            for images in iter_homs(F, T, pins):
                maps_sha.update(repr(images).encode())
            maps_sha.update(b";")
            counts = [count_hom(F, T)]
            if len(pins) == 2:
                (z, x), (w, y) = pins.items()
                counts.append(count_hom_rooted(RootedDigraph(F, (z, w)), T, x, y))
            counts_sha.update(repr(counts).encode())
        assert (maps_sha.hexdigest(), counts_sha.hexdigest()) == (self.MAPS, self.COUNTS)

    def test_narrow_finds_the_first_class_of_one_host_vertex(self):
        narrow = homcount._narrow
        found = [0, 0]  # placements without and with such a class

        def checked(*args):
            classes, one = narrow(*args)
            if classes is not None:
                first = next((i for i, (_, H) in enumerate(classes) if H.bit_count() == 1), -1)
                assert one == first
                found[one >= 0] += 1
            return classes, one

        rng = random.Random(5)
        with mock.patch.object(homcount, "_narrow", checked):
            for _ in range(40):
                F = golden_pattern(rng)
                T = random_tournament(rng.randint(5, 12), rng.randrange(2**30))
                assert len(list(iter_homs(F, T))) == count_hom(F, T)
        assert min(found) > 100

    def test_full_scale_pinned_node_counts(self):
        # the doubled k = 29 gadget pinned at a base edge of the 365-vertex
        # 5-cycle host, in both orientations of each edge
        from tournhom.hosts import build_host, cycle_graph
        from tournhom.suites import _full_family

        fam = _full_family(0, 1)
        G = cycle_graph(5)
        host, _ = build_host(G, fam, [1])
        assert host.n == 365
        pattern = fam.doubled[0].rooted
        needed = {}
        for x, y in ((0, 1), (1, 0), (2, 1), (1, 2)):
            assert count_hom_rooted(pattern, host, x, y) == 1
            needed[x, y] = nodes_needed(lambda b: count_hom_rooted(pattern, host, x, y, max_nodes=b))
        assert needed == {(0, 1): 85, (1, 0): 85, (2, 1): 103, (1, 2): 103}

    def test_full_scale_planted_node_counts(self):
        from tournhom.suites import _full_family, _twin_planted_host

        needed = []
        for gadget in _full_family(0, 2).gadgets:
            F = gadget.rooted.graph
            host = _twin_planted_host(gadget, dups=5, extras=3, rng=random.Random(0))
            maps = list(iter_homs(F, host))
            assert len(maps) == count_hom(F, host) == 32
            needed.append(
                (
                    nodes_needed(lambda b: list(iter_homs(F, host, max_nodes=b))),
                    nodes_needed(lambda b: count_hom(F, host, max_nodes=b)),
                )
            )
        assert needed == [(65, 49), (67, 51)]


class TestLongPattern:
    """Pattern size is not bounded by the interpreter's recursion limit."""

    N = 1200
    PATH = Digraph(N, [(i, i + 1) for i in range(N - 1)])

    def test_count_enumerate_and_rooted(self):
        assert count_hom(self.PATH, CYCLE3) == 3
        maps = list(iter_homs(self.PATH, CYCLE3))
        assert sorted(maps) == [tuple((s + i) % 3 for i in range(self.N)) for s in range(3)]
        rooted = RootedDigraph(self.PATH, (0, self.N - 1))
        assert count_hom_rooted(rooted, CYCLE3, 0, (self.N - 1) % 3) == 1
        assert count_hom_rooted(rooted, CYCLE3, 0, 0) == 0
        assert rooted_count_matrix(rooted, CYCLE3)[1][(1 + self.N - 1) % 3] == 1

    def test_cli_hom(self, tmp_path, capsys):
        from tournhom.cli import main
        from tournhom.digraphs import save_digraph

        pattern, host = tmp_path / "path.txt", tmp_path / "c3.txt"
        save_digraph(pattern, self.PATH)
        save_digraph(host, CYCLE3)
        assert main(["hom", "--pattern", str(pattern), "--host", str(host)]) == 0
        assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize("module", ["tournhom.homcount", "tournhom.spectral"])
def test_public_functions_are_exported(module):
    import importlib
    import inspect

    mod = importlib.import_module(module)
    defined = {
        name
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == module and not name.startswith("_")
    }
    assert defined <= set(mod.__all__), defined - set(mod.__all__)
