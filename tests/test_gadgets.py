"""Gadget constructions: base sampler conditions, thresholds, doubling, necklaces."""

from itertools import combinations

import pytest

from tournhom.digraphs import (
    Digraph,
    RootedDigraph,
    Tournament,
    induced_subdigraph,
    is_acyclic,
    random_tournament,
    transitive_tournament,
)
from tournhom.errors import SamplingError
from tournhom.gadgets import (
    DoubledGadget,
    Gadget,
    build_family,
    build_gadget,
    build_necklace,
    check_degree_bound,
    degree_bound_ok,
    find_one_way_biclique,
    find_transitive_subtournament,
    make_k_sequence,
    sample_base_tournament,
    symmetrize,
    toy_family,
)
from tournhom.homcount import count_hom_bruteforce, count_hom_rooted

CYCLE3 = Tournament(3, [(0, 1), (1, 2), (2, 0)])


def rotational(n, residues):
    return Tournament(n, [(i, (i + d) % n) for i in range(n) for d in residues])


class TestDegreeBound:
    def test_transitive_violates(self):
        ok, witness = check_degree_bound(transitive_tournament(6), 4)
        assert not ok and witness == 0

    def test_cycle_within_bound(self):
        assert check_degree_bound(CYCLE3, 1) == (True, None)

    def test_trivial_bound(self):
        t = random_tournament(9, 0)
        assert check_degree_bound(t, 8) == (True, None)


class TestOneWayBiclique:
    def test_transitive_has_two_by_two(self):
        assert find_one_way_biclique(transitive_tournament(4), 2) == ((0, 1), (2, 3))

    def test_any_arc_is_one_by_one(self):
        assert find_one_way_biclique(CYCLE3, 1) is not None

    def test_triangle_too_small_for_two(self):
        assert find_one_way_biclique(CYCLE3, 2) is None

    def test_matches_exhaustive_on_random(self):
        for seed in range(12):
            t = random_tournament(7, seed)
            found = find_one_way_biclique(t, 2) is not None
            exhaustive = any(
                all(t.has_arc(a1, a2) for a1 in A1 for a2 in A2)
                for A1 in combinations(range(7), 2)
                for A2 in combinations(sorted(set(range(7)) - set(A1)), 2)
            )
            assert found == exhaustive


class TestTransitiveSubtournament:
    def test_transitive_witness(self):
        witness = find_transitive_subtournament(transitive_tournament(8), 5)
        assert witness is not None and len(witness) == 5
        assert is_acyclic(induced_subdigraph(transitive_tournament(8), witness))

    def test_triangle_max_two(self):
        assert find_transitive_subtournament(CYCLE3, 2) is not None
        assert find_transitive_subtournament(CYCLE3, 3) is None

    def test_rotational_5(self):
        # frozen by exhaustive check over all subsets
        rot5 = rotational(5, {1, 2})
        assert find_transitive_subtournament(rot5, 3) is not None
        assert find_transitive_subtournament(rot5, 4) is None

    def test_quadratic_residue_7(self):
        # frozen by exhaustive check over all subsets
        qr7 = rotational(7, {1, 2, 4})
        assert find_transitive_subtournament(qr7, 3) is not None
        assert find_transitive_subtournament(qr7, 4) is None

    def test_witness_is_transitive(self):
        for seed in range(6):
            t = random_tournament(10, seed)
            for size in range(11):
                chain = find_transitive_subtournament(t, size)
                if chain is None:
                    break
                assert len(chain) == size
                assert is_acyclic(induced_subdigraph(t, chain))
            # the largest size found is the exhaustive maximum
            assert size - 1 == max(
                len(S)
                for k in range(1, 11)
                for S in combinations(range(10), k)
                if is_acyclic(induced_subdigraph(t, S))
            )

    def test_witness_in_transitive_order(self):
        for seed in range(6):
            t = random_tournament(10, seed)
            chain = find_transitive_subtournament(t, 4)
            assert all(t.has_arc(u, v) for i, u in enumerate(chain) for v in chain[i + 1 :])

    def test_size_zero_is_empty(self):
        assert find_transitive_subtournament(CYCLE3, 0) == ()

    def test_negative_size_is_named(self):
        with pytest.raises(ValueError, match="size must be nonnegative, got -1"):
            find_transitive_subtournament(CYCLE3, -1)


class TestSampler:
    def test_spec_parameters_succeed(self):
        bt = sample_base_tournament(36, 6, 11, seed=0, max_tries=200)
        r = bt.report
        assert r.tries_used <= 200
        assert max(r.max_out_degree, r.max_in_degree) <= 24
        assert r.largest_one_way_biclique < 6
        assert r.largest_transitive < 11

    def test_impossible_biclique_parameter_fails(self):
        # a = 1 forbids every arc, impossible for any tournament
        with pytest.raises(SamplingError, match="biclique"):
            sample_base_tournament(3, 1, 3, seed=0, max_tries=20)

    @pytest.mark.parametrize("tries", [0, -3])
    def test_no_tries_is_named(self, tries):
        with pytest.raises(ValueError, match=f"max_tries must be at least 1, got {tries}"):
            sample_base_tournament(36, 6, 11, seed=0, max_tries=tries)

    @pytest.mark.parametrize(
        "seed, pinned",
        enumerate([(9, 10, 5), (5, 10, 5), (24, 9, 5), (1, 10, 5),
                   (2, 10, 5), (2, 10, 5), (9, 10, 5), (4, 10, 5)]),
    )
    def test_reports_pinned(self, seed, pinned):
        # (tries_used, largest_transitive, largest_one_way_biclique)
        r = sample_base_tournament(36, 6, 11, seed=seed).report
        assert (r.tries_used, r.largest_transitive, r.largest_one_way_biclique) == pinned

    def test_five_vertex_rotational_regime(self):
        bt = sample_base_tournament(5, 3, 4, seed=0, max_tries=2000)
        assert bt.report.largest_transitive == 3


class TestKSequence:
    def test_m36_two_values(self):
        assert make_k_sequence(36, 2) == [29, 27]

    def test_m36_three_values_infeasible(self):
        with pytest.raises(ValueError, match="smallest feasible m"):
            make_k_sequence(36, 3)

    def test_m30_single_value_takes_largest(self):
        assert make_k_sequence(30, 1) == [24]

    def test_gaps_at_least_two(self):
        ks = make_k_sequence(200, 5)
        assert all(k1 > k2 + 1 for k1, k2 in zip(ks, ks[1:]))


class TestBuildGadget:
    def test_toy_structure(self):
        g = build_gadget(CYCLE3, 2)
        graph = g.rooted.graph
        z, w = g.z, g.w
        assert graph.n == 5 and (z, w) == (3, 4)
        for arc in [(z, 0), (z, 1), (0, w), (1, w), (2, z), (w, 2)]:
            assert graph.has_arc(*arc)
        assert g.rooted.roots_nonadjacent()

    def test_root_degrees(self):
        g = build_gadget(random_tournament(9, 5), 6)
        graph = g.rooted.graph
        assert graph.out_degree(g.z) == 6
        assert graph.in_degree(g.w) == 6

    def test_all_pairs_adjacent_except_roots(self):
        g = build_gadget(random_tournament(7, 3), 4)
        graph = g.rooted.graph
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                adjacent = graph.has_arc(u, v) or graph.has_arc(v, u)
                assert adjacent == ((u, v) != (g.z, g.w))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            build_gadget(CYCLE3, 3)

    def test_degree_bound_at_full_scale(self):
        bt = sample_base_tournament(36, 6, 11, seed=0)
        for k in make_k_sequence(36, 2):
            assert degree_bound_ok(build_gadget(bt, k))


class TestSymmetrize:
    def test_vertex_count(self):
        dg = symmetrize(build_gadget(CYCLE3, 2))
        assert dg.rooted.graph.n == 8
        assert (dg.m, dg.k, dg.rooted.roots) == (3, 2, (6, 7))

    def test_halves_are_gadget_shaped(self):
        g = build_gadget(CYCLE3, 2)
        dg = symmetrize(g)
        left, right = dg.halves
        assert left.graph == g.rooted.graph and left.roots == g.rooted.roots
        # the right half realizes the mirror: root roles swap
        assert right.graph.has_arc(right.roots[1], 0)  # w -> v for v < k
        assert right.graph.has_arc(0, right.roots[0])

    def test_no_arcs_between_halves(self):
        dg = symmetrize(build_gadget(random_tournament(4, 9), 2))
        graph = dg.rooted.graph
        for u in range(dg.m):
            for v in range(dg.m, 2 * dg.m):
                assert not graph.has_arc(u, v) and not graph.has_arc(v, u)

    def test_product_identity_against_bruteforce(self):
        # doubled conditional count = product of the two root orders of the half
        g = build_gadget(CYCLE3, 2)
        dg = symmetrize(g)
        for seed in range(4):
            t = random_tournament(4, seed)
            for x in range(t.n):
                for y in range(t.n):
                    whole = count_hom_bruteforce(dg.rooted.graph, t, {dg.z: x, dg.w: y})
                    half_xy = count_hom_rooted(g.rooted, t, x, y)
                    half_yx = count_hom_rooted(g.rooted, t, y, x)
                    assert whole == half_xy * half_yx

    def test_conditional_symmetry_exact(self):
        dg = symmetrize(build_gadget(CYCLE3, 1))
        for n in range(3, 7):
            t = random_tournament(n, n * 11 + 1)
            for x in range(n):
                for y in range(x, n):
                    assert count_hom_rooted(dg.rooted, t, x, y) == count_hom_rooted(
                        dg.rooted, t, y, x
                    )


class TestRecords:
    """Each gadget record is fixed by its rooted digraph and checks it."""

    @pytest.mark.parametrize(
        "m, ks", [(36, (29, 27)), (3, (2, 1)), (4, (3, 2, 1)), (5, (4, 3, 2, 1))]
    )
    def test_rebuilt_from_the_rooted_digraph(self, m, ks):
        if m == 36:
            fam = build_family(sample_base_tournament(36, 6, 11, seed=0), k_values=list(ks))
        else:
            fam = toy_family(m, ks)
        for g, dg, k in zip(fam.gadgets, fam.doubled, ks):
            assert Gadget(g.rooted) == g and (g.m, g.k) == (m, k)
            back = DoubledGadget(dg.rooted)
            assert back == dg and (back.m, back.k) == (m, k)
            assert back.halves == dg.halves

    def test_refusals(self):
        g = build_gadget(CYCLE3, 2)
        dg = symmetrize(g)
        with pytest.raises(ValueError, match="gadget roots must be the last two vertices"):
            Gadget(RootedDigraph(g.rooted.graph, (g.w, g.z)))
        with pytest.raises(ValueError, match="doubled gadget roots must be the last two"):
            DoubledGadget(RootedDigraph(dg.rooted.graph, (dg.w, dg.z)))
        with pytest.raises(ValueError, match="2m\\+2 >= 4 vertices, got 5"):
            DoubledGadget(g.rooted)  # 5 vertices


class TestGadgetHomInjectivity:
    def test_all_enumerated_homs_injective(self):
        # every pair except the roots is adjacent and a path separates the
        # roots, so homomorphic images can never collide
        from tournhom.gadgets import rotational_tournament
        from tournhom.homcount import iter_homs

        g = build_gadget(rotational_tournament(5), 3)
        found = 0
        for seed in range(12):
            t = random_tournament(9, seed)
            for images in iter_homs(g.rooted.graph, t, cap=500):
                found += 1
                assert len(set(images)) == len(images)
        assert found > 0


class TestNecklace:
    def test_bare_arc_gives_directed_cycle(self):
        bare = RootedDigraph(Digraph(2, [(0, 1)]), (0, 1))
        assert build_necklace(bare, 3) == Digraph(3, [(0, 1), (1, 2), (2, 0)])

    def test_vertex_count_formula(self):
        dg = toy_family(3, (2,)).doubled[0]
        assert build_necklace(dg.rooted, 4).n == 4 * 7

    def test_short_necklace_rejected(self):
        bare = RootedDigraph(Digraph(2, [(0, 1)]), (0, 1))
        with pytest.raises(ValueError):
            build_necklace(bare, 2)


class TestFamily:
    def test_interval_enforced(self):
        with pytest.raises(ValueError, match="interval"):
            build_family(random_tournament(36, 0), k_values=[10])

    def test_toy_family_bypasses(self):
        fam = toy_family(3, (2, 1))
        assert fam.s == 2 and fam.k == (2, 1)
        assert fam.doubled[0].rooted.graph.n == 8
