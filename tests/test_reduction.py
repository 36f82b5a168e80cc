"""Polynomial lift, monomial encoding, and the evaluation identity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tournhom.digraphs import QuantumDigraph, random_tournament, transitive_tournament
from tournhom.gadgets import toy_family
from tournhom.homcount import eval_quantum
from tournhom.reduction import (
    IntPolynomial,
    ReducedQuantum,
    build_penalized,
    build_reduction,
    eval_reduced,
    identity_sides,
    load_reduced,
    monomial_to_quantum,
    nonnegativity_report,
    parse_poly_text,
    poly_from_json,
    poly_to_json,
    reduction_rhs,
    save_reduced,
)
from tournhom.spectral import density_matrices, density_matrix, necklace_density_trace

FAM1 = toy_family(3, (2,))
FAM2 = toy_family(3, (2, 1))


class TestPolynomial:
    def test_text_parser(self):
        p = parse_poly_text("3 x1^2 x2 - 2 x2 + 7")
        assert p.s == 2
        assert dict(p.terms) == {(2, 1): 3, (0, 1): -2, (0, 0): 7}
        assert p.deg() == 3 and p.coeff_abs_sum() == 12

    def test_text_parser_merges_and_drops(self):
        p = parse_poly_text("x1 - x1 + 2 x2")
        assert dict(p.terms) == {(0, 1): 2}

    def test_json_round_trip(self):
        p = parse_poly_text("x1^2 - 3", s=1)
        assert poly_from_json(poly_to_json(p)) == p

    def test_evaluate(self):
        p = parse_poly_text("3 x1^2 x2 - 2 x2 + 7")
        assert p.evaluate([Fraction(1, 2), Fraction(1, 3)]) == (
            3 * Fraction(1, 4) * Fraction(1, 3) - 2 * Fraction(1, 3) + 7
        )

    def test_invalid_token(self):
        with pytest.raises(ValueError):
            parse_poly_text("3 z1")

    @pytest.mark.parametrize(
        "mapping",
        [{(1,): 2.5}, {(1,): 0.5}, {(1.7,): 3}, {(1,): Fraction(2)}],
        ids=["coef-2.5", "coef-0.5", "exp-1.7", "coef-Fraction"],
    )
    def test_non_integers_refused(self, mapping):
        [exps] = mapping
        with pytest.raises(TypeError, match=rf"exponent vector \({exps[0]},\)"):
            IntPolynomial.of(1, mapping)

    def test_numpy_integers_read_as_ints(self):
        p = IntPolynomial.of(2, {(np.int64(1), np.int32(0)): np.int64(3), (0, 2): 1})
        assert p == IntPolynomial.of(2, {(1, 0): 3, (0, 2): 1})
        assert all(type(v) is int for exps, c in p.terms for v in (*exps, c))


def y_coefficients(lift):
    """The coefficient of each y_i in a lift: M, or 0 when M = 0 drops the y terms."""
    s = lift.s // 2
    terms = dict(lift.terms)
    return [terms.get((0,) * s + tuple(int(j == i) for j in range(s)), 0) for i in range(s)]


class TestPenalized:
    def test_single_variable(self):
        lift = build_penalized(parse_poly_text("x1"))
        assert y_coefficients(lift) == [100]
        assert dict(lift.terms) == {(7, 0): 1, (0, 1): 100, (2, 0): -100}

    def test_two_variables(self):
        lift = build_penalized(parse_poly_text("x1 - x2"))
        assert y_coefficients(lift) == [200, 200]
        assert lift.s == 4

    def test_zero_polynomial(self):
        lift = build_penalized(IntPolynomial(1, ()))
        assert lift == IntPolynomial(2, ())

    def test_constant_flagged(self):
        lift = build_penalized(parse_poly_text("7", s=1))
        assert y_coefficients(lift) == [0]
        assert dict(lift.terms) == {(6, 0): 7}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lift_is_the_penalized_formula(self, data):
        s = data.draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(0, 3)] * s).filter(lambda e: sum(e) <= 3)
        mapping = data.draw(st.dictionaries(exps, st.integers(-5, 5), max_size=5))
        p = IntPolynomial.of(s, mapping)
        rational = st.fractions(min_value=-2, max_value=2, max_denominator=7)
        xs = data.draw(st.lists(rational, min_size=s, max_size=s))
        ys = data.draw(st.lists(rational, min_size=s, max_size=s))
        M = 100 * p.deg() * sum(abs(c) for _, c in p.terms)
        expected = p.evaluate(xs) * math.prod(x**6 for x in xs)
        expected += M * sum(y - x * x for x, y in zip(xs, ys))
        assert build_penalized(p).evaluate([*xs, *ys]) == expected
        assert y_coefficients(build_penalized(p)) == [M] * s


class TestMonomialEncoding:
    def test_pure_x_power(self):
        g = monomial_to_quantum([1, 0], FAM1, [2])
        # exactly one length-8 necklace, no fillers
        assert g.n == 8 * 7

    def test_pure_y_power(self):
        g = monomial_to_quantum([0, 1], FAM1, [3])
        assert g.n == 12 * 7

    def test_insufficient_exponent(self):
        with pytest.raises(ValueError, match="clearing exponent too small"):
            monomial_to_quantum([2, 0], FAM1, [3])

    def test_fillers_added(self):
        g = monomial_to_quantum([1, 0], FAM1, [4])
        assert g.n == 8 * 7 + 2 * 4 * 7

    def test_vector_lengths_checked(self):
        for exps, E in (([1], [2]), ([1, 0, 0], [2]), ([1, 0], [2, 2])):
            with pytest.raises(ValueError, match="must match the family size"):
                monomial_to_quantum(exps, FAM1, E)


class TestBuildReduction:
    def test_minimal_exponent_for_linear(self):
        rq = build_reduction(parse_poly_text("x1"), FAM1, mode="minimal")
        assert rq.E == (14,)
        assert dict(rq.penalized.terms) == {(7, 0): 1, (0, 1): 100, (2, 0): -100}

    def test_paper_mode_needs_degree_twelve(self):
        with pytest.raises(ValueError, match="minimal exponents"):
            build_reduction(parse_poly_text("x1"), FAM1, mode="paper")

    def test_paper_mode_at_threshold_degree(self):
        # at degree 12 the uniform exponent 3*deg exactly clears x1^18
        p = parse_poly_text("x1^12", s=1)
        rq = build_reduction(p, FAM1, mode="paper")
        assert rq.E == (36,)
        T = random_tournament(5, 10)
        rhs = reduction_rhs(rq, T)
        if rhs is not None:
            assert eval_reduced(rq, T) == rhs

    def test_record_validates_its_inputs(self):
        p = parse_poly_text("x1")
        with pytest.raises(ValueError, match=r"needs 14\); minimal exponents are \[14\]"):
            ReducedQuantum(FAM1, p, [5])
        with pytest.raises(ValueError, match="E has 2 exponents, the family 1 gadgets"):
            ReducedQuantum(FAM1, p, [20, 20])
        with pytest.raises(ValueError, match="polynomial has 1 variables, family 2 gadgets"):
            ReducedQuantum(FAM2, p, [20, 20])
        rq = ReducedQuantum(FAM1, p, [20])
        assert rq.E == (20,) and rq.penalized == build_penalized(p)
        assert build_reduction(p, FAM1) == ReducedQuantum(FAM1, p, (14,))

    def test_quantum_terms_match_structure(self):
        rq = build_reduction(parse_poly_text("x1"), FAM1)
        sizes = sorted(monomial_to_quantum(e, FAM1, rq.E).n for e, _ in rq.penalized.terms)
        # 7 * D8 and D12 + 11 * D4 and 2 * D8 + 10 * D4, each 392 vertices
        assert sizes == [392, 392, 392]


class TestEvaluationIdentity:
    @pytest.mark.parametrize(
        "text,fam",
        [("x1", FAM1), ("x1 - x2", FAM2), ("x1^2 - 3", FAM1)],
    )
    def test_identity_exact(self, text, fam):
        p = parse_poly_text(text, s=fam.s)
        rq = build_reduction(p, fam, mode="minimal")
        hits = 0
        seed = 0
        while hits < 6:
            seed += 1
            T = random_tournament(4 + seed % 4, seed * 977)
            rhs = reduction_rhs(rq, T)
            if rhs is None:
                assert eval_reduced(rq, T) == 0
                continue
            assert eval_reduced(rq, T) == rhs
            hits += 1

    def test_zero_on_degenerate_hosts(self):
        # transitive hosts carry no directed triangle, so every necklace vanishes
        rq = build_reduction(parse_poly_text("x1"), FAM1)
        for n in (4, 6):
            T = transitive_tournament(n)
            assert necklace_density_trace(density_matrices(FAM1.doubled, T)[0], 4) == 0
            assert eval_reduced(rq, T) == 0

    def test_linearity_with_shared_exponent(self):
        p = parse_poly_text("x1^2", s=1)
        q = parse_poly_text("- 3 x1", s=1)
        E = [20]
        rp = ReducedQuantum(FAM1, p, E)
        rqq = ReducedQuantum(FAM1, q, E)
        rsum = ReducedQuantum(FAM1, p + q, E)
        for seed in (3, 11):
            T = random_tournament(5, seed)
            assert eval_reduced(rsum, T) == eval_reduced(rp, T) + eval_reduced(rqq, T)

    def test_generic_eval_quantum_agrees_on_tiny_union(self):
        # cross-check the generic evaluator against the trace route on the
        # smallest structured object: a single 4-necklace
        g = monomial_to_quantum([0, 0], FAM1, [1])
        q = QuantumDigraph.of([(1, g)])
        for seed in (1, 5):
            T = random_tournament(4, seed)
            generic = eval_quantum(q, T)
            trace = necklace_density_trace(density_matrix(FAM1.doubled[0], T), 4)
            assert generic == trace


class TestNecklaceDensities:
    @pytest.mark.parametrize("fam", [FAM2, toy_family(4, (3, 2, 1))], ids=["m3", "m4"])
    def test_one_sweep_matches_each_gadget_matrix(self, fam):
        for seed in range(5):
            T = random_tournament(5 + seed, seed)
            swept = density_matrices(fam.doubled, T)
            pairs = [density_matrix(dg, T, "pairs") for dg in fam.doubled]
            for lengths in ((4, 8, 12), (3, 5)):
                assert [[necklace_density_trace(dm, ell) for ell in lengths] for dm in swept] == [
                    [necklace_density_trace(dm, ell) for ell in lengths] for dm in pairs
                ]

    def test_report_builds_each_host_once(self, monkeypatch):
        import tournhom.reduction as reduction

        calls = []
        real = reduction.density_matrices
        monkeypatch.setattr(
            reduction, "density_matrices", lambda *a: calls.append(1) or real(*a)
        )
        p = parse_poly_text("x1 - x2", s=2)
        hosts = [random_tournament(6, s) for s in range(4)] + [transitive_tournament(5)]
        report = nonnegativity_report(p, FAM2, hosts)
        assert len(calls) == len(hosts)
        rq = build_reduction(p, FAM2, mode="minimal")
        assert report.values == tuple(eval_reduced(rq, T) for T in hosts)
        assert 4 in report.degenerate_hosts

    def test_identity_sides_builds_each_host_once(self, monkeypatch):
        import tournhom.reduction as reduction

        calls = []
        real = reduction.density_matrices
        monkeypatch.setattr(
            reduction, "density_matrices", lambda *a: calls.append(1) or real(*a)
        )
        rq = build_reduction(parse_poly_text("x1 - x2", s=2), FAM2, mode="minimal")
        hosts = [random_tournament(7, s) for s in range(4)] + [transitive_tournament(5)]
        sides = [identity_sides(rq, T) for T in hosts]
        assert len(calls) == len(hosts)
        assert sides == [(eval_reduced(rq, T), reduction_rhs(rq, T)) for T in hosts]
        assert sides[-1] == (0, None)
        assert any(rhs is not None for _, rhs in sides)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        from tournhom.gadgets import rotational_tournament

        cases = [  # every mode and a given E, over one gadget and over two
            ("x1", FAM1, "minimal"),
            ("x1 - x2", FAM2, "minimal"),
            ("x1^12", FAM1, "paper"),
            ("x1^12 - 2 x2^3", FAM2, "paper"),
            ("x1^2 - 3", FAM1, [20]),
            ("x1 - 2 x2", FAM2, [30, 25]),
        ]
        hosts = [random_tournament(5, 3), rotational_tournament(7)]
        for text, fam, how in cases:
            p = parse_poly_text(text, s=fam.s)
            if isinstance(how, str):
                rq = build_reduction(p, fam, how)
            else:
                rq = ReducedQuantum(fam, p, how)
            save_reduced(tmp_path / "f.json", rq)
            back = load_reduced(tmp_path / "f.json")
            assert back.source == rq.source, text
            assert back.penalized == rq.penalized, text
            assert back.E == rq.E, text
            assert back.family.k == rq.family.k, text
            assert [eval_reduced(back, T) for T in hosts] == [eval_reduced(rq, T) for T in hosts]

    def test_json_holds_only_the_inputs(self, tmp_path):
        import json

        rq = build_reduction(parse_poly_text("x1"), FAM1)
        save_reduced(tmp_path / "f.json", rq)
        doc = json.loads((tmp_path / "f.json").read_text())
        assert set(doc) == {"meta"}  # no term digraphs
        meta = doc["meta"]
        assert set(meta) == {"kind", "base", "k", "poly", "E"}
        assert meta["kind"] == "necklace-reduction"
        assert (meta["k"], meta["E"]) == ([2], [14])
        assert meta["poly"] == poly_to_json(rq.source) == {
            "s": 1, "terms": [{"coef": 1, "exps": [1]}]
        }


class TestNonnegativityReport:
    def test_nonnegative_polynomial(self):
        hosts = [random_tournament(5, s) for s in range(6)]
        report = nonnegativity_report(parse_poly_text("x1"), FAM1, hosts)
        # p >= 0 on the grid forbids a negative value on any host
        assert report.grid_nonnegative
        assert not report.negative_hosts

    def test_negative_constant_found(self):
        from tournhom.gadgets import rotational_tournament

        hosts = [rotational_tournament(7)] + [random_tournament(5, s) for s in range(4)]
        report = nonnegativity_report(parse_poly_text("- 1", s=1), FAM1, hosts)
        assert not report.grid_nonnegative
        assert report.negative_hosts  # any host with nonzero necklaces shows it

    def test_degenerate_hosts_evaluate_to_zero(self):
        hosts = [transitive_tournament(5)]
        report = nonnegativity_report(parse_poly_text("x1"), FAM1, hosts)
        assert report.degenerate_hosts == (0,)
        assert report.values[0] == 0
