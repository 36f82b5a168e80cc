"""Density matrices, trace identities, power sums, and the block pattern check."""

import datetime
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tournhom.digraphs import (
    Digraph,
    RootedDigraph,
    random_tournament,
    transitive_tournament,
)
from tournhom.errors import BudgetExceededError, DegenerateHostError
from tournhom.gadgets import (
    DoubledGadget,
    build_gadget,
    build_necklace,
    rotational_tournament,
    symmetrize,
    toy_family,
)
from tournhom.homcount import count_hom_bruteforce, density, rooted_count_matrix
from tournhom.hosts import HostAtlas, SimpleGraph, build_host, single_edge_graph
from tournhom.spectral import (
    DensityMatrix,
    PatternVerdict,
    _numerator,
    _power_traces,
    _ratio,
    _scaled_eigenvalues,
    _scan,
    density_matrices,
    density_matrix,
    graphon_pattern_check,
    necklace_count_trace,
    necklace_density_spectral,
    necklace_density_trace,
    xy_from_matrix,
    xy_point,
)

TOY = toy_family(3, (2,)).doubled[0]


def synthetic(counts, m=1):
    return DensityMatrix(order=len(counts), m=m, counts=tuple(tuple(r) for r in counts))


class TestDensityMatrix:
    def test_entries_match_bruteforce(self):
        t = random_tournament(4, 17)
        dm = density_matrix(TOY, t, method="pairs")
        for x in range(4):
            for y in range(4):
                pins = {TOY.z: x, TOY.w: y}
                assert dm.count(x, y) == count_hom_bruteforce(TOY.rooted.graph, t, pins)

    def test_sweep_matches_pairs(self):
        for seed in range(6):
            t = random_tournament(5, seed)
            assert density_matrix(TOY, t, method="sweep") == density_matrix(
                TOY, t, method="pairs"
            )

    @pytest.mark.parametrize("m, ks", [(3, (2, 1)), (4, (3, 2, 1)), (5, (3,))])
    def test_one_sweep_for_the_family_matches_each_gadget(self, m, ks):
        doubled = toy_family(m, ks).doubled
        rng = random.Random(m)
        for n in (5, 6, 7, 8, 9):
            t = random_tournament(n, rng.randrange(2**30))
            dms = density_matrices(doubled, t)
            for dg, dm in zip(doubled, dms):
                # the right half's matrix is the left half's transposed: H = L o L^T
                L, R = (rooted_count_matrix(half, t) for half in dg.halves)
                assert R == [list(col) for col in zip(*L)]
                assert dm.counts == tuple(
                    tuple(L[x][y] * L[y][x] for y in range(n)) for x in range(n)
                )
            assert dms == [density_matrix(dg, t, method="sweep") for dg in doubled]
            assert dms == [density_matrix(dg, t, method="pairs") for dg in doubled]

    def test_one_sweep_needs_mirrored_halves(self):
        # left copy from the k = 2 gadget, right copy from the k = 1 gadget's mirror
        base = toy_family(3, (2,)).base
        dg2, dg1 = (symmetrize(build_gadget(base, k)) for k in (2, 1))
        keep2 = {0, 1, 2, dg2.z, dg2.w}
        keep1 = {3, 4, 5, dg1.z, dg1.w}
        arcs = [(u, v) for u, v in dg2.rooted.graph.arcs if u in keep2 and v in keep2]
        arcs += [(u, v) for u, v in dg1.rooted.graph.arcs if u in keep1 and v in keep1]
        rooted = RootedDigraph(Digraph(dg2.rooted.graph.n, arcs), dg2.rooted.roots)
        with pytest.raises(ValueError, match="mirror"):
            DoubledGadget(rooted)

    def test_one_sweep_budget(self):
        doubled = toy_family(3, (2, 1)).doubled
        t = rotational_tournament(9)
        with pytest.raises(BudgetExceededError):
            density_matrices(doubled, t, max_nodes=1)
        assert density_matrices(doubled, t, max_nodes=10**6) == density_matrices(doubled, t)

    def test_one_sweep_is_one_public_call(self, monkeypatch):
        # the sweep stays behind homcount's public name, so a trace of the
        # calls between layers books it to homcount
        import tournhom.spectral as spectral

        calls = []
        real = spectral.rooted_count_matrices
        monkeypatch.setattr(
            spectral, "rooted_count_matrices", lambda *a: calls.append(1) or real(*a)
        )
        doubled = toy_family(3, (2, 1)).doubled
        t = rotational_tournament(9)
        for i in range(1, 3):
            density_matrices(doubled, t)
            assert len(calls) == i

    def test_one_sweep_needs_one_base(self):
        t = random_tournament(5, 0)
        mixed = (TOY, toy_family(5, (3,)).doubled[0])
        with pytest.raises(ValueError):
            density_matrices(mixed, t)
        assert density_matrices((), t) == []

    def test_symmetry_validated(self):
        with pytest.raises(ValueError, match="not symmetric"):
            synthetic([[0, 1], [2, 0]])

    @pytest.mark.parametrize("entry", [None, "", "a", 1.5, np.array(0)])
    @pytest.mark.parametrize("at", [(0, 0), (2, 2)], ids=["on-support", "off-support"])
    def test_non_integer_entry_named(self, entry, at):
        # None and "" were read as zeros, "a" and 1.5 refused only by xy_point;
        # the 0-d array, which equals 0, passed at (2, 2), after two shared zeros
        counts = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        counts[at[0]][at[1]] = entry
        message = rf"entry \({at[0]}, {at[1]}\) is {re.escape(repr(entry))}, not an"
        with pytest.raises(TypeError, match=message):
            synthetic(counts)

    def test_first_non_integer_in_row_major_order(self):
        bad = (0, "a", None)  # one row object at two indices is named at the first
        with pytest.raises(TypeError, match=r"entry \(1, 1\)"):
            DensityMatrix(order=3, m=1, counts=((0, 0, 0), bad, bad))

    def test_numpy_integer_rows_accepted(self):
        counts = [[0, 2, 1], [2, 0, 3], [1, 3, 0]]
        dm = synthetic(np.array(counts, dtype=np.int64))
        assert dm.support == synthetic(counts).support
        assert xy_point(dm) == xy_point(synthetic(counts))

    def test_int64_counts_give_exact_traces(self):
        # 3^30 squared overflows 64 bits: the traces must not wrap
        big = 3**30
        counts = [[0, big, 1], [big, 0, 2], [1, 2, 0]]
        wide, exact = synthetic(np.array(counts, dtype=np.int64)), synthetic(counts)
        for ell in (3, 4, 8, 12):
            assert necklace_count_trace(wide, ell) == necklace_count_trace(exact, ell)
        assert necklace_count_trace(exact, 4) > 2**64
        assert xy_point(wide) == xy_point(exact)
        assert all(type(c) is int for row in wide.support for c in row)

    def test_int64_host_counts_match_python_ints(self):
        dm = density_matrix(TOY, rotational_tournament(7))
        wide = DensityMatrix(dm.order, dm.m, np.array(dm.counts, dtype=np.int64))
        assert dm.support and wide.support == dm.support
        for ell in (4, 8, 12):
            assert necklace_count_trace(wide, ell) == necklace_count_trace(dm, ell)
        assert xy_point(wide) == xy_point(dm)

    def test_shape_validated(self):
        with pytest.raises(ValueError, match=r"2 rows of lengths \[1, 2\], not 2 x 2"):
            DensityMatrix(order=2, m=1, counts=((1, 1), (1,)))
        with pytest.raises(ValueError, match=r"2 rows of lengths \[2\], not 5 x 5"):
            DensityMatrix(order=5, m=1, counts=((0, 1), (1, 0)))

    def test_diagonal_zero_when_roots_separated_by_path(self):
        # the gadget routes z -> v -> w, so equal root images are impossible
        for seed in range(4):
            t = random_tournament(5, seed)
            dm = density_matrix(TOY, t)
            assert all(dm.count(x, x) == 0 for x in range(5))

    def test_density_normalization(self):
        t = random_tournament(4, 3)
        dm = density_matrix(TOY, t)
        assert Fraction(dm.count(0, 1), dm.density_denominator()) == Fraction(dm.count(0, 1), 4**6)


class TestTraceIdentity:
    def test_exact_necklace_counts(self):
        for seed in range(8):
            for n in (4, 5):
                t = random_tournament(n, 31 * seed + n)
                dm = density_matrix(TOY, t)
                for ell in (3, 4):
                    direct = density(build_necklace(TOY.rooted, ell), t)
                    assert direct == necklace_density_trace(dm, ell)

    def test_bare_arc_necklace_is_cycle_density(self):
        from tournhom.gadgets import build_necklace
        from tournhom.homcount import density

        bare = RootedDigraph(Digraph(2, [(0, 1)]), (0, 1))
        cycle = build_necklace(bare, 3)
        t = random_tournament(6, 2)
        assert density(cycle, t) == density(Digraph(3, [(0, 1), (1, 2), (2, 0)]), t)

    def test_spectral_matches_trace_tolerance(self):
        for seed in range(5):
            t = random_tournament(5, seed + 100)
            dm = density_matrix(TOY, t)
            lam, top = _scaled_eigenvalues(dm.support)
            for ell in range(3, 13):
                spectral = float(np.sum(lam**ell)) * top**ell
                H = np.array(dm.counts, dtype=float)
                trace = float(np.trace(np.linalg.matrix_power(H, ell)))
                assert abs(spectral - trace) <= 1e-9 * max(1.0, abs(trace))

    def test_spectral_density_matches_exact(self):
        for seed in range(5):
            t = random_tournament(5, seed + 7)
            dm = density_matrix(TOY, t)
            for ell in (3, 4, 8):
                exact = float(necklace_density_trace(dm, ell))
                approx = necklace_density_spectral(dm, ell)
                assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))

    @pytest.mark.parametrize("ell", [3, 4, 12])
    def test_spectral_density_does_not_underflow(self, ell):
        # full-scale sizes: N^-(2m+1) is about 10^-158, so (N^-(2m+1))^l
        # underflows a float, and the exact density is below 10^-470
        counts = [[0] * 148 for _ in range(148)]
        for i, j, c in ((0, 1, 5), (1, 2, 7), (0, 2, 3), (2, 2, 1)):
            counts[i][j] = counts[j][i] = c
        dm = synthetic(counts, m=36)
        exact = necklace_density_trace(dm, ell)
        approx = necklace_density_spectral(dm, ell)
        assert 0 < exact < Fraction(1, 10**470)
        assert abs(Fraction(approx) - exact) <= Fraction(1, 10**9) * exact


def object_traces(H, ells):
    """tr H^l by numpy's matrix_power on Python integers, the full matrix."""
    A = np.array(H, dtype=object)
    return {ell: int(np.trace(np.linalg.matrix_power(A, ell))) for ell in ells}


def random_symmetric(rng, n, zero_rows):
    H = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                H[i][j] = H[j][i] = rng.randint(-9, 10**rng.randint(1, 12))
    for z in zero_rows:
        for j in range(n):
            H[z][j] = H[j][z] = 0
    return H


class TestSupport:
    """Traces and spectra run on the indices whose row and column are nonzero."""

    ELLS = (1, 2, 3, 4, 5, 8, 12)

    def test_traces_match_full_matrix_power(self):
        rng = random.Random(3)
        for trial in range(40):
            n = rng.randint(1, 12)
            H = random_symmetric(rng, n, rng.sample(range(n), rng.randint(0, n)))
            dm = synthetic(H)
            expected = object_traces(H, self.ELLS)
            assert {ell: necklace_count_trace(dm, ell) for ell in self.ELLS} == expected
            assert _power_traces(H, self.ELLS) == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sparse_products_match_dense_reference(self, data):
        # blocks on random indices, zero rows between them: the support of a sweep
        n = data.draw(st.integers(1, 12))
        block = data.draw(st.lists(st.sampled_from([None, 0, 1, 2]), min_size=n, max_size=n))
        entries = st.integers(-(10**12), 10**12) | st.just(0)
        H = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if block[i] is not None and block[i] == block[j]:
                    H[i][j] = H[j][i] = data.draw(entries)
        ells = (1, 2, 3, 4, 8, 12)
        expected = object_traces(H, ells)
        assert _power_traces(H, ells) == expected
        assert _power_traces(synthetic(H).support, ells) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_zero_row_rule_matches_plain_scan(self, data):
        # rows of one shared zero, of distinct zeros and of int zeros, and
        # rows of the shared zero but for one entry: nonzero, a distinct
        # zero, NaN or None, first, second, last or between
        shared = Fraction(0)
        n = data.draw(st.integers(1, 7))
        other = st.sampled_from(["nonzero", "distinct", "nan", "none"])
        entry = st.sampled_from(["shared", "distinct", "int", "nonzero"])
        rows = []
        for _ in range(n):
            kind = data.draw(st.sampled_from(["shared", "distinct", "int", "one-off", "mixed"]))
            row = [shared] * n
            if kind == "distinct":
                row = [Fraction(0) for _ in range(n)]
            elif kind == "int":
                row = [0] * n
            elif kind == "one-off":
                row[data.draw(st.integers(0, n - 1))] = {
                    "nonzero": Fraction(data.draw(st.integers(1, 3))),
                    "distinct": Fraction(0),
                    "nan": math.nan,
                    "none": None,
                }[data.draw(other)]
            elif kind == "mixed":
                zeros = {"shared": shared, "distinct": Fraction(0), "int": 0}
                row = [
                    zeros[e] if e in zeros else Fraction(data.draw(st.integers(1, 3)))
                    for e in data.draw(st.lists(entry, min_size=n, max_size=n))
                ]
            rows.append(data.draw(st.sampled_from([list, tuple]))(row))

        def plain(read):
            nonzero = [[bool(read(c)) for c in row] for row in rows]
            support = [i for i in range(n) if any(nonzero[i]) and any(r[i] for r in nonzero)]
            pairs = [(max(i, j), min(i, j)) for i in range(n) for j in range(n)
                     if nonzero[i][j] and rows[j][i] != rows[i][j]]
            return support, min(pairs, default=None)

        assert _scan(rows) == plain(lambda c: c)
        if all(type(c) is Fraction for row in rows for c in row):
            assert _scan(rows, _numerator) == plain(_numerator)

    def test_symmetric_support_takes_three_products(self, monkeypatch):
        import tournhom.spectral as spectral

        products = []
        real = spectral._mat_mul
        monkeypatch.setattr(spectral, "_mat_mul", lambda A, B: products.append(1) or real(A, B))
        H = synthetic(random_symmetric(random.Random(5), 9, [2, 7])).support
        for ells, wanted in (((4, 8, 12), 3), ((12, 8, 4), 3), ((2,), 0), ((3,), 1)):
            products.clear()
            assert _power_traces(H, ells) == object_traces(H, ells)
            assert len(products) == wanted

    def test_support_is_scanned_once_per_matrix(self, monkeypatch):
        import tournhom.spectral as spectral
        from tournhom.reduction import build_reduction, eval_reduced, parse_poly_text

        scans = []
        real = spectral._scan
        monkeypatch.setattr(spectral, "_scan", lambda rows: scans.append(1) or real(rows))
        dm = density_matrix(TOY, rotational_tournament(7))
        assert len(scans) == 1
        xy_point(dm)
        for ell in (3, 4):
            necklace_count_trace(dm, ell)
            necklace_density_trace(dm, ell)
            necklace_density_spectral(dm, ell)
        assert len(scans) == 1
        family = toy_family(3, (2, 2))
        eval_reduced(build_reduction(parse_poly_text("x1 - x2"), family), rotational_tournament(7))
        assert len(scans) == 1 + len(family.doubled)

    def test_rational_traces_scale_to_integers(self):
        # p_l = tr H^l exactly, though the traces run on den * H in integers
        rng = random.Random(6)
        checked = 0
        for trial in range(20):
            n = rng.randint(2, 8)
            H = random_symmetric(rng, n, rng.sample(range(n), rng.randint(0, n - 2)))
            H = [[Fraction(c, rng.randint(1, 10**6)) for c in row] for row in H]
            for i in range(n):
                for j in range(i):
                    H[i][j] = H[j][i]
            A = np.array(H, dtype=object)
            exact = {ell: np.trace(np.linalg.matrix_power(A, ell)) for ell in (4, 8, 12)}
            if exact[4] == 0:
                continue
            pt = xy_from_matrix(H)
            assert (pt.p4, pt.p8, pt.p12) == (exact[4], exact[8], exact[12])
            assert pt.x_exact == exact[8] / exact[4] ** 2
            assert pt.y_exact == exact[12] / exact[4] ** 3
            checked += 1
        assert checked > 10

    def test_zero_matrix_traces_vanish_and_xy_is_degenerate(self):
        dm = synthetic([[0] * 4 for _ in range(4)])
        assert all(necklace_count_trace(dm, ell) == 0 for ell in self.ELLS)
        with pytest.raises(DegenerateHostError):
            xy_point(dm)
        with pytest.raises(DegenerateHostError):
            xy_from_matrix([[Fraction(0)] * 3 for _ in range(3)])

    def test_power_below_one_rejected(self):
        dm = synthetic([[0, 1], [1, 0]])
        for ell in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                necklace_count_trace(dm, ell)

    def test_eigenvalues_padded_with_exact_zeros(self):
        # the support's spectrum, padded with one zero per index off the
        # support, is the spectrum of the full matrix
        rng = random.Random(4)
        for trial in range(20):
            n = rng.randint(2, 12)
            zero_rows = rng.sample(range(n), rng.randint(1, n - 1))
            H = random_symmetric(rng, n, zero_rows)
            lam, top = _scaled_eigenvalues(synthetic(H).support)
            assert len(lam) <= n - len(zero_rows)
            assert top == (max(abs(c) for row in H for c in row) or 1)
            padded = np.concatenate([lam * top, np.zeros(n - len(lam))])
            full = np.linalg.eigvalsh(np.array(H, dtype=float))
            scale = max(1.0, float(np.max(np.abs(full))))
            assert np.allclose(np.sort(padded), np.sort(full), atol=1e-9 * scale, rtol=0)


class TestSyntheticSpectra:
    def test_two_by_two_closed_form(self):
        dm = synthetic([[0, 3], [3, 0]])
        lam, top = _scaled_eigenvalues(dm.support)
        assert top == 3
        assert np.allclose(sorted(lam * top), [-3, 3])
        assert float(np.sum(lam**4)) * top**4 == pytest.approx(2 * 3**4)

    def test_zero_matrix(self):
        dm = synthetic([[0, 0], [0, 0]])
        assert necklace_density_spectral(dm, 4) == 0
        assert dm.is_zero()

    def test_single_dominant_eigenvalue_maps_to_corner(self):
        n = 4
        dm = synthetic([[1] * n for _ in range(n)])
        pt = xy_point(dm)
        assert pt.x_exact == 1 and pt.y_exact == 1
        assert pt.x == pytest.approx(1) and pt.y == pytest.approx(1)

    def test_block_diagonal_r_copies(self):
        # r rank-one blocks with equal spectrum: x = 1/r, y = 1/r^2
        for r in (2, 3):
            size = 2 * r
            counts = [[0] * size for _ in range(size)]
            for b in range(r):
                for u in range(2):
                    for v in range(2):
                        counts[2 * b + u][2 * b + v] = 1
            pt = xy_point(synthetic(counts))
            assert pt.x_exact == Fraction(1, r)
            assert pt.y_exact == Fraction(1, r * r)


class TestXYPoint:
    def test_degenerate_host_raises(self):
        # a transitive host has no directed triangle, so the toy count matrix is zero
        dm = density_matrix(TOY, transitive_tournament(5))
        assert dm.is_zero()
        with pytest.raises(DegenerateHostError):
            xy_point(dm)

    def test_power_sum_bounds(self):
        for seed in range(10):
            t = random_tournament(5, 1000 + seed)
            dm = density_matrix(TOY, t)
            if dm.is_zero():
                continue
            pt = xy_point(dm)
            assert pt.p8 <= pt.p4**2
            assert pt.p12 <= pt.p4**3
            assert 0 <= pt.x_exact <= 1 and 0 <= pt.y_exact <= 1

    def test_float_and_exact_twin_agree(self):
        for seed in range(6):
            t = random_tournament(6, seed)
            dm = density_matrix(TOY, t)
            if dm.is_zero():
                continue
            pt = xy_point(dm)
            assert pt.x == pytest.approx(float(pt.x_exact), abs=1e-9)
            assert pt.y == pytest.approx(float(pt.y_exact), abs=1e-9)


class TestXYFromMatrix:
    def test_agrees_with_xy_point(self):
        for seed in range(6):
            t = random_tournament(6, seed)
            dm = density_matrix(TOY, t)
            if dm.is_zero():
                continue
            pt, qt = xy_point(dm), xy_from_matrix([list(r) for r in dm.counts])
            assert (qt.x_exact, qt.y_exact) == (pt.x_exact, pt.y_exact)
            assert qt.p4 == pt.p4 * dm.order ** (4 * (2 * dm.m + 1))
            assert (qt.x, qt.y) == pytest.approx((pt.x, pt.y), abs=1e-12)

    def test_nonsymmetric_rejected_at_first_pair(self):
        with pytest.raises(ValueError, match=r"not symmetric at \(1, 0\)"):
            xy_from_matrix([[0, 1, 0], [2, 0, 1], [0, 1, 0]])
        # found from the nonzero side, and the first pair in row-major order
        with pytest.raises(ValueError, match=r"not symmetric at \(1, 0\)"):
            xy_from_matrix([[0, 0, 1], [3, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match=r"not symmetric at \(2, 1\)"):
            xy_from_matrix([[0, 1, 1], [1, 0, 0], [1, 4, 0]])

    def test_asymmetric_denominators_rejected(self):
        # equal numerators do not make equal entries; all Fractions, so the
        # numerators are what the scan tests
        zero = Fraction(0)
        with pytest.raises(ValueError, match=r"not symmetric at \(1, 0\)"):
            xy_from_matrix([[zero, Fraction(1, 2)], [Fraction(1, 3), zero]])

    def test_every_way_of_writing_a_matrix_reads_alike(self):
        counts = random_symmetric(random.Random(8), 9, [1, 6])

        class Sub(Fraction):
            pass

        shared = Fraction(0)
        written = [
            [[Fraction(c) for c in row] for row in counts],
            counts,
            [[c if (i + j) % 2 else Fraction(c) for j, c in enumerate(row)]
             for i, row in enumerate(counts)],
            [[Sub(c) for c in row] for row in counts],
            [[Fraction(c) if c else Fraction(0, 7) for c in row] for row in counts],
            [[Fraction(c) if c else shared for c in row] for row in counts],
        ]
        points = [xy_from_matrix(rows) for rows in written]
        assert all(pt == points[0] for pt in points)

    def test_floats_read_exactly(self):
        floats = [[0.0, 0.1, 2.5], [0.1, 0.0, 1e-300], [2.5, 1e-300, 0.0]]
        twin = xy_from_matrix([[Fraction(c) for c in row] for row in floats])
        for rows in (floats, np.array(floats)):
            pt = xy_from_matrix(rows)
            assert (pt.x_exact, pt.y_exact) == (twin.x_exact, twin.y_exact)
            assert pt == twin

    @pytest.mark.parametrize(
        "entry, error, message",
        [
            ("1", TypeError, r"matrix entry \(0, 1\): cannot read str"),
            (math.nan, ValueError, r"matrix entry \(1, 0\): nan is not a point"),
            (math.inf, ValueError, r"matrix entry \(0, 1\): inf is not a point"),
        ],
        ids=["str", "nan", "inf"],
    )
    def test_non_numbers_refused_by_index(self, entry, error, message):
        with pytest.raises(error, match=message):
            xy_from_matrix([[0, entry, 0], [entry, 0, 1], [0, 1, 0]])

    @pytest.mark.parametrize(
        "entry",
        [None, "", [], np.array(0.0), np.False_, datetime.timedelta(0)],
        ids=["None", "empty-str", "empty-list", "0d-array", "numpy-false", "zero-timedelta"],
    )
    @pytest.mark.parametrize("zero", [0, 0.0], ids=["int-row", "float-row"])
    def test_falsy_non_numbers_refused_by_index(self, entry, zero):
        # a truth test reads each as a zero, whatever type the row starts with
        with pytest.raises(TypeError, match=r"matrix entry \(0, 1\): cannot read"):
            xy_from_matrix([[zero + 1, entry], [entry, zero]])
        # a row of one shared non-number
        with pytest.raises(TypeError, match=r"matrix entry \(1, 0\): cannot read"):
            xy_from_matrix([[zero + 1, zero], [entry] * 2])
        # a row that starts with two shared zeros: the 0-d array and np.False_
        # equal zero, and passed
        one = zero + 1
        with pytest.raises(TypeError, match=r"matrix entry \(2, 2\): cannot read"):
            xy_from_matrix([[one, one, zero], [one, one, zero], [zero, zero, entry]])

    def test_object_array_rows_each_checked(self):
        # each row of an ndarray is a new view, which may take the id of a freed earlier one
        rows = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, None]], dtype=object)
        with pytest.raises(TypeError, match=r"matrix entry \(3, 3\): cannot read"):
            xy_from_matrix(rows)

    def test_numpy_floats_with_zero_rows_read_as_their_twin(self):
        H = random_symmetric(random.Random(9), 12, [0, 5, 11])
        floats = np.array(H, dtype=float) / 8
        twin = xy_from_matrix([[Fraction(c, 8) for c in row] for row in H])
        assert xy_from_matrix(floats) == twin
        assert xy_from_matrix(floats.tolist()) == twin

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            xy_from_matrix([[0, 1], [1]])

    @pytest.mark.parametrize(
        "c", [10**26, 10**400, Fraction(10**400, 3)], ids=["1e26", "1e400", "1e400_over_3"]
    )
    def test_float_twin_is_scale_free(self, c):
        rows = [[0, c], [c, 0]]
        points = [xy_from_matrix(rows)]
        if isinstance(c, int):
            points.append(xy_point(synthetic(rows)))
        for pt in points:
            assert pt.x_exact == pt.x == 0.5
            assert pt.y_exact == pt.y == 0.25


class TestExactReader:
    def test_fraction_slot_layout(self):
        # `_ratio` and `xy_from_matrix` read these slots directly
        assert Fraction.__slots__ == ("_numerator", "_denominator")

    def test_ratio_agrees_with_integer_ratio(self):
        class Sub(Fraction):
            pass

        values = [Fraction(-7, 3), Sub(5, 4), -12, True, 0.1, np.int64(-9), np.float64(2.75)]
        for v in values:
            got = _ratio(v)
            assert got == Fraction(v).as_integer_ratio()
            assert tuple(map(type, got)) == (int, int)


class TestPatternCheck:
    def _atlas(self, r):
        fam = toy_family(3, (2,))
        host, atlas = build_host(single_edge_graph(), fam, [r])
        return host.n, atlas

    def test_ideal_pattern_accepted(self):
        n, atlas = self._atlas(2)
        counts = [[0] * n for _ in range(n)]
        for a, b in atlas.base_edge_pairs(1):
            counts[a][b] = counts[b][a] = 9
        verdict = graphon_pattern_check(synthetic(counts, m=3), atlas, 1)
        assert verdict.ok and verdict.b == 3
        assert verdict.a == Fraction(9, n**6)

    def test_offending_pair_reported(self):
        n, atlas = self._atlas(1)
        counts = [[0] * n for _ in range(n)]
        for a, b in atlas.base_edge_pairs(1):
            counts[a][b] = counts[b][a] = 4
        counts[2][3] = counts[3][2] = 1  # stray cell entry
        verdict = graphon_pattern_check(synthetic(counts, m=3), atlas, 1)
        assert not verdict.ok
        assert any(v[:2] == (2, 3) for v in verdict.violations)

    def test_unequal_entries_rejected(self):
        n, atlas = self._atlas(2)
        counts = [[0] * n for _ in range(n)]
        values = iter([4, 9])
        for a, b in sorted(atlas.base_edge_pairs(1)):
            v = next(values)
            counts[a][b] = counts[b][a] = v
        verdict = graphon_pattern_check(synthetic(counts, m=3), atlas, 1)
        assert not verdict.ok

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_full_scan(self, data):
        n, atlas = self._atlas(data.draw(st.integers(1, 3)))
        i = data.draw(st.sampled_from([1, 2]))  # no block carries index 2
        common = data.draw(st.sampled_from([1, 2, 4, 9, 12]))
        values = st.sampled_from([0, common, common, common, common + 1, -common])
        counts = [[0] * n for _ in range(n)]
        for a, b in sorted(atlas.base_edge_pairs(1)):
            counts[a][b] = counts[b][a] = data.draw(values)
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 9))
        for a, b, v in data.draw(st.lists(cells, max_size=6)):
            counts[a][b] = counts[b][a] = v
        dm = synthetic(counts, m=3)
        cut = data.draw(st.integers(1, 20))
        assert graphon_pattern_check(dm, atlas, i, cut) == full_scan_check(dm, atlas, i, cut)

    def test_atlas_of_another_host_refused(self):
        n, atlas = self._atlas(2)
        _, small = self._atlas(1)
        zero = synthetic([[0] * n for _ in range(n)], m=3)
        with pytest.raises(ValueError, match=f"a {n // 2}-vertex host, the matrix has {n} rows"):
            graphon_pattern_check(zero, small, 1)
        # an atlas of the right order is derived from its inputs, so no base
        # edge can lie outside the matrix
        assert all(0 <= a < b < n for a, b in atlas.base_edge_pairs(1))
        verdict = graphon_pattern_check(zero, atlas, 1)
        assert verdict.violations[0][2] == "expected positive entry, got 0"

    def test_atlas_of_a_larger_host_refused_before_its_layout(self):
        # four JSON fields can name a host of any order; the check reads the
        # order before it lays out a single block
        big = HostAtlas(SimpleGraph(1000, frozenset()), 1, (100,))
        zero = synthetic([[0] * 8 for _ in range(8)], m=3)
        with pytest.raises(ValueError, match="a 100000-vertex host, the matrix has 8 rows"):
            graphon_pattern_check(zero, big, 1)
        assert "blocks" not in vars(big)

    def test_missing_index_degenerates_to_zero_check(self):
        n, atlas = self._atlas(1)
        zero = synthetic([[0] * n for _ in range(n)], m=3)
        verdict = graphon_pattern_check(zero, atlas, 2)  # no blocks carry index 2
        assert verdict.ok and verdict.a is None


def full_scan_check(dm, atlas, i, max_violations):
    """`graphon_pattern_check` as a scan of all n^2 entries in row-major order."""
    expected = set()
    for a_id, b_id in atlas.base_edge_pairs(i):
        expected |= {(a_id, b_id), (b_id, a_id)}
    violations = []
    common = None
    for x in range(dm.order):
        for y in range(dm.order):
            c = dm.count(x, y)
            if (x, y) in expected:
                if c <= 0:
                    violations.append((x, y, f"expected positive entry, got {c}"))
                elif common is None:
                    common = c
                elif c != common:
                    violations.append((x, y, f"entry {c} differs from {common}"))
            elif c != 0:
                violations.append((x, y, f"expected zero entry, got {c}"))
            if len(violations) >= max_violations:
                return PatternVerdict(False, None, None, tuple(violations))
    if not expected:
        return PatternVerdict(not violations, None, None, tuple(violations))
    if violations or common is None:
        return PatternVerdict(False, None, None, tuple(violations))
    a = Fraction(common, dm.density_denominator())
    b = math.isqrt(common)
    if b * b != common:
        violations.append((-1, -1, f"common entry {common} is not a perfect square"))
        return PatternVerdict(False, a, None, tuple(violations))
    return PatternVerdict(True, a, b, ())
