"""Density matrices, trace identities, power sums, and the block pattern check."""

import random
from fractions import Fraction

import numpy as np
import pytest

from tournhom.digraphs import random_tournament, transitive_tournament
from tournhom.errors import DegenerateHostError
from tournhom.gadgets import toy_family
from tournhom.homcount import count_hom_rooted_bruteforce
from tournhom.hosts import build_host, single_edge_graph
from tournhom.spectral import (
    DensityMatrix,
    _power_traces,
    density_matrix,
    graphon_pattern_check,
    necklace_count_trace,
    necklace_density_direct,
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
                assert dm.count(x, y) == count_hom_rooted_bruteforce(TOY.rooted, t, x, y)

    def test_sweep_matches_pairs(self):
        for seed in range(6):
            t = random_tournament(5, seed)
            assert density_matrix(TOY, t, method="sweep") == density_matrix(
                TOY, t, method="pairs"
            )

    def test_symmetry_validated(self):
        with pytest.raises(ValueError, match="not symmetric"):
            synthetic([[0, 1], [2, 0]])

    def test_diagonal_zero_when_roots_separated_by_path(self):
        # the gadget routes z -> v -> w, so equal root images are impossible
        for seed in range(4):
            t = random_tournament(5, seed)
            dm = density_matrix(TOY, t)
            assert all(dm.count(x, x) == 0 for x in range(5))

    def test_density_normalization(self):
        t = random_tournament(4, 3)
        dm = density_matrix(TOY, t)
        assert dm.density(0, 1) == Fraction(dm.count(0, 1), 4**6)


class TestTraceIdentity:
    def test_exact_necklace_counts(self):
        for seed in range(8):
            for n in (4, 5):
                t = random_tournament(n, 31 * seed + n)
                dm = density_matrix(TOY, t)
                for ell in (3, 4):
                    assert necklace_density_direct(TOY, t, ell) == necklace_density_trace(
                        dm, ell
                    )

    def test_bare_arc_necklace_is_cycle_density(self):
        from tournhom.digraphs import Digraph, RootedDigraph
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
            lam = dm.eigenvalues()
            for ell in range(3, 13):
                spectral = float(np.sum(lam**ell))
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

    def test_nonsymmetric_traces_match_full_matrix_power(self):
        # row 0 is nonzero but column 0 is zero, row 3 is zero but column 3
        # is not: neither index lies on a closed walk
        H = [
            [0, 5, 7, 2, 0],
            [0, 1, 3, 4, 2],
            [0, 2, 0, 9, 1],
            [0, 0, 0, 0, 0],
            [0, 6, 1, 8, 3],
        ]
        assert _power_traces(H, self.ELLS) == object_traces(H, self.ELLS)
        rng = random.Random(8)
        for trial in range(30):
            n = rng.randint(2, 10)
            H = [[rng.choice([0, 0, rng.randint(-5, 9)]) for _ in range(n)] for _ in range(n)]
            for i in rng.sample(range(n), rng.randint(0, n)):
                H[i] = [0] * n
            for j in rng.sample(range(n), rng.randint(0, n)):
                for row in H:
                    row[j] = 0
            assert _power_traces(H, self.ELLS) == object_traces(H, self.ELLS)

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
        rng = random.Random(4)
        for trial in range(20):
            n = rng.randint(2, 12)
            zero_rows = rng.sample(range(n), rng.randint(1, n - 1))
            H = random_symmetric(rng, n, zero_rows)
            lam = synthetic(H).eigenvalues()
            assert len(lam) == n
            assert np.count_nonzero(lam == 0) >= len(zero_rows)
            assert np.all(np.abs(lam[:-1]) >= np.abs(lam[1:]))
            full = np.linalg.eigvalsh(np.array(H, dtype=float))
            scale = max(1.0, float(np.max(np.abs(full))))
            assert np.allclose(np.sort(lam), np.sort(full), atol=1e-9 * scale, rtol=0)


class TestSyntheticSpectra:
    def test_two_by_two_closed_form(self):
        dm = synthetic([[0, 3], [3, 0]])
        lam = dm.eigenvalues()
        assert np.allclose(sorted(lam), [-3, 3])
        assert float(np.sum(lam**4)) == pytest.approx(2 * 3**4)

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

    def test_missing_index_degenerates_to_zero_check(self):
        n, atlas = self._atlas(1)
        zero = synthetic([[0] * n for _ in range(n)], m=3)
        verdict = graphon_pattern_check(zero, atlas, 2)  # no blocks carry index 2
        assert verdict.ok and verdict.a is None
