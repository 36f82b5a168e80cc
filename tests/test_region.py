"""Region membership geometry and Newton identity round trips."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tournhom.digraphs import random_tournament
from tournhom.gadgets import toy_family
from tournhom.region import (
    chord,
    elementary_from_power,
    equal_mass_minimum_check,
    hull_point,
    hull_point_image,
    in_region,
    power_from_elementary,
    verify_region_on_hosts,
)

TOY = toy_family(3, (2,)).doubled[0]


def fraction_in_region(x, y, tol=Fraction(0)) -> bool:
    """The dense Fraction formula that in_region replaced, kept as its reference."""
    x, y, tol = Fraction(x), Fraction(y), Fraction(tol)
    if x < -tol or x > 1 + tol or y < -tol or y > 1 + tol:
        return False
    if y > x + tol:
        return False
    if x <= 0:
        return True
    r = max(1, math.floor(1 / x))
    slope, intercept = chord(r)
    return y >= slope * x + intercept - tol


class TestIntegerTestAgreesWithFractionFormula:
    TOLS = (Fraction(0), Fraction(1, 10**9), Fraction(1, 100), 0, 1e-9, 0.0)

    @staticmethod
    def log_uniform_r(rng):
        return max(1, int(10**6 ** rng.random()))

    def points(self, rng):
        for _ in range(1500):  # hull vertices up to r = 10^6
            r = self.log_uniform_r(rng)
            yield Fraction(1, r), Fraction(1, r * r)
        yield Fraction(1, 10**6), Fraction(1, 10**12)
        for _ in range(1500):  # on a chord, and 1e-30 above and below it
            r = self.log_uniform_r(rng)
            lo, hi = Fraction(1, r + 1), Fraction(1, r)
            x = lo + Fraction(rng.randint(0, 1000), 1000) * (hi - lo)
            y = ((2 * r + 1) * x - 1) / (r * (r + 1))
            for off in (0, 1, -1):
                yield x, y + off * Fraction(1, 10**30)
        for _ in range(1500):  # floats, x > 1 and y < 0 included
            yield rng.uniform(-0.01, 1.2), rng.uniform(-0.01, 1.2)
        for _ in range(1500):  # rationals on a grid around the unit square
            yield Fraction(rng.randint(-5, 1100), 1000), Fraction(rng.randint(-5, 1100), 1000)

    def test_random_points(self):
        rng = random.Random(11)
        inside = 0
        for x, y in self.points(rng):
            tol = rng.choice(self.TOLS)
            expected = fraction_in_region(x, y, tol)
            assert in_region(x, y, tol) == expected, (x, y, tol)
            inside += expected
        assert 0 < inside

    def test_band_near_origin(self):
        # 0 < x <= tol, y anywhere within a few tol of the hull
        rng = random.Random(12)
        for _ in range(3000):
            tol = rng.choice([Fraction(1, 10**9), Fraction(1, 100), 1e-9, 0.01])
            x = Fraction(tol) * Fraction(rng.randint(1, 1000), 1000)
            y = Fraction(tol) * Fraction(rng.randint(-2000, 3000), 1000)
            for px, py in ((x, y), (float(x), float(y))):
                assert in_region(px, py, tol) == fraction_in_region(px, py, tol), (px, py, tol)


class TestInRegion:
    def test_hull_vertex(self):
        assert in_region(Fraction(1, 2), Fraction(1, 4))

    def test_above_diagonal_rejected(self):
        assert not in_region(0.3, 0.35)

    def test_chord_cuts_point(self):
        # r = 2 chord: (5 * 0.4 - 1) / 6 = 1/6 > 0.14
        assert not in_region(0.4, 0.14)
        assert in_region(0.4, float(Fraction(1, 6)) + 1e-12, tol=1e-9)

    def test_origin_limit_point(self):
        assert in_region(0, 0)
        assert not in_region(0, 0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            in_region(math.nan, 0.5)

    def test_infinity_rejected(self):
        for bad in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="not a point"):
                in_region(0.5, bad)

    def test_other_types_rejected(self):
        with pytest.raises(TypeError):
            in_region("0.5", 0.25)
        with pytest.raises(TypeError):
            in_region(0.5, 0.25, tol=complex(0))

    def test_numpy_integers_read_as_python_ints(self):
        np = pytest.importorskip("numpy")
        assert in_region(np.int64(1), np.int64(1), Fraction(1, 10**30))
        assert not in_region(np.int64(0), np.int64(1), Fraction(1, 10**30))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            in_region(0.5, 0.25, tol=-1e-9)

    def test_hull_vertices_exact_small(self):
        for r in range(1, 2000):
            assert in_region(Fraction(1, r), Fraction(1, r * r))

    def test_hull_vertices_exact_large_sample(self):
        for r in list(range(2000, 10**6, 7919)) + [10**6]:
            assert in_region(Fraction(1, r), Fraction(1, r * r))

    def test_point_below_all_chords_rejected(self):
        assert not in_region(Fraction(1, 2), Fraction(1, 5))

    @given(st.integers(1, 10**6))
    @settings(max_examples=80)
    def test_vertices_property(self, r):
        assert in_region(Fraction(1, r), Fraction(1, r * r))

    def test_tolerance_band_near_origin(self):
        # both points lie tol above the hull edge y = x; every hull
        # inequality is relaxed by tol, near the origin too
        tol = Fraction(1, 10**9)
        assert in_region(tol / 2, 3 * tol / 2, tol)
        assert in_region(2 * tol, 3 * tol, tol)
        assert not in_region(tol / 2, 3 * tol / 2 + Fraction(1, 10**30), tol)

    def test_unit_square_bounds(self):
        assert not in_region(1.2, 0.5)
        assert not in_region(0.5, -0.1)


class TestChord:
    def test_consecutive_vertices_symbolically(self):
        for r in [1, 2, 3, 10, 97, 1000]:
            x1, y1 = Fraction(1, r + 1), Fraction(1, (r + 1) ** 2)
            x2, y2 = Fraction(1, r), Fraction(1, r * r)
            slope = (y2 - y1) / (x2 - x1)
            intercept = y1 - slope * x1
            assert (slope, intercept) == chord(r)
            assert slope == Fraction(2 * r + 1, r * (r + 1))
            assert intercept == Fraction(-1, r * (r + 1))


class TestNewton:
    def test_half_half_vector(self):
        p = (1, Fraction(1, 2), Fraction(1, 4))
        assert elementary_from_power(*p) == (1, Fraction(1, 4), 0)

    def test_single_one(self):
        assert elementary_from_power(1, 1, 1) == (1, 0, 0)

    def test_single_support_round_trip_exact(self):
        for a in (Fraction(3, 7), Fraction(2), Fraction(1, 13)):
            p = (a, a * a, a**3)
            e = elementary_from_power(*p)
            assert e[1] == 0 and e[2] == 0
            assert power_from_elementary(*e) == p

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
    )
    @settings(max_examples=60)
    def test_round_trip_float(self, xs):
        p1 = sum(xs)
        p2 = sum(x * x for x in xs)
        p3 = sum(x**3 for x in xs)
        q1, q2, q3 = power_from_elementary(*elementary_from_power(p1, p2, p3))
        assert abs(q1 - p1) <= 1e-12 * max(1, abs(p1))
        assert abs(q2 - p2) <= 1e-12 * max(1, abs(p2))
        assert abs(q3 - p3) <= 1e-12 * max(1, abs(p3))

    def test_round_trip_exact_rationals(self):
        rng = random.Random(0)
        for _ in range(20):
            xs = [Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(3)]
            p = (sum(xs), sum(x * x for x in xs), sum(x**3 for x in xs))
            assert power_from_elementary(*elementary_from_power(*p)) == p


class TestHullPoint:
    def test_m1_maps_to_corner(self):
        assert hull_point(1, Fraction(1)) == (0, 0)
        assert hull_point_image(1, Fraction(1)) == (1, 1)

    def test_m2(self):
        assert hull_point(2, Fraction(1)) == (Fraction(1, 4), 0)
        assert hull_point_image(2, Fraction(1)) == (Fraction(1, 2), Fraction(1, 4))

    def test_m3(self):
        assert hull_point(3, Fraction(1)) == (Fraction(1, 3), Fraction(1, 27))
        assert hull_point_image(3, Fraction(1)) == (Fraction(1, 3), Fraction(1, 9))

    def test_image_independent_of_alpha(self):
        for m in (2, 5, 9):
            for alpha in (Fraction(1, 3), Fraction(7, 2)):
                assert hull_point_image(m, alpha) == (Fraction(1, m), Fraction(1, m * m))

    def test_images_are_hull_vertices(self):
        for m in range(1, 30):
            x, y = hull_point_image(m, Fraction(2, 3))
            assert in_region(x, y)


class TestEqualMassMinimum:
    def test_random_objectives(self):
        rng = random.Random(5)
        for trial in range(8):
            c2 = rng.uniform(-2, 2)
            c3 = rng.uniform(-2, 2)
            assert equal_mass_minimum_check(c2, c3, seed=trial, tol=1e-9)


class TestHostContainment:
    def test_small_host_batch(self):
        hosts = [random_tournament(random.Random(s).randint(3, 7), s) for s in range(40)]
        report = verify_region_on_hosts(TOY, hosts)
        assert report.ok
        assert report.checked + report.skipped_degenerate == 40
        assert report.checked > 0
