"""The feasible region for the (x, y) statistics and its power-sum geometry.

The region is the convex hull of the points (1/r, 1/r^2): inside the unit
square, below the diagonal, and above the chord through consecutive hull
vertices.  Membership is exact for every rational input (Fractions, ints,
and floats, which are dyadic rationals), with an additive tolerance for
sampled float points: each coordinate is read as an integer ratio, and
every comparison is one of integers over a common denominator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .digraphs import Tournament
from .errors import DegenerateHostError
from .gadgets import DoubledGadget
from .spectral import _ratio, density_matrices, xy_point

__all__ = [
    "in_region",
    "in_region_ratio",
    "chord",
    "elementary_from_power",
    "power_from_elementary",
    "hull_point",
    "hull_point_image",
    "equal_mass_minimum_check",
    "verify_region_on_hosts",
    "RegionReport",
]


def chord(r: int) -> tuple[Fraction, Fraction]:
    """Slope and intercept of the hull edge between x = 1/(r+1) and x = 1/r."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    return Fraction(2 * r + 1, r * (r + 1)), Fraction(-1, r * (r + 1))


def in_region(x, y, tol=Fraction(0)) -> bool:
    """Exact membership in the hull of {(1/r, 1/r^2)}, within an additive tolerance.

    Each hull inequality is relaxed by tol.  Each argument is read as an
    integer ratio by `spectral._ratio`, the reader `xy_from_matrix` uses
    too, and in_region_ratio decides.
    """
    a, b = _ratio(x)
    c, d = _ratio(y)
    e, f = _ratio(tol)
    return in_region_ratio(a, b, c, d, e, f)


def in_region_ratio(a: int, b: int, c: int, d: int, e: int, f: int) -> bool:
    """in_region at x = a/b, y = c/d and tol = e/f, for ints with b, d, f > 0.

    Every quantity is scaled by the common denominator D = b d f, so each
    comparison is one of integers.
    """
    if e < 0:
        raise ValueError("tolerance must be nonnegative")
    D = b * d * f
    X, Y, T = a * d * f, c * b * f, e * b * d  # x, y and tol, times D
    if X < -T or X > D + T or Y < -T or Y > D + T:
        return False
    if Y > X + T:
        return False
    if X <= 0:
        # the limit point (0, 0): -tol <= y <= x + tol holds from the checks above
        return True
    r = max(1, b // a)  # floor(1/x)
    # x may sit a hair above 1/r; both adjacent chords agree at the vertex.
    # y >= ((2r + 1) x - 1) / (r (r + 1)) - tol, times D r (r + 1):
    return (Y + T) * r * (r + 1) >= (2 * r + 1) * X - D


# -- Newton identities -----------------------------------------------------------


def elementary_from_power(p1, p2, p3):
    """First three elementary symmetric polynomials from power sums."""
    e1 = p1
    e2 = (p1 * p1 - p2) / 2
    e3 = (p1 * p1 * p1 - 3 * p1 * p2 + 2 * p3) / 6
    return e1, e2, e3


def power_from_elementary(e1, e2, e3):
    """Inverse direction; composes with elementary_from_power to the identity."""
    p1 = e1
    p2 = e1 * e1 - 2 * e2
    p3 = e1 * e1 * e1 - 3 * e1 * e2 + 3 * e3
    return p1, p2, p3


def hull_point(m: int, alpha) -> tuple:
    """(e2, e3) of the equal-mass vector with m coordinates alpha/m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    e2 = alpha * alpha * (m - 1) / (2 * m)
    e3 = alpha**3 * (m - 1) * (m - 2) / (6 * m * m)
    return e2, e3


def hull_point_image(m: int, alpha) -> tuple:
    """The (p2/alpha^2, p3/alpha^3) image of the equal-mass point: (1/m, 1/m^2)."""
    e2, e3 = hull_point(m, alpha)
    p1, p2, p3 = power_from_elementary(alpha, e2, e3)
    return p2 / (alpha * alpha), p3 / (alpha**3)


def equal_mass_minimum_check(
    c2: float,
    c3: float,
    alpha: float = 1.0,
    samples: int = 400,
    max_support: int = 12,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    """Sampled check that c2*e2 + c3*e3 over nonnegative vectors with fixed
    first power sum is minimized at an equal-mass configuration."""
    rng = random.Random(seed)
    equal_mass = min(
        c2 * e2 + c3 * e3
        for e2, e3 in (hull_point(m, alpha) for m in range(1, max_support + 1))
    )
    best_sampled = math.inf
    for _ in range(samples):
        k = rng.randint(1, max_support)
        xs = sorted((rng.random() for _ in range(k)), reverse=True)
        scale = alpha / sum(xs)
        xs = [x * scale for x in xs]
        p2 = sum(x * x for x in xs)
        p3 = sum(x**3 for x in xs)
        _, e2, e3 = elementary_from_power(alpha, p2, p3)
        best_sampled = min(best_sampled, c2 * e2 + c3 * e3)
    return best_sampled >= equal_mass - tol


# -- host verification ------------------------------------------------------------


@dataclass(frozen=True)
class RegionReport:
    checked: int
    skipped_degenerate: int
    failures: tuple[tuple[int, float, float], ...]  # (host index, x, y)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_region_on_hosts(
    dg: DoubledGadget,
    hosts: Sequence[Tournament],
    tol=Fraction(1, 10**9),
) -> RegionReport:
    """Every host's (x, y) point lies in the region; degenerate hosts are skipped."""
    checked = 0
    skipped = 0
    failures = []
    for idx, host in enumerate(hosts):
        [dm] = density_matrices([dg], host)
        try:
            pt = xy_point(dm)
        except DegenerateHostError:
            skipped += 1
            continue
        checked += 1
        if not in_region(pt.x_exact, pt.y_exact, tol):
            failures.append((idx, float(pt.x_exact), float(pt.y_exact)))
    return RegionReport(checked=checked, skipped_degenerate=skipped, failures=tuple(failures))
