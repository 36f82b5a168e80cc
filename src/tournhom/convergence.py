"""Convergence experiment: spectral-gap graphs drive (x, y) toward (1/r, 1/r^2).

The host construction turns a d-regular graph G with a large spectral gap
into tournaments whose (x, y) statistics are rational functions of G's
adjacency spectrum; as the gap grows the statistics approach the hull
vertex (1/r, 1/r^2).  The study measures the trajectory on random regular
graphs (pairing model; triangle-freeness of the explicit expander family
it stands in for is not consumed by any formula, only the gap is) and
certifies each size with the measured second eigenvalue through the
two-sided bracket of deviation_bracket.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .gadgets import GadgetFamily
from .errors import SamplingError
from .hosts import SimpleGraph, build_host
from .spectral import density_matrices, xy_point

__all__ = [
    "random_regular_graph",
    "adjacency_spectrum",
    "closed_form_xy",
    "ConvergenceRow",
    "deviation_bracket",
    "within_deviation_bracket",
    "check_copy_counts",
    "convergence_study",
    "pipeline_cross_check",
    "default_degree",
]


def default_degree(n: int) -> int:
    return math.ceil(n ** (2 / 3))


def random_regular_graph(n: int, d: int, seed: int) -> SimpleGraph:
    """Pairing-model d-regular graph; clashing stubs are reshuffled and repaired
    rather than restarting the whole pairing, which would never succeed at
    the densities used here."""
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    rng = random.Random(seed)

    def suitable(edges, leftover) -> bool:
        if not leftover:
            return True
        verts = sorted(leftover)
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                if u != v and (u, v) not in edges:
                    return True
        return False

    def attempt() -> frozenset | None:
        edges: set[tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            leftover: dict[int, int] = {}
            rng.shuffle(stubs)
            for u, v in zip(stubs[::2], stubs[1::2]):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    leftover[u] = leftover.get(u, 0) + 1
                    leftover[v] = leftover.get(v, 0) + 1
            if not suitable(edges, leftover):
                return None
            stubs = [v for v, count in sorted(leftover.items()) for _ in range(count)]
        return frozenset(edges)

    for _ in range(200):
        edges = attempt()
        if edges is not None:
            return SimpleGraph(n, edges)
    raise SamplingError(f"no simple {d}-regular pairing on {n} vertices in 200 tries")


def adjacency_spectrum(G: SimpleGraph) -> np.ndarray:
    """Adjacency eigenvalues in descending order."""
    A = np.zeros((G.n, G.n))
    for a, b in G.edges:
        A[a, b] = A[b, a] = 1.0
    return np.linalg.eigvalsh(A)[::-1]


def closed_form_xy(eigs: np.ndarray, r: int) -> tuple[float, float]:
    """(x, y) of the host built on r copies, from the one-copy spectrum."""
    s4 = float(np.sum(eigs**4))
    s8 = float(np.sum(eigs**8))
    s12 = float(np.sum(eigs**12))
    return s8 / (r * s4**2), s12 / (r**2 * s4**3)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    d: int
    r: int
    lambda1: float
    lambda2: float  # second-largest magnitude
    x: float
    y: float
    err_x: float  # |x - 1/r|
    err_y: float
    tail_bound_4: float  # (n-1) * (lambda2/lambda1)^4
    tail_bound_8: float  # (n-1) * (lambda2/lambda1)^8
    tail_bound_12: float
    stated_bound: float  # 3 * (n q^8 + n q^12); reported only, it omits the q^4 tail

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def deviation_bracket(n: int, q: float, r: int) -> tuple[float, float, float, float]:
    """Certified bracket (lo_x, hi_x, lo_y, hi_y) on the signed deviations
    1/r - x and 1/r^2 - y of closed_form_xy for an n-vertex regular graph
    with spectral ratio q = |lambda_2| / lambda_1.

    With T_k = sum_{i>=2} (lambda_i / lambda_1)^k, closed_form_xy gives
    x = (1 + T8) / (r (1 + T4)^2) and y = (1 + T12) / (r^2 (1 + T4)^3), so

        1/r - x   = (2 T4 + T4^2 - T8) / (r (1 + T4)^2)
        1/r^2 - y = ((1 + T4)^3 - 1 - T12) / (r^2 (1 + T4)^3).

    The deviation is first order in the fourth-power tail T4.  Since
    0 <= T8 <= T4^2, 0 <= T12 <= T4^3 and q^4 <= T4 <= t4 = (n - 1) q^4:

        2 q^4 / (r (1 + t4)^2)     <= 1/r - x   <= (1 - (1 + t4)^-2) / r
        3 q^4 / (r^2 (1 + t4)^3)   <= 1/r^2 - y <= (1 - (1 + t4)^-3) / r^2
    """
    q4 = q**4
    t4 = (n - 1) * q4
    return (
        2 * q4 / (r * (1 + t4) ** 2),
        (1 - (1 + t4) ** -2) / r,
        3 * q4 / (r**2 * (1 + t4) ** 3),
        (1 - (1 + t4) ** -3) / r**2,
    )


def within_deviation_bracket(x: float, y: float, r: int, n: int, q: float) -> bool:
    """True when (x, y) deviates from (1/r, 1/r^2) inside deviation_bracket."""
    lo_x, hi_x, lo_y, hi_y = deviation_bracket(n, q, r)
    return lo_x <= 1 / r - x <= hi_x and lo_y <= 1 / r**2 - y <= hi_y


def check_copy_counts(r_values: list[int]) -> None:
    """Refuse an empty list of copy counts r, or one below 1."""
    if not r_values or min(r_values) < 1:
        raise ValueError(f"the copy counts r must be one or more integers >= 1, got {r_values}")


def convergence_study(
    sizes: list[int],
    r_values: list[int],
    seed: int = 0,
) -> list[ConvergenceRow]:
    check_copy_counts(r_values)
    if min(sizes, default=1) < 1:
        raise ValueError(f"the sizes n must be integers >= 1, got sizes {sizes}")
    for n in sizes:
        d = default_degree(n)
        if d >= n or n * d % 2:
            raise ValueError(
                f"size n={n} has no {d}-regular graph (d = ceil(n^(2/3)) needs d < n "
                f"and n * d even), got sizes {sizes}"
            )
    rows = []
    for idx, n in enumerate(sizes):
        d = default_degree(n)
        G = random_regular_graph(n, d, seed=seed * 1000 + idx)
        eigs = adjacency_spectrum(G)
        lam1 = float(eigs[0])
        lam2 = float(np.max(np.abs(eigs[1:])))
        q = lam2 / lam1
        for r in r_values:
            x, y = closed_form_xy(eigs, r)
            rows.append(
                ConvergenceRow(
                    n=n,
                    d=d,
                    r=r,
                    lambda1=lam1,
                    lambda2=lam2,
                    x=x,
                    y=y,
                    err_x=abs(x - 1 / r),
                    err_y=abs(y - 1 / r**2),
                    tail_bound_4=(n - 1) * q**4,
                    tail_bound_8=(n - 1) * q**8,
                    tail_bound_12=(n - 1) * q**12,
                    stated_bound=3 * (n * q**8 + n * q**12),
                )
            )
    return rows


def pipeline_cross_check(G: SimpleGraph, family: GadgetFamily, r: int) -> dict:
    """Full tournament pipeline versus the adjacency-spectrum closed form.

    Builds the stacked host with r copies of the first gadget's block,
    computes that gadget's conditional-count matrix over every host pair,
    takes its (x, y) point, and compares with closed_form_xy on G's
    spectrum.  Exact agreement needs the block pattern to hold at that
    gadget's scale.
    """
    host, atlas = build_host(G, family, [r] + [1] * (family.s - 1))
    [dm] = density_matrices(family.doubled[:1], host)
    pt = xy_point(dm)
    eigs = adjacency_spectrum(G)
    cx, cy = closed_form_xy(eigs, r)
    return {
        "host_size": host.n,
        "pipeline_x": pt.x,
        "pipeline_y": pt.y,
        "closed_form_x": cx,
        "closed_form_y": cy,
        "gap_x": abs(pt.x - cx),
        "gap_y": abs(pt.y - cy),
    }
