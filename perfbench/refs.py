"""References the benchmark checks tournhom's outputs against.

Nothing here calls tournhom.  Each check returns None when the output is
right and a one-line reason when it is wrong, so a test can show that the
check rejects a wrong answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


# -- closed walks and the (x, y) closed form ------------------------------------------


def closed_walks(n: int, edges: Iterable[tuple[int, int]], k: int) -> int:
    """Number of closed k-walks of a simple graph: trace(A^k) in integers."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    total = 0
    for start in range(n):
        walks = [0] * n
        walks[start] = 1
        for _ in range(k):
            nxt = [0] * n
            for v, c in enumerate(walks):
                if c:
                    for u in adj[v]:
                        nxt[u] += c
            walks = nxt
        total += walks[start]
    return total


def xy_closed_form(n: int, edges, r: int) -> tuple[Fraction, Fraction]:
    """(t8 / (r t4^2), t12 / (r^2 t4^3)) for a matrix that is c A_G on r blocks.

    The trace of the k-th power of such a matrix is r c^k t_k, so c cancels.
    """
    edges = list(edges)
    t4, t8, t12 = (closed_walks(n, edges, k) for k in (4, 8, 12))
    return Fraction(t8, r * t4**2), Fraction(t12, r**2 * t4**3)


def xy_error(point, x_ref: Fraction, y_ref: Fraction, tol: float = 1e-9) -> str | None:
    """An XYPoint must match the closed form exactly and its float twin to tol."""
    if point.x_exact != x_ref or point.y_exact != y_ref:
        return f"exact ({point.x_exact}, {point.y_exact}) != closed form ({x_ref}, {y_ref})"
    if abs(point.x - float(x_ref)) > tol or abs(point.y - float(y_ref)) > tol:
        return f"float ({point.x!r}, {point.y!r}) off the closed form by more than {tol}"
    return None


# -- the block pattern of a count matrix -----------------------------------------------


def host_edge_pairs(
    n: int, edges: Iterable[tuple[int, int]], m: int, blocks: Sequence[int]
) -> set[tuple[int, int]]:
    """Host ids of the base-edge root pairs, both orientations, in the given blocks.

    A block is n base vertices followed by one 2m-vertex cell per edge;
    block b starts at b times the block size.
    """
    edges = sorted(edges)
    size = n + len(edges) * 2 * m
    pairs = set()
    for b in blocks:
        off = b * size
        for a, c in edges:
            pairs.add((off + a, off + c))
            pairs.add((off + c, off + a))
    return pairs


def square_root(c: int) -> int | None:
    r = math.isqrt(c)
    return r if r * r == c else None


def pattern_error(counts, expected: set[tuple[int, int]]) -> str | None:
    """Nonzero exactly on the expected pairs, one common value, a perfect square."""
    common = None
    for x, row in enumerate(counts):
        for y, c in enumerate(row):
            if (x, y) in expected:
                if c <= 0:
                    return f"entry ({x}, {y}) is {c}, expected positive"
                if common is None:
                    common = c
                elif c != common:
                    return f"entry ({x}, {y}) is {c}, others {common}"
            elif c != 0:
                return f"entry ({x}, {y}) is {c}, expected 0"
    if common is None or square_root(common) is None:
        return f"common entry {common} is not a positive perfect square"
    return None


def pinned_error(value: int, on_edge: bool, common: int | None) -> str | None:
    """A pinned count at a base-edge pair is the common positive square; else 0."""
    if not on_edge:
        return None if value == 0 else f"off-edge pair counted {value}, expected 0"
    if value <= 0 or square_root(value) is None:
        return f"base-edge pair counted {value}, expected a positive perfect square"
    if common is not None and value != common:
        return f"base-edge pair counted {value}, other base-edge pairs {common}"
    return None


# -- the feasible region ---------------------------------------------------------------------


def in_hull(x: Fraction, y: Fraction, tol: Fraction = Fraction(0)) -> bool:
    """Membership in the hull of {(1/r, 1/r^2)} by integer cross-multiplication.

    The hull lies in [0, 1]^2 below y = x; its lower boundary is the largest
    of the supporting lines through consecutive vertices, which for x > 0 is
    attained at r = floor(1/x) or a neighbour, so three lines are compared;
    for x <= 0 it is their supremum 0, the limit point (0, 0).  Every
    inequality is relaxed by tol.  With everything over one positive
    denominator D, each comparison is one of integers.
    """
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    e, f = tol.numerator, tol.denominator
    D = b * d * f
    X, Y, T = a * d * f, c * b * f, e * b * d  # x, y, tol times D
    if X < -T or X > D + T or Y < -T or Y > D + T or Y > X + T:
        return False
    if X <= 0:
        return True  # -tol <= y <= x + tol, checked above
    q = max(1, b // a)
    for r in {max(1, q - 1), q, q + 1}:
        # y >= ((2r + 1) x - 1) / (r (r + 1)) - tol, times D r (r + 1)
        if (Y + T) * r * (r + 1) < (2 * r + 1) * X - D:
            return False
    return True


# -- maps into a planted host ---------------------------------------------------------------


def map_error(arcs, host_arcs: set[tuple[int, int]], images: Sequence[int]) -> str | None:
    """A homomorphism sends every arc to a host arc; into a tournament it is injective."""
    for u, v in arcs:
        if (images[u], images[v]) not in host_arcs:
            return f"arc ({u}, {v}) goes to ({images[u]}, {images[v]}), not a host arc"
    if len(set(images)) != len(images):
        return "map is not injective"
    return None


def twin_substitutions(n: int, twins: dict[int, int]) -> set[tuple[int, ...]]:
    """The identity map with every subset of the twinned vertices sent to its twin."""
    out = {tuple(range(n))}
    for v, t in twins.items():
        out |= {tuple(t if i == v else g for i, g in enumerate(m)) for m in out}
    return out
