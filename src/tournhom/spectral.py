"""Conditional-count matrices, necklace densities, and power-sum statistics.

Two arithmetic tiers: the integer count matrix H with H[x][y] =
hom_{x,y}(doubled gadget, host) supports exact trace identities
(hom of the length-l necklace equals trace(H^l) in plain integers), while
eigenvalue power sums run in floats.  The (x, y) statistics are ratios in
which the host-size normalization cancels, so they come in an exact
rational twin next to the float spectral value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digraphs import Tournament
from .errors import DegenerateHostError
from .gadgets import DoubledGadget, build_necklace
from .homcount import count_hom, count_hom_rooted, rooted_count_matrix
from .hosts import HostAtlas

__all__ = [
    "DensityMatrix",
    "density_matrix",
    "conditional_count_entries",
    "necklace_count_trace",
    "necklace_density_trace",
    "necklace_density_direct",
    "necklace_density_spectral",
    "xy_from_matrix",
    "xy_point",
    "XYPoint",
    "PatternVerdict",
    "graphon_pattern_check",
]


@dataclass(frozen=True)
class DensityMatrix:
    """Symmetric conditional-count matrix of a doubled gadget in a host."""

    order: int
    m: int
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for x in range(self.order):
            for y in range(x):
                if self.counts[x][y] != self.counts[y][x]:
                    raise ValueError(f"count matrix not symmetric at ({x}, {y})")

    def count(self, x: int, y: int) -> int:
        return self.counts[x][y]

    def density(self, x: int, y: int) -> Fraction:
        return Fraction(self.counts[x][y], self.order ** (2 * self.m))

    def density_denominator(self) -> int:
        return self.order ** (2 * self.m)

    def count_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=float)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the count matrix, by descending magnitude."""
        eig = np.linalg.eigvalsh(self.count_array())
        return eig[np.argsort(-np.abs(eig), kind="stable")]

    def kernel_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the density matrix seen as a step kernel.

        Matrix eigenvalues of the rational density matrix, divided by the
        host order; their power sums are the necklace densities.
        """
        scale = float(Fraction(1, self.order ** (2 * self.m + 1)))
        return self.eigenvalues() * scale

    def is_zero(self) -> bool:
        return all(not any(row) for row in self.counts)


def density_matrix(
    dg: DoubledGadget,
    T: Tournament,
    method: str = "auto",
    max_nodes: int | None = None,
) -> DensityMatrix:
    """All conditional counts of the doubled gadget in the host.

    method "pairs" runs one rooted count per unordered vertex pair and
    mirrors it; "sweep" enumerates each half-gadget once over the whole
    host and multiplies the two root-pair matrices.  Both are exact.
    """
    n = T.n
    if method == "auto":
        method = "sweep" if n > 24 else "pairs"
    if method == "pairs":
        rows = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(x, n):
                c = count_hom_rooted(dg.rooted, T, x, y, max_nodes)
                rows[x][y] = c
                rows[y][x] = c
    elif method == "sweep":
        left = rooted_count_matrix(dg.left_pattern(), T, max_nodes)
        right = rooted_count_matrix(dg.right_pattern(), T, max_nodes)
        rows = [
            [left[x][y] * right[x][y] for y in range(n)] for x in range(n)
        ]
    else:
        raise ValueError(f"unknown method {method!r}")
    return DensityMatrix(order=n, m=dg.m, counts=tuple(tuple(r) for r in rows))


def conditional_count_entries(
    dg: DoubledGadget,
    T: Tournament,
    pairs: list[tuple[int, int]],
    max_nodes: int | None = None,
) -> dict[tuple[int, int], int]:
    """Independent per-pair recounts, for spot-checking a full matrix."""
    return {
        (x, y): count_hom_rooted(dg.rooted, T, x, y, max_nodes) for x, y in pairs
    }


# -- exact traces -----------------------------------------------------------------


def _mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n = len(A)
    Bt = list(zip(*B))
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(A):
        out_i = out[i]
        for k, a in enumerate(row):
            if a:
                Bk = B[k]
                for j in range(n):
                    b = Bk[j]
                    if b:
                        out_i[j] += a * b
    return out


def _power_traces(H: list[list[int]], ells: list[int]) -> dict[int, int]:
    """Exact traces of H^l for each requested l via repeated squaring."""
    powers: dict[int, list[list[int]]] = {1: H}

    def get(e: int) -> list[list[int]]:
        if e in powers:
            return powers[e]
        half = e // 2
        if e % 2 == 0:
            M = _mat_mul(get(half), get(half))
        else:
            M = _mat_mul(get(e - 1), H)
        powers[e] = M
        return M

    out = {}
    for ell in ells:
        M = get(ell)
        out[ell] = sum(M[i][i] for i in range(len(H)))
    return out


def necklace_count_trace(dm: DensityMatrix, ell: int) -> int:
    """hom of the length-l necklace, as trace(H^l) in exact integers."""
    H = [list(row) for row in dm.counts]
    return _power_traces(H, [ell])[ell]


def necklace_density_trace(dm: DensityMatrix, ell: int) -> Fraction:
    """Necklace density via the exact trace; denominator N^(l(2m+1))."""
    return Fraction(necklace_count_trace(dm, ell), dm.order ** (ell * (2 * dm.m + 1)))


def necklace_density_direct(
    dg: DoubledGadget, T: Tournament, ell: int, max_nodes: int | None = None
) -> Fraction:
    """Necklace density by direct backtracking count of the necklace digraph."""
    necklace = build_necklace(dg.rooted, ell)
    if T.n == 0:
        raise ValueError("empty host")
    return Fraction(count_hom(necklace, T, max_nodes), T.n**necklace.n)


def necklace_density_spectral(dm: DensityMatrix, ell: int) -> float:
    """Power sum of the kernel eigenvalues; float image of the necklace density."""
    if ell < 3:
        raise ValueError("necklace length must be at least 3")
    lam = dm.kernel_eigenvalues()
    return float(np.sum(lam**ell))


# -- (x, y) statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class XYPoint:
    x: float
    y: float
    x_exact: Fraction
    y_exact: Fraction
    p4: Fraction  # necklace densities, exact
    p8: Fraction
    p12: Fraction


def xy_from_matrix(rows: list[list[Fraction]]) -> XYPoint:
    """The (x, y) statistics of an arbitrary symmetric rational matrix.

    The host-size normalization cancels in both ratios, so this works on
    count and density matrices alike.
    """
    traces = _power_traces([list(r) for r in rows], [4, 8, 12])
    if traces[4] == 0:
        raise DegenerateHostError("fourth power sum vanishes")
    lam = np.linalg.eigvalsh(np.array([[float(c) for c in r] for r in rows]))
    s4 = float(np.sum(lam**4))
    s8 = float(np.sum(lam**8))
    s12 = float(np.sum(lam**12))
    return XYPoint(
        x=s8 / s4**2,
        y=s12 / s4**3,
        x_exact=Fraction(traces[8], traces[4] ** 2),
        y_exact=Fraction(traces[12], traces[4] ** 3),
        p4=Fraction(traces[4]),
        p8=Fraction(traces[8]),
        p12=Fraction(traces[12]),
    )


def xy_point(dm: DensityMatrix) -> XYPoint:
    """x = p8 / p4^2 and y = p12 / p4^3 from the 4l-necklace power sums.

    Degeneracy (p4 = 0, equivalently a zero count matrix) is detected
    exactly, never by a float threshold.
    """
    traces = _power_traces([list(r) for r in dm.counts], [4, 8, 12])
    if traces[4] == 0:
        raise DegenerateHostError("4-necklace density vanishes on this host")
    x_exact = Fraction(traces[8], traces[4] ** 2)
    y_exact = Fraction(traces[12], traces[4] ** 3)
    lam = dm.eigenvalues()
    s4 = float(np.sum(lam**4))
    s8 = float(np.sum(lam**8))
    s12 = float(np.sum(lam**12))
    unit = dm.order ** (2 * dm.m + 1)
    return XYPoint(
        x=s8 / s4**2,
        y=s12 / s4**3,
        x_exact=x_exact,
        y_exact=y_exact,
        p4=Fraction(traces[4], unit**4),
        p8=Fraction(traces[8], unit**8),
        p12=Fraction(traces[12], unit**12),
    )


# -- block pattern check ----------------------------------------------------------------


@dataclass(frozen=True)
class PatternVerdict:
    ok: bool
    a: Fraction | None  # common nonzero density
    b: int | None  # square root of the common count
    violations: tuple[tuple[int, int, str], ...]


def graphon_pattern_check(
    dm: DensityMatrix, atlas: HostAtlas, i: int, max_violations: int = 16
) -> PatternVerdict:
    """Verify that the count matrix is supported exactly on the block-i base
    edges, with one common positive value that is a perfect square."""
    n = dm.order
    expected = set()
    for a_id, b_id in atlas.base_edge_pairs(i):
        expected.add((a_id, b_id))
        expected.add((b_id, a_id))
    violations: list[tuple[int, int, str]] = []
    common: int | None = None
    for x in range(n):
        row = dm.counts[x]
        for y in range(n):
            c = row[y]
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
        # no base edges for this index: the lemma degenerates to a zero matrix
        return PatternVerdict(not violations, None, None, tuple(violations))
    if violations or common is None:
        return PatternVerdict(False, None, None, tuple(violations))
    b = _exact_isqrt(common)
    if b is None:
        violations.append((-1, -1, f"common entry {common} is not a perfect square"))
        return PatternVerdict(False, Fraction(common, n ** (2 * dm.m)), None, tuple(violations))
    return PatternVerdict(True, Fraction(common, n ** (2 * dm.m)), b, ())


def _exact_isqrt(c: int) -> int | None:
    import math

    r = math.isqrt(c)
    return r if r * r == c else None
