"""Conditional-count matrices, necklace densities, and power-sum statistics.

Two arithmetic tiers: the integer count matrix H with H[x][y] =
hom_{x,y}(doubled gadget, host) supports exact trace identities
(hom of the length-l necklace equals trace(H^l) in plain integers), while
eigenvalue power sums run in floats.  The (x, y) statistics are ratios in
which the host-size normalization cancels, so they come in an exact
rational twin next to the float spectral value.

Every trace and spectrum runs on the support of the matrix: the indices
whose row and column both hold a nonzero entry.  A closed walk leaves an
index through its row and enters it through its column, so it stays on
the support, and tr H^l (l >= 1) of the compressed matrix equals that of
the full one.  For a symmetric H the indices off the support carry zero
rows and columns, so the nonzero eigenvalues agree as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .digraphs import Tournament
from .errors import DegenerateHostError
from .gadgets import DoubledGadget, build_necklace
from .homcount import count_hom, count_hom_rooted, rooted_count_matrix
from .hosts import HostAtlas

__all__ = [
    "DensityMatrix",
    "density_matrix",
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
        bad = _first_asymmetry(self.counts)
        if bad is not None:
            raise ValueError(f"count matrix not symmetric at {bad}")

    def count(self, x: int, y: int) -> int:
        return self.counts[x][y]

    def density(self, x: int, y: int) -> Fraction:
        return Fraction(self.counts[x][y], self.order ** (2 * self.m))

    def density_denominator(self) -> int:
        return self.order ** (2 * self.m)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the count matrix, by descending magnitude.

        Computed on the support; the indices off it add exact zeros.
        """
        H = _support_matrix(self.counts)
        eig = np.zeros(self.order)
        if H:
            eig[: len(H)] = np.linalg.eigvalsh(np.array(H, dtype=float))
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


# -- the support, and exact traces on it ------------------------------------------------


def _first_asymmetry(rows) -> tuple[int, int] | None:
    """The first (i, j), j < i in row-major order, with rows[i][j] != rows[j][i].

    Only nonzero entries are compared with their mirror: a zero entry whose
    mirror is nonzero is found from the mirror's side.
    """
    bad = None
    for i, row in enumerate(rows):
        for j in compress(range(len(row)), row):
            if rows[j][i] != row[j]:
                pair = (max(i, j), min(i, j))
                if bad is None or pair < bad:
                    bad = pair
    return bad


def _support_matrix(rows) -> list[list]:
    """The square matrix restricted to the indices whose row and column are nonzero."""
    nonzero_rows = [i for i, row in enumerate(rows) if any(row)]
    nonzero_cols = set()
    for i in nonzero_rows:
        nonzero_cols.update(compress(range(len(rows[i])), rows[i]))
    support = [i for i in nonzero_rows if i in nonzero_cols]
    return [[rows[i][j] for j in support] for i in support]


def _mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    n = len(A)
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


def _power_traces(rows, ells) -> dict[int, int]:
    """Exact traces of H^l (l >= 1) for each requested l via repeated squaring
    on the support of the square matrix H."""
    if any(ell < 1 for ell in ells):
        raise ValueError("trace powers must be at least 1")
    H = _support_matrix(rows)
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
    return _power_traces(dm.counts, [ell])[ell]


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


def _xy(rows, unit: int) -> XYPoint:
    """The (x, y) statistics of a symmetric matrix whose traces are p_l * unit^l.

    The exact twin comes from the traces of H^4, H^8 and H^12.  The float
    twin comes from the support matrix divided exactly by its largest
    |entry|: x and y do not change with scale, and the scaled entries lie
    in [-1, 1], so none overflows a float.
    """
    H = _support_matrix(rows)
    traces = _power_traces(H, [4, 8, 12])
    if traces[4] == 0:
        raise DegenerateHostError("fourth power sum vanishes: the matrix is zero")
    top = max(abs(c) for row in H for c in row)
    lam = np.linalg.eigvalsh(np.array([[float(c / top) for c in row] for row in H]))
    s4 = float(np.sum(lam**4))
    s8 = float(np.sum(lam**8))
    s12 = float(np.sum(lam**12))
    return XYPoint(
        x=s8 / s4**2,
        y=s12 / s4**3,
        x_exact=Fraction(traces[8], traces[4] ** 2),
        y_exact=Fraction(traces[12], traces[4] ** 3),
        p4=Fraction(traces[4], unit**4),
        p8=Fraction(traces[8], unit**8),
        p12=Fraction(traces[12], unit**12),
    )


def xy_from_matrix(rows: list[list[Fraction]]) -> XYPoint:
    """The (x, y) statistics of an arbitrary symmetric rational matrix.

    The host-size normalization cancels in both ratios, so this works on
    count and density matrices alike.  A matrix that is not square or not
    symmetric raises ValueError.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    bad = _first_asymmetry(rows)
    if bad is not None:
        raise ValueError(f"matrix not symmetric at {bad}")
    return _xy(rows, 1)


def xy_point(dm: DensityMatrix) -> XYPoint:
    """x = p8 / p4^2 and y = p12 / p4^3 from the 4l-necklace power sums.

    Degeneracy (p4 = 0, equivalently a zero count matrix) is detected
    exactly, never by a float threshold.
    """
    return _xy(dm.counts, dm.order ** (2 * dm.m + 1))


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
