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
rows and columns, so the nonzero eigenvalues agree as well.  A
`DensityMatrix` finds its support once, when it is built, and owns the
two host-size scales that turn its counts and traces into densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from numbers import Integral, Number, Rational
from operator import attrgetter, itemgetter, mul
from typing import Sequence

import numpy as np

from .digraphs import Tournament
from .errors import DegenerateHostError
from .gadgets import DoubledGadget
from .homcount import count_hom_rooted, rooted_count_matrices, rooted_count_matrix
from .hosts import HostAtlas

__all__ = [
    "DensityMatrix",
    "density_matrix",
    "density_matrices",
    "necklace_count_trace",
    "necklace_density_trace",
    "necklace_density_spectral",
    "xy_from_matrix",
    "xy_point",
    "XYPoint",
    "PatternVerdict",
    "graphon_pattern_check",
]


@dataclass(frozen=True)
class DensityMatrix:
    """Symmetric conditional-count matrix of a doubled gadget in a host.

    `support` is the count matrix restricted to its support, found by the
    same pass that checks symmetry, with each entry read as a Python int
    (a fixed-width numpy integer would wrap in the traces); every trace and
    spectrum reads it.  `counts` stay as given.
    Counts that are not `order` x `order` or not symmetric raise ValueError,
    and the first entry in row-major order that is not an integer raises
    TypeError naming it.
    """

    order: int
    m: int
    counts: tuple[tuple[int, ...], ...]
    support: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lengths = set(map(len, self.counts))
        if len(self.counts) != self.order or lengths - {self.order}:
            raise ValueError(
                f"count matrix has {len(self.counts)} rows of lengths {sorted(lengths)}, "
                f"not {self.order} x {self.order}"
            )
        bad = _first_not(self.counts, Integral)
        if bad is not None:
            entry = self.counts[bad[0]][bad[1]]
            raise TypeError(f"count matrix entry {bad} is {entry!r}, not an integer")
        support, bad = _scan(self.counts)
        if bad is not None:
            raise ValueError(f"count matrix not symmetric at {bad}")
        rows = self.counts
        restricted = tuple(tuple(int(rows[i][j]) for j in support) for i in support)
        object.__setattr__(self, "support", restricted)

    def count(self, x: int, y: int) -> int:
        return self.counts[x][y]

    def density_denominator(self) -> int:
        """N^(2m): a count over it is a conditional density."""
        return self.order ** (2 * self.m)

    def necklace_unit(self) -> int:
        """N^(2m+1): the length-l necklace density is tr H^l / necklace_unit()^l."""
        return self.order ** (2 * self.m + 1)

    def is_zero(self) -> bool:
        return not self.support


def density_matrix(dg: DoubledGadget, T: Tournament, method: str = "sweep") -> DensityMatrix:
    """All conditional counts of the doubled gadget in the host, by an
    independent route: the check of `density_matrices`.

    method "pairs" runs one rooted count per unordered vertex pair and
    mirrors it; "sweep" enumerates each half-gadget once over the whole
    host and multiplies the two root-pair matrices, so it checks the mirror
    identity R = L^T that `density_matrices` rests on.
    """
    n = T.n
    if method == "pairs":
        rows = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(x, n):
                c = count_hom_rooted(dg.rooted, T, x, y)
                rows[x][y] = c
                rows[y][x] = c
    elif method == "sweep":
        left = rooted_count_matrix(dg.halves[0], T)
        right = rooted_count_matrix(dg.halves[1], T)
        return _glued(dg, left, right)
    else:
        raise ValueError(f"unknown method {method!r}")
    return DensityMatrix(order=n, m=dg.m, counts=tuple(tuple(r) for r in rows))


def density_matrices(
    doubled: Sequence[DoubledGadget], T: Tournament, max_nodes: int | None = None
) -> list[DensityMatrix]:
    """The density matrix of each doubled gadget, from one sweep of their left halves.

    The right half of a doubled gadget is its left half with the roots
    swapped, which `DoubledGadget` checks when it is built, so its
    root-pair matrix is the transpose of the left half's L, and the matrix
    is H = L o L^T.  The left halves of a family share the base tournament
    as their non-root part, so one search over the host places it for all
    of them (`rooted_count_matrices`); `max_nodes` bounds that search.
    Gadgets with different bases raise ValueError.
    """
    mats = rooted_count_matrices([dg.halves[0] for dg in doubled], T, max_nodes)
    # row x of L^T is column x of L, read only where `_glued` needs it
    return [
        _glued(dg, L, (map(itemgetter(x), L) for x in range(len(L))))
        for dg, L in zip(doubled, mats)
    ]


def _glued(dg: DoubledGadget, left, right) -> DensityMatrix:
    """The parallel gluing of the two halves: their root-pair matrices multiplied
    entrywise.  A row of `left` that is one shared zero (`_zero_row`) is
    one shared zero row, and its row of `right`, which may be an iterator,
    is not read."""
    zero = (0,) * len(left)
    counts = tuple(
        zero if _zero_row(lrow) else tuple(map(mul, lrow, rrow)) for lrow, rrow in zip(left, right)
    )
    return DensityMatrix(order=len(counts), m=dg.m, counts=counts)


# -- the support, and exact traces on it ------------------------------------------------


# CPython keeps a Fraction's parts in the slots `_numerator` and `_denominator` (a
# test pins the layout); attrgetter reads one in C, where Fraction.__bool__ and the
# `numerator` property each run a Python frame
_numerator = attrgetter("_numerator")


def _ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator, as Python ints, of a rational or finite float."""
    if type(value) is Fraction:
        return value._numerator, value._denominator
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"{value} is not a point of the real line")
        return value.as_integer_ratio()  # floats are dyadic rationals, exactly
    if isinstance(value, Rational):
        # e.g. numpy integers, whose fixed-width products would wrap
        return int(value.numerator), int(value.denominator)
    raise TypeError(f"cannot read {type(value).__name__} as an exact number")


def _zero_row(row, read=None) -> bool:
    """Whether a list or tuple row is zero, by one C pass: its first two
    entries are one object, that object is zero (it tests false, or, given
    `read`, read(object) does), and every entry equals it.  `list.count`
    compares by identity first, so a row of one shared zero costs about
    1 ns an entry: the zeros of `[z] * n`, of small ints and of the CLI's
    reader.  An entry that is another object is compared by `==`, which no
    NaN or None passes, so the rule is exact for any row.  The guard reads
    the second entry, not the last: on rows of distinct zero objects,
    reading the last entry first made the scan about 2.5% slower.  Any
    other row, and a numpy row, is False here and is read entry by entry."""
    if (type(row) is list or type(row) is tuple) and row:
        z = row[0]
        return (
            (len(row) == 1 or z is row[1])
            and not (z if read is None else read(z))
            and row.count(z) == len(row)
        )
    return False


def _scan(rows, read=None) -> tuple[list[int], tuple[int, int] | None]:
    """The support of a square matrix, and its first asymmetry, in one pass.

    The support is the indices whose row and column both hold a nonzero
    entry.  The first asymmetry is the first (i, j), j < i in row-major
    order, with rows[i][j] != rows[j][i], or None.  Only nonzero entries
    are compared with their mirror: a zero entry whose mirror is nonzero
    is found from the mirror's side.

    An entry is nonzero when it tests true, or, given `read`, when
    read(entry) does; `read` runs on every entry, so it must be a C
    callable to keep the pass free of Python frames.  A row of one shared
    zero is passed over by `_zero_row`, any other zero row by one `any`.
    """
    nonzero_rows = []
    nonzero_cols = set()
    bad = None
    for i, row in enumerate(rows):
        if _zero_row(row, read) or not any(row if read is None else map(read, row)):
            continue
        cols = list(compress(range(len(row)), row if read is None else map(read, row)))
        nonzero_rows.append(i)
        nonzero_cols.update(cols)
        for j in cols:
            if rows[j][i] != row[j]:
                pair = (max(i, j), min(i, j))
                if bad is None or pair < bad:
                    bad = pair
    return [i for i in nonzero_rows if i in nonzero_cols], bad


def _mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """A B, visiting only the nonzero entries of both factors."""
    n = len(A)
    cols = range(n)
    # each row of B as its nonzero (column, entry) pairs
    sparse = [list(zip(compress(cols, row), compress(row, row))) for row in B]
    out = []
    for row in A:
        acc = [0] * n
        for k, a in zip(compress(cols, row), compress(row, row)):
            for j, b in sparse[k]:
                acc[j] += a * b
        out.append(acc)
    return out


def _power_traces(H, ells) -> dict[int, int]:
    """Exact traces of H^l (l >= 1) for each requested l, for a symmetric H.

    tr H^l is the sum of the entries of H^a o H^(l-a), a = floor(l/2), as
    H^(l-a) is symmetric (H^0, the identity, serves l = 1).  Each power is
    the largest one already at hand times the rest, so l = 4, 8, 12 take
    H^2, H^4 = H^2 H^2 and H^6 = H^4 H^2: three products.  The chain of
    exponents that a power needs is found first and multiplied bottom-up.
    """
    if any(ell < 1 for ell in ells):
        raise ValueError("trace powers must be at least 1")
    n = len(H)
    powers = {1: H}

    def get(e: int):
        if e == 0:
            return [[int(i == j) for j in range(n)] for i in range(n)]
        chain = []  # (exponent, the largest power at hand below it)
        rest = e
        while rest not in powers:
            p = max(k for k in powers if k < rest)
            chain.append((rest, p))
            rest -= p
        for f, p in reversed(chain):
            powers[f] = _mat_mul(powers[p], powers[f - p])
        return powers[e]

    out = {}
    for ell in sorted(ells):
        A, B = get(ell // 2), get(ell - ell // 2)
        out[ell] = sum(sum(map(mul, ra, rb)) for ra, rb in zip(A, B))
    return {ell: out[ell] for ell in ells}


def necklace_count_trace(dm: DensityMatrix, ell: int) -> int:
    """hom of the length-l necklace, as trace(H^l) in exact integers."""
    return _power_traces(dm.support, [ell])[ell]


def necklace_density_trace(dm: DensityMatrix, ell: int) -> Fraction:
    """Necklace density via the exact trace; denominator N^(l(2m+1))."""
    return Fraction(necklace_count_trace(dm, ell), dm.necklace_unit() ** ell)


def _scaled_eigenvalues(H) -> tuple[np.ndarray, int]:
    """Eigenvalues of a symmetric integer matrix divided exactly by its
    largest |entry|, and that entry (1 for an empty or zero matrix).
    This is the one float spectrum: every power sum is taken from it.

    The scaled entries lie in [-1, 1], so none overflows a float, and the
    power sums stay near the scale of the largest entry, far from underflow.
    """
    top = max((abs(c) for row in H for c in row), default=0) or 1
    scaled = np.array([[c / top for c in row] for row in H], dtype=float).reshape(len(H), len(H))
    return np.linalg.eigvalsh(scaled), top


def necklace_density_spectral(dm: DensityMatrix, ell: int) -> Fraction:
    """Float image of the necklace density, from the eigenvalues of the support.

    The float power sum of the eigenvalues of the support divided by its
    largest entry t, times the exact (t / N^(2m+1))^l: neither factor
    underflows or overflows, so the result is never a vacuous zero.
    """
    if ell < 3:
        raise ValueError("necklace length must be at least 3")
    lam, top = _scaled_eigenvalues(dm.support)
    scale = Fraction(top, dm.necklace_unit())
    return Fraction(float(np.sum(lam**ell))) * scale**ell


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


def _xy(H, unit: int) -> XYPoint:
    """The (x, y) statistics of a symmetric integer support matrix whose
    traces are p_l * unit^l.

    The exact twin comes from the traces of H^4, H^8 and H^12.  The float
    twin comes from the support matrix divided exactly by its largest
    |entry|: x and y do not change with scale, and the scaled entries lie
    in [-1, 1], so none overflows a float.
    """
    traces = _power_traces(H, [4, 8, 12])
    if traces[4] == 0:
        raise DegenerateHostError("fourth power sum vanishes: the matrix is zero")
    lam, _ = _scaled_eigenvalues(H)
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
    symmetric raises ValueError.  Each support entry is read exactly by
    `_ratio`, as `region.in_region` reads a coordinate, so a float is the
    dyadic rational it holds; a NaN, an infinity or a non-number, even
    one that tests false, raises ValueError or TypeError naming its
    (i, j).  The traces are taken in integers, on the support times the
    lcm `den` of its denominators: that scales tr H^l by den^l, which x
    and y do not see and p_l divides out.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    try:
        support, bad = _scan(rows, _numerator)
    except AttributeError:  # an entry that is not a Fraction: test the entries themselves
        # a truth test would read None, "" or [] as zero; a numpy matrix of a
        # numeric dtype passes by its dtype, as iterating it would box every entry
        if not (isinstance(rows, np.ndarray) and rows.dtype.kind in "biufc"):
            bad = _first_not(rows, Number)
            if bad is not None:
                _entry(rows, *bad)  # raises, naming the entry
        support, bad = _scan(rows)
    if bad is not None:
        for i, j in (bad, bad[::-1]):
            _entry(rows, i, j)  # a NaN is unequal to itself: refuse it as a NaN
        raise ValueError(f"matrix not symmetric at {bad}")
    ratios = [[_entry(rows, i, j) for j in support] for i in support]
    den = math.lcm(*(d for row in ratios for _, d in row))
    H = [[a * (den // d) for a, d in row] for row in ratios]
    return _xy(H, den)


def _first_not(rows, kind) -> tuple[int, int] | None:
    """The first (i, j) in row-major order whose entry is not a `kind`, or None.

    One check, in C, on the set of the types of each distinct row object's
    entries, at about 20 ns an entry.  A zero row is typed entry by entry
    too: `_zero_row` compares by `==`, which a 0-d numpy array passes, and
    a test of each entry's identity costs as much.  The zero rows of
    `_glued` are one shared tuple, so they are checked once.  Only a row
    that fails is searched entry by entry."""
    checked = {}  # id -> row: holding a row keeps its id from passing to a later row
    for i, row in enumerate(rows):
        if id(row) not in checked:
            checked[id(row)] = row
            if not all(issubclass(k, kind) for k in set(map(type, row))):
                return i, next(j for j, c in enumerate(row) if not isinstance(c, kind))
    return None


def _entry(rows, i: int, j: int) -> tuple[int, int]:
    """rows[i][j] read by `_ratio`; a refusal names the entry."""
    try:
        return _ratio(rows[i][j])
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"matrix entry ({i}, {j}): {exc}") from None


def xy_point(dm: DensityMatrix) -> XYPoint:
    """x = p8 / p4^2 and y = p12 / p4^3 from the 4l-necklace power sums.

    Degeneracy (p4 = 0, equivalently a zero count matrix) is detected
    exactly, never by a float threshold.
    """
    return _xy(dm.support, dm.necklace_unit())


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
    edges, with one common positive value that is a perfect square.

    Only the nonzero entries and the expected pairs are visited, in
    row-major order, so the violations and their cut are those of a full scan.
    An atlas of a host of another order raises ValueError."""
    n = dm.order
    if atlas.order != n:
        raise ValueError(f"the atlas is of a {atlas.order}-vertex host, the matrix has {n} rows")
    pairs = atlas.base_edge_pairs(i)
    expected: dict[int, set[int]] = {}
    for a_id, b_id in pairs:
        expected.setdefault(a_id, set()).add(b_id)
        expected.setdefault(b_id, set()).add(a_id)
    violations: list[tuple[int, int, str]] = []
    common: int | None = None
    for x in range(n):
        row = dm.counts[x]
        want = expected.get(x, ())
        for y in sorted({*want, *compress(range(n), row)}):
            c = row[y]
            if y in want:
                if c <= 0:
                    violations.append((x, y, f"expected positive entry, got {c}"))
                elif common is None:
                    common = c
                elif c != common:
                    violations.append((x, y, f"entry {c} differs from {common}"))
            else:
                violations.append((x, y, f"expected zero entry, got {c}"))
            if len(violations) >= max_violations:
                return PatternVerdict(False, None, None, tuple(violations))
    if not pairs:
        # no base edges for this index: the lemma degenerates to a zero matrix
        return PatternVerdict(not violations, None, None, tuple(violations))
    if violations or common is None:
        return PatternVerdict(False, None, None, tuple(violations))
    a = Fraction(common, dm.density_denominator())
    b = _exact_isqrt(common)
    if b is None:
        violations.append((-1, -1, f"common entry {common} is not a perfect square"))
        return PatternVerdict(False, a, None, tuple(violations))
    return PatternVerdict(True, a, b, ())


def _exact_isqrt(c: int) -> int | None:
    r = math.isqrt(c)
    return r if r * r == c else None
