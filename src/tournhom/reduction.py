"""Polynomial to quantum-digraph reduction.

A polynomial p in s variables lifts to a penalized polynomial, an
`IntPolynomial` in 2s variables, whose monomials then turn into disjoint
unions of necklaces by one rule (`_necklace_powers`), which both builds
and evaluates them: one length-8 necklace per x power, one length-12
necklace per y power, padded with length-4 necklaces so every monomial
consumes the same per-gadget clearing exponent E.  Evaluating the
resulting quantum digraph on any tournament equals the penalized
polynomial at that tournament's (x, y) statistics times the cleared
powers of the 4-necklace density.
A saved reduction keeps its inputs (base, thresholds, p, E), from which
`load_reduced` builds the record, and the record checks them.

The literal clearing exponent 3*deg(p) only clears denominators once
deg(p) >= 12, so the default mode uses the minimal sufficient exponent.
Necklace densities are evaluated through exact integer traces of the
conditional-count matrix; leaf-by-leaf counting of a length-12 necklace
is astronomically infeasible and the trace identity is validated
elsewhere at lengths 3 and 4 against direct counts.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral
from pathlib import Path
from typing import Sequence

from .digraphs import Digraph, Tournament, disjoint_union, format_digraph, read_text_format
from .errors import json_field
from .gadgets import GadgetFamily, build_family, build_necklace
from .spectral import _power_traces, density_matrices

__all__ = [
    "IntPolynomial",
    "parse_poly_text",
    "poly_from_json",
    "poly_to_json",
    "build_penalized",
    "monomial_to_quantum",
    "ReducedQuantum",
    "build_reduction",
    "eval_reduced",
    "reduction_rhs",
    "identity_sides",
    "save_reduced",
    "load_reduced",
    "nonnegativity_report",
    "NonnegativityReport",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Multivariate polynomial with integer coefficients."""

    s: int
    terms: tuple[tuple[tuple[int, ...], int], ...]  # (exponents, coefficient)

    @staticmethod
    def of(s: int, mapping: dict[tuple[int, ...], int]) -> "IntPolynomial":
        """The polynomial of {exponent vector: coefficient}.  A coefficient or
        exponent that is not an integer raises TypeError naming its vector."""
        clean = {}
        for exps, coef in mapping.items():
            if len(exps) != s:
                raise ValueError(f"exponent vector {exps} needs length {s}")
            if not all(isinstance(v, Integral) for v in (*exps, coef)):
                raise TypeError(
                    f"exponent vector {exps} with coefficient {coef!r}: "
                    "exponents and coefficients must be integers"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            if coef:
                key = tuple(map(int, exps))
                clean[key] = clean.get(key, 0) + int(coef)
        items = tuple(sorted((e, c) for e, c in clean.items() if c))
        return IntPolynomial(s, items)

    def deg(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def coeff_abs_sum(self) -> int:
        return sum(abs(c) for _, c in self.terms)

    def evaluate(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        for exps, coef in self.terms:
            value = Fraction(coef)
            for x, e in zip(point, exps):
                if e:
                    value *= Fraction(x) ** e
            total += value
        return total

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.s != other.s:
            raise ValueError("variable counts differ")
        acc = {e: c for e, c in self.terms}
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return IntPolynomial.of(self.s, acc)


_TOKEN_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_poly_text(text: str, s: int | None = None) -> IntPolynomial:
    """Parse e.g. '3 x1^2 x2 - 2 x2 + 7'; variables are 1-indexed."""
    chunks = [c.strip() for c in text.replace("-", "+-").split("+") if c.strip()]
    raw_terms: list[tuple[dict[int, int], int]] = []
    max_var = 0
    for chunk in chunks:
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        tokens = chunk.split()
        if not tokens:
            raise ValueError("empty term")
        coef = sign
        start = 0
        if tokens[0].lstrip("-").isdigit():
            coef = sign * int(tokens[0])
            start = 1
        powers: dict[int, int] = {}
        for tok in tokens[start:]:
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ValueError(f"cannot parse token {tok!r}")
            var = int(m.group(1))
            if var < 1:
                raise ValueError("variables are 1-indexed")
            powers[var - 1] = powers.get(var - 1, 0) + int(m.group(2) or 1)
            max_var = max(max_var, var)
        raw_terms.append((powers, coef))
    if s is None:
        s = max(max_var, 1)
    elif max_var > s:
        raise ValueError(f"variable x{max_var} exceeds declared count {s}")
    mapping: dict[tuple[int, ...], int] = {}
    for powers, coef in raw_terms:
        exps = tuple(powers.get(i, 0) for i in range(s))
        mapping[exps] = mapping.get(exps, 0) + coef
    return IntPolynomial.of(s, mapping)


def poly_from_json(doc: dict | str) -> IntPolynomial:
    if isinstance(doc, str):
        doc = json.loads(doc)
    s = json_field(doc, "s", int, "a polynomial")
    mapping: dict[tuple[int, ...], int] = {}
    for t in json_field(doc, "terms", [dict], "a polynomial"):
        exps = tuple(json_field(t, "exps", [int], "a polynomial term"))
        mapping[exps] = mapping.get(exps, 0) + json_field(t, "coef", int, "a polynomial term")
    return IntPolynomial.of(s, mapping)


def poly_to_json(p: IntPolynomial) -> dict:
    return {"s": p.s, "terms": [{"coef": c, "exps": list(e)} for e, c in p.terms]}


# -- penalized lift -----------------------------------------------------------------


def build_penalized(p: IntPolynomial) -> IntPolynomial:
    """The lift p * prod(x_i^6) + M * sum(y_i - x_i^2) in 2s variables, the
    x's then the y's, with M = 100 * deg(p) * sum |coef|."""
    s = p.s
    M = p.coeff_abs_sum() * 100 * p.deg()
    mapping: dict[tuple[int, ...], int] = {}
    for exps, coef in p.terms:
        lifted = tuple(e + 6 for e in exps) + (0,) * s
        mapping[lifted] = mapping.get(lifted, 0) + coef
    for i in range(s):
        y_exps = (0,) * s + tuple(1 if j == i else 0 for j in range(s))
        mapping[y_exps] = mapping.get(y_exps, 0) + M
        x2_exps = tuple(2 if j == i else 0 for j in range(s)) + (0,) * s
        mapping[x2_exps] = mapping.get(x2_exps, 0) - M
    return IntPolynomial.of(2 * s, mapping)


# -- monomials to digraphs -------------------------------------------------------------


def _necklace_powers(exps: Sequence[int], E: Sequence[int]) -> list[tuple]:
    """Per gadget i, the (length, copies) necklaces of x^alpha y^beta, exps = alpha + beta.

    Length 8 alpha_i times, 12 beta_i times and 4 E_i - 2 alpha_i - 3 beta_i times.
    """
    s = len(E)
    powers = []
    for i in range(s):
        alpha, beta = exps[i], exps[s + i]
        fillers = E[i] - 2 * alpha - 3 * beta
        if fillers < 0:
            raise ValueError(
                f"clearing exponent too small for gadget {i + 1}: "
                f"need {2 * alpha + 3 * beta}, have {E[i]}"
            )
        powers.append(((8, alpha), (12, beta), (4, fillers)))
    return powers


def monomial_to_quantum(exps: Sequence[int], family: GadgetFamily, E: Sequence[int]) -> Digraph:
    """Disjoint union of necklaces whose density is x^a * y^b * prod t4^E,
    for the exponent vector exps = a + b of a monomial of the lift."""
    if not (len(exps) == 2 * family.s and len(E) == family.s):
        raise ValueError("exponent vectors must match the family size")
    parts = []
    powers = _necklace_powers(exps, E)
    for dg, gadget_powers in zip(family.doubled, powers):
        for ell, copies in gadget_powers:
            if copies:
                parts += [build_necklace(dg.rooted, ell)] * copies
    return disjoint_union(*parts)


def _required_exponents(lift: IntPolynomial) -> list[int]:
    s = lift.s // 2
    req = [0] * s
    for exps, _ in lift.terms:
        for i in range(s):
            req[i] = max(req[i], 2 * exps[i] + 3 * exps[s + i])
    return req


@dataclass(frozen=True)
class ReducedQuantum:
    """The reduction of `source` over `family`: its penalized lift, cleared by E.

    A polynomial whose variable count is not the family size, and an E that
    does not give each gadget an exponent clearing every monomial, raise
    ValueError.
    """

    family: GadgetFamily
    source: IntPolynomial
    E: tuple[int, ...]
    penalized: IntPolynomial = field(init=False, repr=False)

    def __post_init__(self):
        s = self.family.s
        if self.source.s != s:
            raise ValueError(f"polynomial has {self.source.s} variables, family {s} gadgets")
        object.__setattr__(self, "E", tuple(self.E))
        if len(self.E) != s:
            raise ValueError(f"E has {len(self.E)} exponents, the family {s} gadgets")
        lift = build_penalized(self.source)
        required = _required_exponents(lift)
        for i, (e, need) in enumerate(zip(self.E, required)):
            if e < need:
                raise ValueError(
                    f"exponent {e} cannot clear gadget {i + 1} "
                    f"(needs {need}); minimal exponents are {required}"
                )
        object.__setattr__(self, "penalized", lift)


def build_reduction(
    p: IntPolynomial, family: GadgetFamily, mode: str = "minimal"
) -> ReducedQuantum:
    """Quantum digraph realizing the penalized polynomial times cleared powers.

    mode "minimal" picks the smallest per-gadget exponent that clears every
    monomial; "paper" uses 3*deg(p) uniformly, which clears them only when
    deg(p) >= 12 (`ReducedQuantum` refuses it otherwise).
    """
    if mode == "minimal":
        E = _required_exponents(build_penalized(p))
    elif mode == "paper":
        E = [3 * p.deg()] * p.s
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ReducedQuantum(family, p, E)


# -- evaluation --------------------------------------------------------------------------


def _necklace_traces(family: GadgetFamily, T: Tournament) -> list[tuple[dict[int, int], int]]:
    """Per gadget, the exact traces tr H^l at lengths 4, 8 and 12 and the
    necklace unit N^(2m+1): the length-l necklace density is tr H^l / unit^l.

    Every gadget's density matrix comes from one sweep of the host, shared
    by all the half-gadgets of the family (`density_matrices`)."""
    if T.n == 0:
        raise ValueError("empty host")
    dms = density_matrices(family.doubled, T)
    return [(_power_traces(dm.support, (4, 8, 12)), dm.necklace_unit()) for dm in dms]


def eval_reduced(rq: ReducedQuantum, T: Tournament) -> Fraction:
    """Exact value of the reduced quantum digraph on a tournament."""
    return _eval_terms(rq, _necklace_traces(rq.family, T))


def reduction_rhs(rq: ReducedQuantum, T: Tournament) -> Fraction | None:
    """Penalized polynomial at the host's (x, y) statistics, times cleared
    powers; None when some 4-necklace density vanishes (the value is then 0
    by divisibility and checked separately)."""
    return _rhs(rq, _necklace_traces(rq.family, T))


def identity_sides(rq: ReducedQuantum, T: Tournament) -> tuple[Fraction, Fraction | None]:
    """`eval_reduced` and `reduction_rhs` on one host, from one build of its densities.

    The evaluation identity says the two agree whenever the second is not None.
    """
    traces = _necklace_traces(rq.family, T)
    return _eval_terms(rq, traces), _rhs(rq, traces)


def _eval_terms(rq: ReducedQuantum, traces: list[tuple[dict[int, int], int]]) -> Fraction:
    """`eval_reduced` from the host's traces at lengths 4, 8 and 12.

    Every monomial takes necklaces of total length 4 E_i from gadget i
    (`_necklace_powers`), so every term has the denominator
    prod unit_i^(4 E_i): the terms are summed as integers and divided once.
    """
    total = 0
    for exps, coef in rq.penalized.terms:
        value = coef
        for (t, _), gadget_powers in zip(traces, _necklace_powers(exps, rq.E)):
            for ell, copies in gadget_powers:
                value *= t[ell] ** copies
            if not value:
                break
        total += value
    return Fraction(total, math.prod(unit ** (4 * e) for (_, unit), e in zip(traces, rq.E)))


def _rhs(rq: ReducedQuantum, traces: list[tuple[dict[int, int], int]]) -> Fraction | None:
    """`reduction_rhs` from the traces: x = t8/t4^2, y = t12/t4^3, d4 = t4/unit^4."""
    if any(t[4] == 0 for t, _ in traces):
        return None
    xs = [Fraction(t[8], t[4] ** 2) for t, _ in traces]
    ys = [Fraction(t[12], t[4] ** 3) for t, _ in traces]
    value = rq.penalized.evaluate([*xs, *ys])
    for (t, unit), e in zip(traces, rq.E):
        value *= Fraction(t[4], unit**4) ** e
    return value


# -- persistence --------------------------------------------------------------------------


def save_reduced(path: str | Path, rq: ReducedQuantum) -> None:
    """Write the reduction's inputs (base, thresholds, p, E) as a JSON meta block.

    The file holds no term digraphs: `load_reduced` rebuilds the record from
    its inputs, and `eval-quantum` evaluates it by the trace route.
    """
    meta = {
        "kind": "necklace-reduction",
        "base": format_digraph(rq.family.base),
        "k": list(rq.family.k),
        "poly": poly_to_json(rq.source),
        "E": list(rq.E),
    }
    Path(path).write_text(json.dumps({"meta": meta}, indent=1))


def load_reduced(source: str | Path | dict) -> ReducedQuantum:
    """Read a file written by `save_reduced`, or its parsed JSON document.

    Only the meta block is read, never the term digraphs; `ReducedQuantum`
    checks the inputs it holds.  A bad field raises ValueError naming it.
    """
    doc = source if isinstance(source, dict) else json.loads(Path(source).read_text())
    meta = json_field(doc, "meta", dict, "the reduction")

    def read(key, kind):
        return json_field(meta, key, kind, "the reduction")

    n, _, pairs = read_text_format(read("base", str))
    base = Tournament(n, pairs)
    family = build_family(base, k_values=read("k", [int]), enforce_interval=False)
    p = poly_from_json(read("poly", dict))
    return ReducedQuantum(family, p, read("E", [int]))


# -- sign report --------------------------------------------------------------------------


@dataclass(frozen=True)
class NonnegativityReport:
    grid_nonnegative: bool
    grid_minimum: Fraction
    values: tuple[Fraction, ...]
    degenerate_hosts: tuple[int, ...]
    negative_hosts: tuple[int, ...]


def nonnegativity_report(
    p: IntPolynomial,
    family: GadgetFamily,
    hosts: Sequence[Tournament],
) -> NonnegativityReport:
    """Compare the sign of p on the inverse-integer points (1/n_1, ..., 1/n_s),
    1 <= n_i <= 8, with reduced values on hosts.

    Values are exact rationals, so negativity is exact; no float threshold.
    """
    rq = build_reduction(p, family, mode="minimal")
    grid_min = None
    for ns in itertools.product(range(1, 9), repeat=p.s):
        val = p.evaluate([Fraction(1, n) for n in ns])
        grid_min = val if grid_min is None else min(grid_min, val)
    values = []
    degenerate = []
    negative = []
    for idx, T in enumerate(hosts):
        val, rhs = identity_sides(rq, T)
        values.append(val)
        if rhs is None:
            degenerate.append(idx)
            if val != 0:
                negative.append(idx)  # divisibility violated; flag it
        elif val < 0:
            negative.append(idx)
    return NonnegativityReport(
        grid_nonnegative=grid_min >= 0,
        grid_minimum=grid_min,
        values=tuple(values),
        degenerate_hosts=tuple(degenerate),
        negative_hosts=tuple(negative),
    )
