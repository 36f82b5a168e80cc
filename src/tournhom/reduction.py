"""Polynomial to quantum-digraph reduction.

A polynomial p in s variables lifts to a penalized polynomial in 2s
variables, whose monomials then turn into disjoint unions of necklaces:
one length-8 necklace per x power, one length-12 necklace per y power,
padded with length-4 necklaces so every monomial consumes the same
per-gadget clearing exponent.  Evaluating the resulting quantum digraph
on any tournament equals the penalized polynomial at that tournament's
(x, y) statistics times the cleared powers of the 4-necklace density.

The literal clearing exponent 3*deg(p) only clears denominators once
deg(p) >= 12, so the default mode uses the minimal sufficient exponent.
Necklace densities are evaluated through exact integer traces of the
conditional-count matrix; leaf-by-leaf counting of a length-12 necklace
is astronomically infeasible and the trace identity is validated
elsewhere at lengths 3 and 4 against direct counts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .digraphs import Digraph, QuantumDigraph, Tournament, disjoint_union, parse_digraph, format_digraph, Tournament as _Tournament
from .gadgets import GadgetFamily, build_family, build_necklace
from .spectral import density_matrix, _power_traces

__all__ = [
    "IntPolynomial",
    "parse_poly_text",
    "poly_from_json",
    "poly_to_json",
    "PenalizedPolynomial",
    "build_penalized",
    "monomial_to_quantum",
    "ReducedQuantum",
    "ReducedTerm",
    "build_reduction",
    "necklace_densities",
    "eval_reduced",
    "reduction_rhs",
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
        clean = {}
        for exps, coef in mapping.items():
            if len(exps) != s:
                raise ValueError(f"exponent vector {exps} needs length {s}")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            if coef:
                clean[tuple(int(e) for e in exps)] = clean.get(tuple(exps), 0) + int(coef)
        items = tuple(sorted((e, c) for e, c in clean.items() if c))
        return IntPolynomial(s, items)

    @staticmethod
    def zero(s: int) -> "IntPolynomial":
        return IntPolynomial(s, ())

    @staticmethod
    def variable(s: int, index: int) -> "IntPolynomial":
        exps = tuple(1 if j == index else 0 for j in range(s))
        return IntPolynomial.of(s, {exps: 1})

    def deg(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def coeff_abs_sum(self) -> int:
        return sum(abs(c) for _, c in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

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
    s = int(doc["s"])
    mapping: dict[tuple[int, ...], int] = {}
    for t in doc["terms"]:
        exps = tuple(int(e) for e in t["exps"])
        mapping[exps] = mapping.get(exps, 0) + int(t["coef"])
    return IntPolynomial.of(s, mapping)


def poly_to_json(p: IntPolynomial) -> dict:
    return {"s": p.s, "terms": [{"coef": c, "exps": list(e)} for e, c in p.terms]}


# -- penalized lift -----------------------------------------------------------------


@dataclass(frozen=True)
class PenalizedPolynomial:
    """p * prod(x_i^6) + M * sum(y_i - x_i^2), in 2s variables (x's then y's)."""

    s: int
    M: int
    poly: IntPolynomial  # 2s variables
    degenerate: bool  # M = 0, the penalty vanished

    def evaluate(self, xs: Sequence, ys: Sequence) -> Fraction:
        return self.poly.evaluate(list(xs) + list(ys))


def build_penalized(p: IntPolynomial) -> PenalizedPolynomial:
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
    return PenalizedPolynomial(
        s=s, M=M, poly=IntPolynomial.of(2 * s, mapping), degenerate=(M == 0)
    )


# -- monomials to digraphs -------------------------------------------------------------


def _necklace_for(family: GadgetFamily, i: int, ell: int) -> Digraph:
    return build_necklace(family.doubled[i].rooted, ell)


def monomial_to_quantum(
    exps_x: Sequence[int],
    exps_y: Sequence[int],
    family: GadgetFamily,
    E: Sequence[int],
) -> Digraph:
    """Disjoint union of necklaces whose density is x^a * y^b * prod t4^E."""
    if not (len(exps_x) == len(exps_y) == family.s == len(E)):
        raise ValueError("exponent vectors must match the family size")
    union = Digraph(0, [])
    for i in range(family.s):
        fillers = E[i] - 2 * exps_x[i] - 3 * exps_y[i]
        if fillers < 0:
            raise ValueError(
                f"clearing exponent too small for gadget {i + 1}: "
                f"need {2 * exps_x[i] + 3 * exps_y[i]}, have {E[i]}"
            )
        for _ in range(exps_x[i]):
            union = disjoint_union(union, _necklace_for(family, i, 8))
        for _ in range(exps_y[i]):
            union = disjoint_union(union, _necklace_for(family, i, 12))
        for _ in range(fillers):
            union = disjoint_union(union, _necklace_for(family, i, 4))
    return union


@dataclass(frozen=True)
class ReducedTerm:
    coef: int
    alpha: tuple[int, ...]  # x exponents per gadget
    beta: tuple[int, ...]  # y exponents per gadget


@dataclass(frozen=True)
class ReducedQuantum:
    """Structured form of the reduction output, alongside the plain terms."""

    family: GadgetFamily
    penalized: PenalizedPolynomial
    E: tuple[int, ...]
    terms: tuple[ReducedTerm, ...]

    def quantum(self) -> QuantumDigraph:
        return QuantumDigraph.of(
            (t.coef, monomial_to_quantum(t.alpha, t.beta, self.family, self.E))
            for t in self.terms
        )


def _required_exponents(pbar: PenalizedPolynomial) -> list[int]:
    s = pbar.s
    req = [0] * s
    for exps, _ in pbar.poly.terms:
        for i in range(s):
            req[i] = max(req[i], 2 * exps[i] + 3 * exps[s + i])
    return req


def build_reduction(
    p: IntPolynomial,
    family: GadgetFamily,
    mode: str = "minimal",
    explicit_E: Sequence[int] | None = None,
) -> ReducedQuantum:
    """Quantum digraph realizing the penalized polynomial times cleared powers.

    mode "minimal" picks the smallest per-gadget exponent that clears every
    monomial; "paper" uses 3*deg(p) uniformly, which requires deg(p) >= 12.
    """
    if p.s != family.s:
        raise ValueError(f"polynomial has {p.s} variables, family {family.s} gadgets")
    pbar = build_penalized(p)
    required = _required_exponents(pbar)
    if mode == "minimal":
        E = list(required)
    elif mode == "paper":
        E = [3 * p.deg()] * p.s
        for i, need in enumerate(required):
            if E[i] < need:
                raise ValueError(
                    f"literal exponent 3*deg(p) = {E[i]} cannot clear gadget "
                    f"{i + 1} (needs {need}); minimal exponents are {required}"
                )
    elif mode == "explicit":
        if explicit_E is None or len(explicit_E) != p.s:
            raise ValueError("explicit mode needs one exponent per variable")
        E = list(explicit_E)
        for i, need in enumerate(required):
            if E[i] < need:
                raise ValueError(
                    f"explicit exponent {E[i]} cannot clear gadget {i + 1} "
                    f"(needs {need})"
                )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    terms = tuple(
        ReducedTerm(coef=coef, alpha=exps[: p.s], beta=exps[p.s :])
        for exps, coef in pbar.poly.terms
    )
    return ReducedQuantum(family=family, penalized=pbar, E=tuple(E), terms=terms)


# -- evaluation --------------------------------------------------------------------------


def necklace_densities(
    family: GadgetFamily, T: Tournament, lengths: tuple[int, ...] = (4, 8, 12)
) -> list[dict[int, Fraction]]:
    """Per-gadget exact necklace densities via integer traces."""
    out = []
    for dg in family.doubled:
        dm = density_matrix(dg, T)
        traces = _power_traces(dm.counts, lengths)
        unit = T.n ** (2 * dg.m + 1)
        out.append({ell: Fraction(traces[ell], unit**ell) for ell in lengths})
    return out


def eval_reduced(rq: ReducedQuantum, T: Tournament) -> Fraction:
    """Exact value of the reduced quantum digraph on a tournament."""
    dens = necklace_densities(rq.family, T)
    total = Fraction(0)
    for term in rq.terms:
        value = Fraction(term.coef)
        for i in range(rq.family.s):
            fillers = rq.E[i] - 2 * term.alpha[i] - 3 * term.beta[i]
            value *= dens[i][8] ** term.alpha[i]
            value *= dens[i][12] ** term.beta[i]
            value *= dens[i][4] ** fillers
            if value == 0:
                break
        total += value
    return total


def reduction_rhs(rq: ReducedQuantum, T: Tournament) -> Fraction | None:
    """Penalized polynomial at the host's (x, y) statistics, times cleared
    powers; None when some 4-necklace density vanishes (the value is then 0
    by divisibility and checked separately)."""
    dens = necklace_densities(rq.family, T)
    if any(d[4] == 0 for d in dens):
        return None
    xs = [d[8] / d[4] ** 2 for d in dens]
    ys = [d[12] / d[4] ** 3 for d in dens]
    value = rq.penalized.evaluate(xs, ys)
    for i, d in enumerate(dens):
        value *= d[4] ** rq.E[i]
    return value


# -- persistence --------------------------------------------------------------------------


def save_reduced(path: str | Path, rq: ReducedQuantum) -> None:
    """Write the standard quantum JSON plus a meta block for exact re-evaluation."""
    quantum = rq.quantum()
    meta = {
        "kind": "necklace-reduction",
        "m": rq.family.m,
        "k": list(rq.family.k),
        "E": list(rq.E),
        "base": format_digraph(rq.family.base),
        "terms": [
            {"coef": t.coef, "alpha": list(t.alpha), "beta": list(t.beta)}
            for t in rq.terms
        ],
        "penalized": poly_to_json(rq.penalized.poly),
        "M": rq.penalized.M,
        "s": rq.penalized.s,
    }
    doc = {
        "terms": [
            {"coef": f"{c.numerator}/{c.denominator}", "graph": format_digraph(g)}
            for c, g in quantum.terms
        ],
        "meta": meta,
    }
    Path(path).write_text(json.dumps(doc))


def load_reduced(path: str | Path) -> ReducedQuantum:
    doc = json.loads(Path(path).read_text())
    meta = doc["meta"]
    base_graph, _ = parse_digraph(meta["base"])
    base = _Tournament(base_graph.n, base_graph.arcs)
    family = build_family(base, k_values=list(meta["k"]), enforce_interval=False)
    pbar = PenalizedPolynomial(
        s=int(meta["s"]),
        M=int(meta["M"]),
        poly=poly_from_json(meta["penalized"]),
        degenerate=int(meta["M"]) == 0,
    )
    terms = tuple(
        ReducedTerm(coef=int(t["coef"]), alpha=tuple(t["alpha"]), beta=tuple(t["beta"]))
        for t in meta["terms"]
    )
    return ReducedQuantum(family=family, penalized=pbar, E=tuple(meta["E"]), terms=terms)


# -- sign report --------------------------------------------------------------------------


@dataclass(frozen=True)
class NonnegativityReport:
    grid_nonnegative: bool
    grid_minimum: Fraction
    values: tuple[Fraction, ...]
    degenerate_hosts: tuple[int, ...]
    negative_hosts: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        """The falsifiable direction: p >= 0 on the grid forbids negative values."""
        return not (self.grid_nonnegative and self.negative_hosts)

    @property
    def found_negative(self) -> bool:
        return bool(self.negative_hosts)


def nonnegativity_report(
    p: IntPolynomial,
    family: GadgetFamily,
    hosts: Sequence[Tournament],
    grid_max: int = 8,
) -> NonnegativityReport:
    """Compare the sign of p on inverse-integer points with reduced values on hosts.

    Values are exact rationals, so negativity is exact; no float threshold.
    """
    import itertools as _it

    rq = build_reduction(p, family, mode="minimal")
    grid_min = None
    for ns in _it.product(range(1, grid_max + 1), repeat=p.s):
        val = p.evaluate([Fraction(1, n) for n in ns])
        grid_min = val if grid_min is None else min(grid_min, val)
    values = []
    degenerate = []
    negative = []
    for idx, T in enumerate(hosts):
        dens = necklace_densities(rq.family, T, lengths=(4,))
        val = eval_reduced(rq, T)
        values.append(val)
        if any(d[4] == 0 for d in dens):
            degenerate.append(idx)
            if val != 0:
                negative.append(idx)  # divisibility violated; flag it
            continue
        if val < 0:
            negative.append(idx)
    return NonnegativityReport(
        grid_nonnegative=grid_min >= 0,
        grid_minimum=grid_min,
        values=tuple(values),
        degenerate_hosts=tuple(degenerate),
        negative_hosts=tuple(negative),
    )
