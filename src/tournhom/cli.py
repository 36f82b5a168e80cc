"""Command-line front end.

Exit codes: 0 success, 1 assertion/verdict failure, 2 budget or input
errors, or a run out of memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .digraphs import (
    RootedDigraph,
    load_digraph,
    load_quantum,
    load_rooted,
    load_tournament,
    parse_digraph,
    save_digraph,
)
from .errors import (
    BudgetExceededError,
    EnumerationCapError,
    SamplingError,
    json_field,
)
from .gadgets import (
    DoubledGadget,
    build_family,
    build_gadget,
    build_necklace,
    check_base_conditions,
    sample_base_tournament,
    symmetrize,
)
from .homcount import count_hom, count_hom_rooted, eval_quantum, iter_homs
from .hosts import HostAtlas, load_simple_graph, build_host
from .reduction import (
    eval_reduced,
    load_reduced,
    build_reduction,
    parse_poly_text,
    poly_from_json,
    save_reduced,
)
from .region import in_region
from .spectral import density_matrices, graphon_pattern_check, xy_from_matrix
from .suites import ExperimentConfig, run_suite, SUITES


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_sample_f0(args) -> int:
    bt = sample_base_tournament(
        args.n, args.a, args.t3, seed=args.seed, max_tries=args.max_tries
    )
    save_digraph(args.out, bt.tournament)
    report = {k: getattr(bt.report, k) for k in bt.report.__dataclass_fields__}
    print(json.dumps(report))
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1))
    return 0


def cmd_check_f0(args) -> int:
    T = load_tournament(args.input)
    ok, details = check_base_conditions(T, args.a, args.t3)
    printable = {k: str(v) for k, v in details.items()}
    print(json.dumps({"ok": ok, **printable}))
    return 0 if ok else 1


def cmd_build_gadget(args) -> int:
    f0 = load_tournament(args.f0)
    gadget = build_gadget(f0, args.k)
    save_digraph(args.out_f, gadget.rooted.graph, roots=gadget.rooted.roots)
    doubled = symmetrize(gadget)
    save_digraph(args.out_fdagger, doubled.rooted.graph, roots=doubled.rooted.roots)
    print(f"gadget on {gadget.rooted.graph.n} vertices, doubled on {doubled.rooted.graph.n}")
    return 0


def cmd_necklace(args) -> int:
    rooted = load_rooted(args.gadget)
    necklace = build_necklace(rooted, args.len)
    save_digraph(args.out, necklace)
    print(f"necklace with {necklace.n} vertices, {necklace.arc_count} arcs")
    return 0


def cmd_hom(args) -> int:
    pattern, roots = parse_digraph(Path(args.pattern).read_text())
    host = load_digraph(args.host)
    pins = {}
    if args.root_x is not None or args.root_y is not None:
        if roots is None:
            raise ValueError("pattern file carries no roots line")
        if args.root_x is None or args.root_y is None:
            raise ValueError("need both --root-x and --root-y")
        pins = {roots[0]: args.root_x, roots[1]: args.root_y}
    if args.enumerate:
        count = 0
        for images in iter_homs(pattern, host, root_images=pins, cap=args.cap):
            print(" ".join(map(str, images)))
            count += 1
        print(count)
        return 0
    if pins:
        count = count_hom_rooted(
            RootedDigraph(pattern, roots), host, args.root_x, args.root_y
        )
    else:
        count = count_hom(pattern, host)
    print(count)
    return 0


def cmd_build_host(args) -> int:
    G = load_simple_graph(args.graph)
    f0 = load_tournament(args.f0)
    family = build_family(f0, k_values=_parse_int_list(args.k), enforce_interval=not args.toy)
    r = _parse_int_list(args.r)
    host, atlas = build_host(G, family, r)
    save_digraph(args.out, host)
    atlas.save(args.atlas)
    print(f"host with {host.n} vertices; atlas {args.atlas}")
    return 0


def _write_matrix_csv(path: str, rows) -> None:
    n = len(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex"] + list(range(n)))
        for x, row in enumerate(rows):
            writer.writerow([x] + [str(v) for v in row])


def cmd_density_matrix(args) -> int:
    doubled = DoubledGadget(load_rooted(args.gadget))
    host = load_tournament(args.host)
    [dm] = density_matrices([doubled], host)
    _write_matrix_csv(args.out, dm.counts)
    denom = dm.density_denominator()
    # a zero density is written as 0, which is how a zero Fraction prints
    density_rows = [[Fraction(c, denom) if c else 0 for c in row] for row in dm.counts]
    _write_matrix_csv(args.out_density, density_rows)
    print(f"{dm.order} x {dm.order} matrix; zero: {dm.is_zero()}")
    if args.atlas:
        atlas = HostAtlas.load(args.atlas)
        verdict = graphon_pattern_check(dm, atlas, args.pattern_index)
        print(
            json.dumps(
                {
                    "pattern_ok": verdict.ok,
                    "b": verdict.b,
                    "a": str(verdict.a) if verdict.a is not None else None,
                    "violations": [list(map(str, v)) for v in verdict.violations[:8]],
                }
            )
        )
        return 0 if verdict.ok else 1
    return 0


def _read_matrix_csv(path: str) -> list[list[Fraction]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "vertex":
            raise ValueError(f"{path}: expected a 'vertex' header row")
        # a matrix repeats few distinct entries: parse each once per read
        # (an exception is not cached, so a bad token fails where it stands)
        parse = functools.lru_cache(maxsize=None)(Fraction)
        rows = []
        try:
            for line in reader:
                rows.append(list(map(parse, line[1:])))
        except (ValueError, ZeroDivisionError, csv.Error) as exc:
            raise ValueError(
                f"{path}, line {reader.line_num}: not a row of exact rationals ({exc})"
            ) from None
    return rows


def cmd_xy(args) -> int:
    rows = _read_matrix_csv(args.matrix)
    pt = xy_from_matrix(rows)
    print(
        json.dumps(
            {
                "x": pt.x,
                "y": pt.y,
                "x_exact": str(pt.x_exact),
                "y_exact": str(pt.y_exact),
            }
        )
    )
    return 0


def cmd_region_check(args) -> int:
    inside = in_region(args.x, args.y, tol=args.tol)
    print(json.dumps({"x": args.x, "y": args.y, "inside": inside}))
    return 0 if inside else 1


def cmd_reduce(args) -> int:
    poly_path = Path(args.poly)
    if poly_path.suffix == ".json":
        p = poly_from_json(json.loads(poly_path.read_text()))
    else:
        p = parse_poly_text(poly_path.read_text())
    family_dir = Path(args.family)
    manifest_path = family_dir / "family.json"
    manifest = json.loads(manifest_path.read_text())
    owner = str(manifest_path)
    f0 = load_tournament(family_dir / json_field(manifest, "f0", str, owner))
    family = build_family(
        f0,
        k_values=json_field(manifest, "k", [int], owner),
        enforce_interval="enforce_interval" in manifest
        and json_field(manifest, "enforce_interval", bool, owner),
    )
    rq = build_reduction(p, family, mode=args.mode)
    save_reduced(args.out, rq)
    print(json.dumps({"E": list(rq.E), "terms": len(rq.penalized.terms)}))
    return 0


def _exact_text(value: Fraction) -> str:
    """str(value), also past the interpreter's limit on the digits of an int."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _scientific(value: Fraction) -> str:
    """value as "<mantissa>e<exponent>" with 1 <= |mantissa| < 10.

    The decimal exponent is exact, from integer arithmetic, so a value far
    below the float range keeps its leading digits instead of reading 0.0.
    """
    if value == 0:
        return "0.0e0"
    size = abs(value)
    # within 2 of log10 |value|, from the bit lengths; the loops settle it
    exp = int((size.numerator.bit_length() - size.denominator.bit_length()) * math.log10(2))
    while size < Fraction(10) ** exp:
        exp -= 1
    while size >= Fraction(10) ** (exp + 1):
        exp += 1
    mantissa = float(size / Fraction(10) ** exp)
    if mantissa == 10.0:  # rounded up to the next power of ten
        mantissa, exp = 1.0, exp + 1
    return f"{'-' if value < 0 else ''}{mantissa!r}e{exp}"


def cmd_eval_quantum(args) -> int:
    if args.budget < 0:  # the necklace-reduction branch runs no search that would refuse it
        raise ValueError(f"--budget must be nonnegative, got {args.budget}")
    host = load_tournament(args.host)
    doc = json.loads(Path(args.quantum).read_text())
    meta = doc.get("meta") if isinstance(doc, dict) else None
    if isinstance(meta, dict) and meta.get("kind") == "necklace-reduction":
        value = eval_reduced(load_reduced(doc), host)
    else:
        value = eval_quantum(load_quantum(args.quantum, doc), host, max_nodes=args.budget)
    print(json.dumps({"value": _exact_text(value), "float": _scientific(value)}))
    return 0


def _print_report(report) -> None:
    for item in report.items:
        mark = "PASS" if item.passed else "FAIL"
        line = f"[{mark}] {item.id}: {item.name}"
        if item.details:
            line += f" ({item.details})"
        print(line)
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")


def cmd_verify(args) -> int:
    report = run_suite(args.suite, ExperimentConfig(seed=args.seed, hosts_dir=args.hosts))
    _print_report(report)
    if args.out_report:
        report.save(args.out_report)
    return 0 if report.passed else 1


def cmd_converge(args) -> int:
    default = ExperimentConfig()
    config = ExperimentConfig(
        seed=args.seed,
        sizes=default.sizes if args.sizes is None else tuple(_parse_int_list(args.sizes)),
        converge_r=default.converge_r if args.r is None else tuple(_parse_int_list(args.r)),
    )
    report = run_suite("converge", config)
    _print_report(report)
    if args.out_csv:
        rows = report.params.get("rows", [])
        if rows:
            with open(args.out_csv, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    if args.out_report:
        report.save(args.out_report)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tournhom",
        description="Exact workbench for tournament homomorphism densities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-f0", help="sample a base tournament meeting the three conditions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--t3", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_sample_f0)

    p = sub.add_parser("check-f0", help="re-check the three conditions on a tournament file")
    p.add_argument("--input", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--t3", type=int, required=True)
    p.set_defaults(func=cmd_check_f0)

    p = sub.add_parser("build-gadget", help="attach roots to a base tournament and double it")
    p.add_argument("--f0", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-f", required=True)
    p.add_argument("--out-fdagger", required=True)
    p.set_defaults(func=cmd_build_gadget)

    p = sub.add_parser("necklace", help="glue cyclic copies of a rooted gadget")
    p.add_argument("--gadget", required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_necklace)

    p = sub.add_parser("hom", help="exact homomorphism count or enumeration")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--root-x", type=int)
    p.add_argument("--root-y", type=int)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("build-host", help="build the stacked host tournament and its atlas")
    p.add_argument("--graph", required=True)
    p.add_argument("--f0", required=True)
    p.add_argument("--k", required=True, help="comma-separated thresholds")
    p.add_argument("--r", required=True, help="comma-separated multiplicities")
    p.add_argument("--toy", action="store_true", help="skip the threshold-interval check")
    p.add_argument("--out", required=True)
    p.add_argument("--atlas", required=True)
    p.set_defaults(func=cmd_build_host)

    p = sub.add_parser("density-matrix", help="all conditional counts of a doubled gadget")
    p.add_argument("--gadget", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--atlas", help="atlas JSON; when given, the block pattern is checked")
    p.add_argument("--pattern-index", type=int, default=1)
    p.add_argument("--out", required=True, help="integer count matrix CSV")
    p.add_argument("--out-density", required=True, help="exact density matrix CSV")
    p.set_defaults(func=cmd_density_matrix)

    p = sub.add_parser("xy", help="(x, y) statistics of a matrix CSV")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_xy)

    p = sub.add_parser("region-check", help="hull membership of a point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.0)
    p.set_defaults(func=cmd_region_check)

    p = sub.add_parser("reduce", help="polynomial to quantum digraph, saved as base, k, p and E")
    p.add_argument("--poly", required=True, help="JSON or plain-text polynomial file")
    p.add_argument("--family", required=True, help="directory with family.json and the base")
    p.add_argument("--mode", default="minimal", choices=["minimal", "paper"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("eval-quantum", help="evaluate a quantum digraph on a host")
    p.add_argument("--quantum", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--budget", type=int, default=50_000_000)
    p.set_defaults(func=cmd_eval_quantum)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hosts", help="directory of tournament files for the region suite")
    p.add_argument("--out-report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="spectral-gap convergence study")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes")
    p.add_argument("--r")
    p.add_argument("--out-report")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, EnumerationCapError, SamplingError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # json.loads on a file of deeply nested arrays or objects
        print("error: a JSON input is nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:  # e.g. a file header's vertex count past the free memory
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
