"""Benchmark of the tournhom workbench, timed from outside the program.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One workload runs in one process as a closed loop with one caller: each
operation starts when the previous one has ended and been checked.  A run
repeats whole rounds of the same operations until --seconds have passed.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
each operation untraced and traced, back to back, and prints the
per-layer metrics of the traced runs and the tracing overhead.
`--workload all` runs every workload, untraced and traced, each in its
own process.  The last line of standard output is the result as one JSON
object; the result with its run metadata, and the spans of a traced run,
are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 6


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


# keep numpy's BLAS pool within the cores this process may use; this has to
# happen before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (after the BLAS settings above)


LAYER_NAMES = tracing.LAYERS
PER_LAYER = {
    **{f"{layer}.{kind}": "s" for layer in LAYER_NAMES for kind in ("busy_s", "self_s")},
    "bench.self_s": "s",
    "trace.phase_s": "s",
    "trace.untraced_phase_s": "s",
    "trace.overhead": "ratio",
    "homcount.pinned.calls": "count",
    "homcount.pinned.s": "s",
    "homcount.pinned_zero.s": "s",
    "homcount.sweep.calls": "count",
    "homcount.sweep.s": "s",
    "homcount.enumerate.maps": "count",
    "homcount.enumerate.s": "s",
    "homcount.count.calls": "count",
    "homcount.count.s": "s",
    "spectral.density_matrix.self_s": "s",
    "spectral.density_matrix.per_gadget_host": "count",
    "spectral.xy.calls": "count",
    "spectral.xy.s": "s",
    "spectral.pattern.s": "s",
    "region.in_region.calls": "count",
    "region.in_region.s": "s",
    "reduction.eval.self_s": "s",
    "reduction.rhs.self_s": "s",
    "hosts.build_host.vertices": "count",
    "hosts.build_host.s": "s",
    "gadgets.setup.s": "s",
}


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def os_threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return -1


def metadata(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "os_threads": os_threads(),
        "nproc": _nproc(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "git_revision": git_revision(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- the program, untraced or traced -----------------------------------------------------


def load_program():
    import tournhom.gadgets  # noqa: F401  (the imports register the layer modules)
    import tournhom.homcount  # noqa: F401
    import tournhom.hosts  # noqa: F401
    import tournhom.reduction  # noqa: F401
    import tournhom.region  # noqa: F401
    import tournhom.spectral  # noqa: F401

    if not Path(tournhom.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"tournhom comes from {tournhom.__file__}, not from {ROOT / 'src'}")
    functions = tracing.layer_functions()
    return functions, tracing.make_api(functions)


# -- set-up time, from process start to the first timed operation ------------------------


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until its workload inputs are ready."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--probe-setup",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


# -- rounds --------------------------------------------------------------------------------


class Tally:
    def __init__(self, n_ops: int):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.op_s = 0.0
        self.round_s: list[float] = []
        self.op_times: list[list[float]] = [[] for _ in range(n_ops)]
        self.op_failed = [0] * n_ops
        self.errors: list[str] = []
        self.first_round_rss_mb = 0.0
        self._round_start = 0.0

    def note(self, kind: str, msg: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {msg}")

    def end_round(self) -> None:
        self.rounds += 1
        self.round_s.append(self.op_s - self._round_start)
        self._round_start = self.op_s
        if self.rounds == 1:
            # the peak so far covers set-up and every operation once; later
            # rounds add only allocator growth, more of it the more rounds
            # a fast stretch of the machine fits in
            self.first_round_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(i: int, op, api, tally: Tally) -> None:
    """One timed call; the output is checked after the clock has stopped."""
    clock = time.perf_counter
    tally.attempted += 1
    t0 = clock()
    try:
        out = op.run(api)
    except Exception as exc:  # a failed operation is counted, the run goes on
        tally.op_times[i].append(clock() - t0)
        tally.op_s += tally.op_times[i][-1]
        tally.failed += 1
        tally.op_failed[i] += 1
        tally.note(op.kind, f"{type(exc).__name__}: {exc}")
        return
    tally.op_times[i].append(clock() - t0)
    tally.op_s += tally.op_times[i][-1]
    err = op.check(out)
    if err is not None:
        tally.wrong += 1
        tally.note(op.kind, f"wrong output: {err}")


def run_round(wl, api, tally: Tally) -> None:
    for i, op in enumerate(wl.ops):
        run_op(i, op, api, tally)
    tally.end_round()


def run_paired_round(wl, api, plain: Tally, traced: Tally, tracer) -> int:
    """Each operation untraced and traced, back to back, the order swapped
    every round; returns the most density matrices one op built per
    (gadget, host) pair."""
    per_pair = 0
    traced_first = plain.rounds % 2 == 1
    for i, op in enumerate(wl.ops):
        for traced_now in (traced_first, not traced_first):
            if not traced_now:
                run_op(i, op, api, plain)
                continue
            mark = len(tracer.spans)
            tracer.install()
            try:
                run_op(i, op, api, traced)
            finally:
                tracer.uninstall()
            per_pair = max(per_pair, tracing.density_builds_per_pair(tracer.spans[mark:]))
    plain.end_round()
    traced.end_round()
    return per_pair


def timed_phase(wl, api, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed.  With a tracer every round
    is paired: each operation runs untraced and traced, back to back."""
    plain, traced = Tally(len(wl.ops)), Tally(len(wl.ops))
    round_sums: list[dict] = []
    last_spans: list = []
    per_pair = 0
    start = time.perf_counter()
    while True:
        if tracer is None:
            run_round(wl, api, plain)
        else:
            per_pair = max(per_pair, run_paired_round(wl, api, plain, traced, tracer))
            last_spans = tracer.take()
            round_sums.append(tracing.summarize(last_spans))
        if time.perf_counter() - start >= seconds:
            return plain, traced, round_sums, last_spans, per_pair


# -- metrics ---------------------------------------------------------------------------------


def group_throughput(wl, tally: Tally) -> dict[str, float]:
    """Per group: operations completed in a round over the sum of each one's
    median time across rounds.

    Other tenants of a shared machine slow some stretches of a run; a
    median per operation drops those stretches where a mean would keep them.
    """
    done: dict[str, float] = {}
    busy: dict[str, float] = {}
    for op, times, failed in zip(wl.ops, tally.op_times, tally.op_failed):
        done[op.group] = done.get(op.group, 0.0) + 1 - failed / tally.rounds
        busy[op.group] = busy.get(op.group, 0.0) + statistics.median(times)
    return {g: done[g] / busy[g] for g in done}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tracing_overhead(plain: Tally, traced: Tally) -> float:
    """Traced over untraced time of the same operation run back to back:
    the median ratio of each operation, weighted by its untraced median
    time, minus 1.  Pairing cancels the machine's drift between rounds."""
    weights = [statistics.median(t) for t in plain.op_times]
    ratios = [
        statistics.median(a / b for a, b in zip(tr, pl))
        for tr, pl in zip(traced.op_times, plain.op_times)
    ]
    return sum(w * (q - 1) for w, q in zip(weights, ratios)) / sum(weights)


def layer_metrics(setup_sum, round_sums, plain: Tally, traced: Tally, per_pair: int) -> dict:
    """Per-layer metrics per traced round; build_host adds its set-up share."""
    n = traced.rounds

    def per_round(get):
        return sum(get(s) for s in round_sums) / n

    phase = traced.op_s / n
    top = per_round(lambda s: s["top_s"])
    values = {
        "bench.self_s": phase - top,
        "trace.phase_s": phase,
        "trace.untraced_phase_s": plain.op_s / plain.rounds,
        "trace.overhead": tracing_overhead(plain, traced),
        "spectral.density_matrix.per_gadget_host": per_pair,
        "gadgets.setup.s": setup_sum["s"]["gadgets.sample_base_tournament"]
        + setup_sum["s"]["gadgets.build_family"],
        "hosts.build_host.vertices": setup_sum["host_vertices"]
        + per_round(lambda s: s["host_vertices"]),
        "hosts.build_host.s": setup_sum["s"]["hosts.build_host"]
        + per_round(lambda s: s["s"]["hosts.build_host"]),
    }
    for layer in LAYER_NAMES:
        values[f"{layer}.busy_s"] = per_round(lambda s: s["layer_busy_s"][layer])
        values[f"{layer}.self_s"] = per_round(lambda s: s["layer_self_s"][layer])
    spans = {
        "homcount.pinned": "homcount.count_hom_rooted",
        "homcount.sweep": "homcount.rooted_count_matrix",
        "homcount.count": "homcount.count_hom",
        "region.in_region": "region.in_region",
    }
    for metric, name in spans.items():
        values[f"{metric}.calls"] = per_round(lambda s: s["calls"][name])
        values[f"{metric}.s"] = per_round(lambda s: s["s"][name])
    values["homcount.pinned_zero.s"] = per_round(lambda s: s["pinned_zero_s"])
    values["homcount.enumerate.maps"] = per_round(lambda s: s["maps"])
    values["homcount.enumerate.s"] = per_round(lambda s: s["s"]["homcount.iter_homs"])
    xy = ("spectral.xy_point", "spectral.xy_from_matrix")
    values["spectral.xy.calls"] = per_round(lambda s: sum(s["calls"][k] for k in xy))
    values["spectral.xy.s"] = per_round(lambda s: sum(s["s"][k] for k in xy))
    values["spectral.density_matrix.self_s"] = per_round(
        lambda s: s["self_s"]["spectral.density_matrix"]
    )
    values["spectral.pattern.s"] = per_round(lambda s: s["s"]["spectral.graphon_pattern_check"])
    values["reduction.eval.self_s"] = per_round(lambda s: s["self_s"]["reduction.eval_reduced"])
    values["reduction.rhs.self_s"] = per_round(lambda s: s["self_s"]["reduction.reduction_rhs"])
    return values


def jsonable_spans(spans, origin: float) -> list:
    return [
        [name, round(a - origin, 7), round(b - origin, 7), parent, None if isinstance(info, tuple) else info]
        for name, a, b, parent, info in spans
    ]


# -- one workload ------------------------------------------------------------------------------


def run_workload(args) -> int:
    import workloads

    if args.probe_setup:
        _functions, api = load_program()
        workloads.WORKLOADS[args.workload](api, args.seed)
        print("ready", flush=True)
        return 0

    # half the set-up probes run before the timed phase and half after it
    probes = 0 if args.trace else SETUP_PROBES
    setup_times = [probe_setup(args) for _ in range(probes // 2)]
    functions, api = load_program()
    tracer = None
    setup_spans: list = []
    if args.trace:
        tracer = tracing.Tracer(functions, api)
        tracer.install()
    t_setup = time.perf_counter()
    try:
        wl = workloads.WORKLOADS[args.workload](api, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
            setup_spans = tracer.take()
    wl.prepare()
    # the inputs and references live for the whole run: move them out of the
    # cyclic collector's reach so its passes scan only what operations allocate
    gc.collect()
    gc.freeze()

    plain, traced, round_sums, last_spans, per_pair = timed_phase(wl, api, args.seconds, tracer)
    gc.unfreeze()
    setup_times += [probe_setup(args) for _ in range(probes - probes // 2)]
    groups = group_throughput(wl, plain)
    if args.trace:
        values = layer_metrics(
            tracing.summarize(setup_spans), round_sums, plain, traced, per_pair
        )
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "geomean_ops_per_s": {"value": geomean(groups.values()), "unit": "1/s"},
            "peak_rss_mb": {"value": plain.first_round_rss_mb, "unit": "MB"},
        }
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    wrong = plain.wrong + traced.wrong
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    meta = metadata(args)
    meta.update(
        rounds=plain.rounds,
        ops_per_round=len(wl.ops),
        op_kinds=wl.kinds,
        setup_probes_s=setup_times,
        round_s={"untraced": plain.round_s, "traced": traced.round_s},
        group_ops_per_s=groups,
        peak_rss_mb_at_end=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        op_median_s=[statistics.median(t) for t in plain.op_times],
        errors=plain.errors + traced.errors,
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"metadata": meta, "inputs": wl.inputs, "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        origin = setup_spans[0][1] if setup_spans else t_setup
        (RESULTS / f"{args.workload}-seed{args.seed}.spans.json").write_text(
            json.dumps(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "info"],
                    "setup": jsonable_spans(setup_spans, origin),
                    "last_traced_round": jsonable_spans(last_spans, last_spans[0][1] if last_spans else 0.0),
                }
            )
        )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{meta['rounds']} rounds of {len(wl.ops)} ops {wl.kinds}")
    print("  ops per second by group: " + ", ".join(f"{g} {v:.6g}" for g, v in groups.items()))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYER_NAMES)
        print(f"  accounted per traced round: layer self {layers:.6g} s + bench "
              f"{metrics['bench.self_s']['value']:.6g} s = phase {metrics['trace.phase_s']['value']:.6g} s")
    print(f"  attempted {attempted} failed {failed} wrong {wrong}")
    for err in meta["errors"]:
        print(f"  error: {err}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    import workloads

    summary = {}
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            res = json.loads(lines[-1])
            summary[f"{name}/trace{trace}"] = res
            ok = ok and res["correct"] and res["failed"] == 0
    print(json.dumps(summary), flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
