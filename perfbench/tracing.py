"""Spans around the calls between tournhom layers, recorded from outside.

`Tracer.install` wraps every public function of the traced layer modules
at each place one module calls it from another (the importing module's
namespace) and in the `api` namespace the benchmark calls through.  Calls
inside one module are not wrapped, so a layer's self time includes its
own private helpers.  `digraphs` is not a traced layer: its constructors
count as the time of whichever layer calls them.

A span is [name, start, end, parent index, info].  `info` carries the one
fact a per-layer metric needs from the call: the zero flag of a pinned
count, the number of maps a drained `iter_homs` yielded, the order of a
built host, or the (gadget, host) identity of a density matrix.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

LAYERS = ("homcount", "spectral", "region", "reduction", "hosts", "gadgets")


def _info_pinned(args, out):
    return out == 0


def _info_host(args, out):
    return out[0].n


def _info_density(args, out):
    return (id(args[0]), id(args[1]))


INFO = {
    "homcount.count_hom_rooted": _info_pinned,
    "hosts.build_host": _info_host,
    "spectral.density_matrix": _info_density,
}


def layer_functions() -> dict[str, object]:
    """Public functions of the traced layers, keyed by 'layer.name'.

    Public means a module-level function without a leading underscore;
    `__all__` misses some (`spectral.xy_from_matrix`).
    """
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"tournhom.{layer}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                found[f"{layer}.{name}"] = obj
    return found


def make_api(functions: dict[str, object]) -> types.SimpleNamespace:
    api = types.SimpleNamespace()
    for qual, fn in functions.items():
        short = qual.split(".", 1)[1]
        if hasattr(api, short):
            raise RuntimeError(f"two layers export {short!r}")
        setattr(api, short, fn)
    return api


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the wrappers in."""

    def __init__(self, functions: dict[str, object], api: types.SimpleNamespace):
        self.functions = functions
        self.api = api
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers = {qual: self._wrap(qual, fn) for qual, fn in functions.items()}
        by_id = {id(fn): qual for qual, fn in functions.items()}
        # (module, attribute, qualified name) for every cross-module binding
        self._sites = []
        for modname, mod in sorted(sys.modules.items()):
            if not modname.startswith("tournhom.") or mod is None:
                continue
            for attr, obj in vars(mod).items():
                qual = by_id.get(id(obj))
                if qual is not None and obj.__module__ != modname:
                    self._sites.append((mod, attr, qual))

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, info) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = info
        self._stack.pop()

    def _wrap(self, qual: str, fn):
        note = INFO.get(qual)
        if inspect.isgeneratorfunction(fn):
            # the span opens at the first next() and closes when the generator
            # is drained, so it covers every map the caller pulls
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = self._open(qual)
                produced = 0
                try:
                    for item in fn(*args, **kwargs):
                        produced += 1
                        yield item
                finally:
                    self._close(idx, produced)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(qual)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._close(idx, note(args, out) if note and out is not None else None)

        return wrapper

    def install(self) -> None:
        for mod, attr, qual in self._sites:
            setattr(mod, attr, self._wrappers[qual])
        for qual, wrapper in self._wrappers.items():
            setattr(self.api, qual.split(".", 1)[1], wrapper)

    def uninstall(self) -> None:
        for mod, attr, qual in self._sites:
            setattr(mod, attr, self.functions[qual])
        for qual, fn in self.functions.items():
            setattr(self.api, qual.split(".", 1)[1], fn)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[list]) -> dict:
    """Per-name totals and per-layer busy and self time of a list of spans.

    A layer is busy during a span that has no ancestor in the same layer;
    its self time is the sum over its spans of the duration minus the
    durations of the direct children.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    out = {
        "top_s": 0.0,
        "calls": Counter(),
        "s": Counter(),
        "self_s": Counter(),
        "layer_busy_s": Counter(),
        "layer_self_s": Counter(),
        "pinned_zero_s": 0.0,
        "maps": 0,
        "host_vertices": 0,
    }
    for i, (name, _start, _end, parent, info) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out["calls"][name] += 1
        out["s"][name] += dur[i]
        out["self_s"][name] += dur[i] - child[i]
        out["layer_self_s"][layer] += dur[i] - child[i]
        if parent is None:
            out["top_s"] += dur[i]
        p = parent
        while p is not None and spans[p][0].split(".", 1)[0] != layer:
            p = spans[p][3]
        if p is None:
            out["layer_busy_s"][layer] += dur[i]
        if name == "homcount.count_hom_rooted" and info:
            out["pinned_zero_s"] += dur[i]
        elif name == "homcount.iter_homs":
            out["maps"] += info or 0
        elif name == "hosts.build_host" and info:
            out["host_vertices"] += info
    return out


def density_builds_per_pair(spans: list[list]) -> int:
    """Most density matrices built for one (gadget, host) pair in these spans."""
    keys = Counter(s[4] for s in spans if s[0] == "spectral.density_matrix")
    return max(keys.values(), default=0)
