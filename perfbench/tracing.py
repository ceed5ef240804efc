"""Traced runs: wrap the public functions of the `ascentlab` layers by module
attribute, keep one span (name, start, end, parent) per call in memory, and
derive per-layer metrics from the spans and from the calls' arguments and
results.

Wrapping replaces the function object wherever an `ascentlab` module holds
it, so calls through `from ... import` bindings and calls inside the module
itself are traced too. Generator functions are left alone: a span around
them would end before any work is done, so their time counts in the caller.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from time import perf_counter

# dp functions map to the engine family they belong to. The remaining public
# dp functions are per-transition helpers (bit-set renumbering and the like);
# wrapping them would cost more than they do.
DP_LAYERS = {
    "enumerate_ascent": "dp.layered",
    "enumerate_000_polynomial": "dp.layered",
    "enumerate_100": "dp.layered",
    "enumerate_000_exponential": "dp.setstate",
    "enumerate_110": "dp.setstate",
    "enumerate_120": "dp.setstate",
    "enumerate_with_cache": "dp.memo",
    "suffix_count": "dp.memo",
    "cache_repetition_report": "dp.memo",
}
# Per-value formatting, called once per CSV cell inside the writers.
SKIP = {"io.format_real", "io.format_real_sci"}
PACKAGE = "ascentlab"
MODULES = ("dp", "sequences", "analysis", "approximants", "io", "verify")
LAYERS = ("dp.layered", "dp.setstate", "dp.memo", "sequences", "approximants",
          "analysis", "io", "verify", "cli")


def traced_functions():
    """[(module, attribute, layer)] for every function the tracer wraps."""
    out = []
    for short in MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for attr, obj in sorted(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)
                    or f"{short}.{attr}" in SKIP):
                continue
            layer = DP_LAYERS.get(attr) if short == "dp" else short
            if layer is not None:
                out.append((module, attr, layer))
    return out


def _layered_states(name, n):
    """States the layered engines fill over a run of n terms, from their
    slice shapes (ascent: a+2 per slice; 100: (a+3)(a+2); 000 poly: (a+3)^2
    plus the a=-1 and a=-2 slices)."""
    total = 0
    for step in range(1, n):
        d = n - 1 - step
        for a in range(d + 1):
            if name == "enumerate_ascent":
                total += a + 2
            elif name == "enumerate_100":
                total += (a + 3) * (a + 2)
            else:
                total += (a + 3) ** 2
        if name == "enumerate_000_polynomial":
            total += 5
    return total


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Span recorder plus the counters that per-layer metrics need.

    Call `install()` before a traced iteration and `uninstall()` after it;
    `begin()` resets the per-iteration state and `metrics()` reads it.
    """

    def __init__(self):
        self.targets = traced_functions()
        self.saved = []
        self.repetitions = []    # spans of every finished traced repetition
        self.begin()

    # -- recording -----------------------------------------------------------

    def begin(self):
        self.spans = []          # [name, layer, start, end, parent]
        self.stack = []
        self.counts = {}
        self.caches = {}

    def _count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _top(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def span(self, name, layer, fn, /, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        rec = [name, layer, perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self.stack.append(idx)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            rec[3] = perf_counter()
            self.stack.pop()
            self.observe(name, layer, args, kwargs, result, error, rec[3] - rec[2])

    def _wrapper(self, attr, layer, fn):
        def wrapper(*args, **kwargs):
            return self.span(attr, layer, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module, attr, layer in self.targets:
            orig = getattr(module, attr)
            wrapped = self._wrapper(attr, layer, orig)
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if obj is orig:
                        self.saved.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for mod, name, orig in reversed(self.saved):
            setattr(mod, name, orig)
        self.saved = []

    # -- counters taken from arguments and results ---------------------------

    def observe(self, name, layer, args, kwargs, result, error, dur):
        self._count(f"calls.{layer}")
        if layer in ("dp.layered", "dp.setstate") and result is not None:
            n = args[0]
            self._count(f"{layer}.engine_calls")
            self._count(f"{layer}.terms", n)
            self._top(f"{layer}.max_coeff_bits", max(v.bit_length() for v in result.values))
            if layer == "dp.layered":
                self._count("dp.layered.states", _layered_states(name, n))
        elif name == "enumerate_with_cache" and result is not None:
            self.caches[id(result[1])] = result[1]
        elif name == "suffix_count" and kwargs.get("cache") is not None:
            self.caches[id(kwargs["cache"])] = kwargs["cache"]
        elif name == "brute_force_avoiders":
            self._count("sequences.brute_calls")
            self._count("sequences.terms", args[1])
        elif name == "fit_da":
            self._count("fit_da.calls")
            self._count("fit_da.busy_s", dur)
            if error is not None:
                self._count("fit_da.failed")
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            self._top("fit_da.max_unknowns", cfg.matched_terms)
        elif name == "recurrence_extend":
            self._count("recurrence_extend.busy_s", dur)
        elif name == "predict_ensemble":
            self._count("predict_ensemble.busy_s", dur)
            if result is not None:
                self._count("ensemble.tried", len(args[1]))
                self._count("ensemble.used", len(result.configs_used))
        elif name == "read_bfile":
            self._count("io.bytes_read", _size(args[0]))
        elif layer == "io":
            self._count("io.bytes_written", _size(args[0]))
        elif name == "run_checks" and result is not None:
            self._count("verify.checks", len(result))
            self._count("verify.checks_failed", sum(not r.ok for r in result))
        elif name == "compare_series_file":
            self._count("verify.checks")
            self._count("verify.checks_failed", int(result is not None or error is not None))

    # -- derived metrics ------------------------------------------------------

    def dump(self, path):
        """Write every repetition's spans; times in microseconds from the
        repetition's first span, names and layers as indices into tables."""
        names, layers = {}, {}
        reps = []
        for spans in self.repetitions:
            t0 = spans[0][2] if spans else 0.0
            reps.append([[names.setdefault(n, len(names)), layers.setdefault(lay, len(layers)),
                          round((s - t0) * 1e6), round((e - t0) * 1e6), p]
                         for n, lay, s, e, p in spans])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "layers": list(layers),
                       "fields": ["name", "layer", "start_us", "end_us", "parent"],
                       "repetitions": reps}, fh, separators=(",", ":"))

    def metrics(self):
        """Per-layer metrics of the spans recorded since `begin()`."""
        spans = self.spans
        child = [0.0] * len(spans)
        above = [frozenset()] * len(spans)   # layers of each span's ancestors
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (_, layer, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                above[i] = above[parent] | {spans[parent][1]}
            if layer not in above[i]:
                busy[layer] += end - start
        for i, (_, layer, start, end, _) in enumerate(spans):
            self_s[layer] += end - start - child[i]
        self.repetitions.append(spans)
        total = busy["cli"] or 1.0
        c = self.counts
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
            if layer != "cli":
                m[f"{layer}.busy_s"] = busy[layer]
                m[f"{layer}.share"] = busy[layer] / total
        lay_busy = busy["dp.layered"]
        m.update({
            "dp.layered.calls": c.get("dp.layered.engine_calls", 0),
            "dp.layered.terms": c.get("dp.layered.terms", 0),
            "dp.layered.states": c.get("dp.layered.states", 0),
            "dp.layered.states_per_s": c.get("dp.layered.states", 0) / lay_busy if lay_busy else 0.0,
            "dp.layered.max_coeff_bits": c.get("dp.layered.max_coeff_bits", 0),
            "dp.setstate.calls": c.get("dp.setstate.engine_calls", 0),
            "dp.setstate.terms": c.get("dp.setstate.terms", 0),
            "dp.setstate.max_coeff_bits": c.get("dp.setstate.max_coeff_bits", 0),
            "sequences.calls": c.get("sequences.brute_calls", 0),
            "sequences.terms": c.get("sequences.terms", 0),
            "approximants.fit_da.busy_s": c.get("fit_da.busy_s", 0.0),
            "approximants.fit_da.calls": c.get("fit_da.calls", 0),
            "approximants.fit_da.failed": c.get("fit_da.failed", 0),
            "approximants.fit_da.max_unknowns": c.get("fit_da.max_unknowns", 0),
            "approximants.recurrence_extend.busy_s": c.get("recurrence_extend.busy_s", 0.0),
            "approximants.predict_ensemble.busy_s": c.get("predict_ensemble.busy_s", 0.0),
            "approximants.fit_ok_ratio": (c["ensemble.used"] / c["ensemble.tried"]
                                          if c.get("ensemble.tried") else 0.0),
            "analysis.calls": c.get("calls.analysis", 0),
            "io.bytes_read": c.get("io.bytes_read", 0),
            "io.bytes_written": c.get("io.bytes_written", 0),
            "verify.checks": c.get("verify.checks", 0),
            "verify.checks_failed": c.get("verify.checks_failed", 0),
        })
        caches = list(self.caches.values())
        hits = sum(x.hits for x in caches)
        misses = sum(x.misses for x in caches)
        m.update({
            "dp.memo.cache_keys": sum(len(x) for x in caches),
            "dp.memo.hits": hits,
            "dp.memo.misses": misses,
            "dp.memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.spans": len(spans),
        })
        return m
