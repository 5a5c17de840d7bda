"""Spans around hesscells' layers, installed from outside the package.

Each traced function is a module-level name that a hesscells module looks
up at call time, or a `Polynomial` arithmetic method.  The wrapper replaces
that binding, so only calls made through it are timed.  A span's self time
is its duration minus the durations of the spans opened inside it; a span
opened directly inside a span of the same metric (``a - b`` calling
``a + (-b)``, say) is folded into it.

Pool workers forked by ``sweep`` inherit the wrappers.  Each worker starts
from empty statistics and writes them to ``<dump_dir>/worker-<pid>.json``
when it exits; `merge_worker_dumps` adds them to the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from multiprocessing import util as mp_util

# (metric, modules whose binding of the metric's last component is wrapped).
# Metrics are named after the defining module, except `frobenius.reduce`,
# which keeps the divisions of the Frobenius check apart from Buchberger's.
SPANS = (
    ("sweep.sweep", ("cli",)),
    ("sweep.run_case", ("sweep",)),
    ("combinat.fixed_points", ("sweep", "frobenius")),
    ("combinat.v_of_w", ("sweep", "groebner")),
    ("cells.build_ideal", ("sweep", "frobenius")),
    ("cells.cell_generators", ("cells",)),
    ("groebner.order_n_w", ("sweep", "frobenius")),
    ("groebner.triangular_analysis", ("sweep",)),
    ("groebner.buchberger_check", ("sweep",)),
    ("groebner.s_polynomial", ("groebner",)),
    ("groebner.reduce", ("groebner",)),
    ("groebner.reduced_gb_oracle", ("sweep",)),
    ("grading_hilbert.weights_for", ("sweep",)),
    ("grading_hilbert.is_homogeneous", ("sweep",)),
    ("grading_hilbert.hilbert_formula", ("sweep",)),
    ("grading_hilbert.hilbert_oracle", ("sweep",)),
    ("frobenius.make_splitting_context", ("sweep",)),
    ("frobenius.compatibility_check", ("sweep",)),
    ("frobenius.splitting_apply", ("frobenius",)),
    ("frobenius.reduce", ("frobenius",)),
)

# (metric, Polynomial methods wrapped under it).
POLY_SPANS = (
    ("polyring.mul", ("__mul__", "__rmul__")),
    ("polyring.add_sub", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("polyring.pow", ("__pow__",)),
)

def reduce_steps(result, args) -> int:
    """Division steps of one `reduce` call.

    Each step either adds one term to a quotient or moves the leading term
    of the running remainder into the remainder.  Leading monomials strictly
    decrease, so no two steps write the same monomial of the same output:
    the steps are exactly the quotient terms plus the remainder terms.
    """
    quotients, remainder = result
    return sum(len(q.terms) for q in quotients) + len(remainder.terms)


# metric -> (counter name, function of (result, args) giving the amount).
COUNTERS = {
    "groebner.reduce": ("groebner.reduce.steps", reduce_steps),
    "frobenius.reduce": ("frobenius.reduce.steps", reduce_steps),
    "groebner.s_polynomial": ("groebner.buchberger_check.s_pairs",
                              lambda result, args: 1),
    "cells.build_ideal": ("cells.build_ideal.gen_terms",
                          lambda result, args: sum(len(g.terms) for _, _, g in result.generators)),
    "frobenius.make_splitting_context": ("frobenius.make_splitting_context.fpow_terms",
                                         lambda result, args: len(result.F_pow.terms)),
    "polyring.mul": ("polyring.mul.out_terms",
                     lambda result, args: 0 if result is NotImplemented else len(result.terms)),
}

# metric -> (name of the count of distinct first arguments, key of one argument).
DISTINCT = {
    "cells.cell_generators": ("cells.cell_generators.distinct_w", lambda w: w.images),
}

# Spans whose every duration is kept, for percentiles.
SAMPLED = ("sweep.run_case",)


class Tracer:
    """Span statistics of one process, kept in memory."""

    def __init__(self, dump_dir=None):
        self.dump_dir = dump_dir
        self.stats = {}      # metric -> [calls, self seconds]
        self.counts = {}     # counter name -> amount
        self.distinct = {}   # distinct-count name -> set of keys
        self.samples = {}    # metric -> list of durations in seconds
        self._stack = []     # open spans: [metric, seconds spent in child spans]
        if dump_dir is not None:
            mp_util.register_after_fork(self, Tracer._start_worker)

    def wrap(self, fn, metric):
        stats = self.stats.setdefault(metric, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        samples = self.samples.setdefault(metric, []) if metric in SAMPLED else None
        counter = COUNTERS.get(metric)
        if counter is not None:
            self.counts.setdefault(counter[0], 0)
        distinct = DISTINCT.get(metric)
        if distinct is not None:
            self.distinct.setdefault(distinct[0], set())
        counts, seen = self.counts, self.distinct

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == metric:
                return fn(*args, **kwargs)
            frame = [metric, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if samples is not None:
                    samples.append(duration)
            if counter is not None:
                counts[counter[0]] += counter[1](result, args)
            if distinct is not None:
                seen[distinct[0]].add(distinct[1](args[0]))
            return result

        return span

    def _start_worker(self):
        """Reset what the worker inherited and dump its own figures at exit."""
        self._stack.clear()
        for stat in self.stats.values():
            stat[:] = [0, 0.0]
        for name in self.counts:
            self.counts[name] = 0
        for keys in self.distinct.values():
            keys.clear()
        for durations in self.samples.values():
            durations.clear()
        mp_util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self):
        path = os.path.join(self.dump_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump(self.snapshot(), f)

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "counts": self.counts,
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
            "samples": self.samples,
        }

    def self_seconds(self) -> float:
        return sum(s for _, s in self.stats.values())

    def merge(self, snap: dict) -> None:
        for metric, (calls, self_s) in snap["stats"].items():
            stat = self.stats.setdefault(metric, [0, 0.0])
            stat[0] += calls
            stat[1] += self_s
        for name, amount in snap["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + amount
        for name, keys in snap["distinct"].items():
            self.distinct.setdefault(name, set()).update(map(tuple, keys))
        for metric, durations in snap["samples"].items():
            self.samples.setdefault(metric, []).extend(durations)

    def merge_worker_dumps(self) -> int:
        """Add every worker dump to these statistics; returns the count."""
        names = sorted(n for n in os.listdir(self.dump_dir) if n.startswith("worker-"))
        for name in names:
            with open(os.path.join(self.dump_dir, name)) as f:
                self.merge(json.load(f))
        return len(names)

    def metrics(self) -> dict:
        """Flat `<module>.<function>.<stat>` figures."""
        out = {}
        for metric, (calls, self_s) in self.stats.items():
            out[f"{metric}.calls"] = calls
            out[f"{metric}.self_s"] = self_s
        out.update(self.counts)
        out.update({name: len(keys) for name, keys in self.distinct.items()})
        for metric, durations in self.samples.items():
            out[f"{metric}.p50_ms"] = percentile(durations, 50) * 1e3
            out[f"{metric}.p99_ms"] = percentile(durations, 99) * 1e3
        return out


def percentile(values, pct) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[int(rank) - 1]


def install(tracer: Tracer) -> list:
    """Wrap every span binding that exists; returns the ones not found.

    Modules are fetched with `importlib`: `import hesscells.sweep as m`
    would bind the `sweep` *function*, which the package re-exports under
    the same name as its module.
    """
    missing = []
    for metric, modules in SPANS:
        attr = metric.rsplit(".", 1)[1]
        for name in modules:
            module = importlib.import_module(f"hesscells.{name}")
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"hesscells.{name}.{attr}")
                continue
            setattr(module, attr, tracer.wrap(fn, metric))
    poly = importlib.import_module("hesscells.polyring").Polynomial
    for metric, methods in POLY_SPANS:
        for method in methods:
            fn = poly.__dict__.get(method)
            if fn is None:
                missing.append(f"hesscells.polyring.Polynomial.{method}")
                continue
            setattr(poly, method, tracer.wrap(fn, metric))
    return missing
