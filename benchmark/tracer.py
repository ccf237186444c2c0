"""Per-layer spans and counts, recorded from outside the package.

Package modules call each other through module globals (``from .dynamics
import sweep`` and so on), resolved at call time. Replacing a function in
every ``techmarket`` module that holds it therefore puts a span around each
call without editing the package. A function that no longer exists is
skipped, and its metrics read 0.
"""
from __future__ import annotations

import dataclasses
import importlib
import resource
import sys
import time
from collections import Counter
from typing import Callable

#: (defining module, function) pairs that get a span in a traced round.
SPANS = (
    ("techmarket.dynamics", "firm_update"),
    ("techmarket.dynamics", "attempt_bankruptcy"),
    ("techmarket.dynamics", "interact"),
    ("techmarket.dynamics", "redistribute_shares_equal"),
    ("techmarket.dynamics", "renormalize_shares"),
    ("techmarket.dynamics", "sweep"),
    ("techmarket.rng", "shuffle_in_place"),
    ("techmarket.rng", "derive_seed"),
    ("techmarket.market", "init_market"),
    ("techmarket.ensemble", "run_replica"),
    ("techmarket.ensemble", "run_trajectories"),
    ("techmarket.ensemble", "aggregate"),
    ("techmarket.output", "emit_timeseries_csv"),
    ("techmarket.output", "emit_event_log"),
)


def patch(module_name: str, func_name: str,
          make_wrapper: Callable[[Callable], Callable]) -> bool:
    """Replace a package function by a wrapper in every techmarket module
    that refers to it; False when the function does not exist."""
    orig = getattr(importlib.import_module(module_name), func_name, None)
    if orig is None:
        return False
    wrapper = make_wrapper(orig)
    for name, module in list(sys.modules.items()):
        if name != "techmarket" and not name.startswith("techmarket."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)
    return True


class Tracer:
    """Calls, total and self time per span, plus the counts the spans see.

    Self time is a span's duration minus the durations of the spans opened
    directly inside it and their bookkeeping. The cost of calling into a
    span's wrapper still falls in the caller's self time; ``trace.overhead``
    bounds the whole cost.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.events: Counter[str] = Counter()
        self.rescued = 0
        self.replica_keys: set = set()
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, func_name in SPANS:
            key = f"{module_name.removeprefix('techmarket.')}.{func_name}"
            patch(module_name, func_name,
                  lambda fn, key=key: self._span(key, fn))

    def _span(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns
        observe = {"dynamics.sweep": self._observe_sweep,
                   "ensemble.run_replica": self._observe_replica}.get(key)

        def traced(*args, **kwargs):
            t0 = clock()
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                calls[key] += 1
                total_ns[key] += elapsed
                self_ns[key] += elapsed - inner
                if stack:  # the bookkeeping above stays out of the caller's self time
                    stack[-1] += clock() - t0
            if observe is not None:
                t1 = clock()
                observe(args, kwargs, result)
                if stack:  # bookkeeping, kept out of the caller's self time
                    stack[-1] += clock() - t1
            return result

        return traced

    def _observe_sweep(self, args, kwargs, stats) -> None:
        for kind, count in stats.counts.items():
            self.events[kind.name.lower()] += count
        self.rescued += stats.rescued

    def _observe_replica(self, args, kwargs, trajectory) -> None:
        params = args[0] if args else kwargs["params"]
        seed = args[1] if len(args) > 1 else kwargs["replica_seed"]
        key = tuple((f.name, getattr(params, f.name))
                    for f in dataclasses.fields(params) if f.name != "t_max")
        self.replica_keys.add((key, seed))

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "events": dict(self.events),
            "rescued": self.rescued,
            "replicas_unique": len(self.replica_keys),
        }


def cpu_seconds() -> float:
    """CPU time of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class PoolProbe:
    """Wall and CPU time (this process and its reaped pool workers) spent
    inside ``run_trajectories``; nothing else is wrapped."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def install(self) -> bool:
        return patch("techmarket.ensemble", "run_trajectories", self._wrap)

    def _wrap(self, fn: Callable) -> Callable:
        def probed(*args, **kwargs):
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall_s += time.perf_counter() - t0
                self.cpu_s += cpu_seconds() - c0
        return probed

    def report(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s}


def peak_rss_kb() -> int:
    """Largest resident set of this process or of any reaped descendant."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

