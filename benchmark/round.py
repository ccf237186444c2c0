"""One round of a benchmark workload, run in a fresh interpreter.

    python3 benchmark/round.py --workload NAME --seed N --jobs J --out DIR --mode MODE

The round imports ``techmarket`` from ``src/`` next to this directory,
resolves every operation's parameters, then runs the operations through
``run_scenario`` with outputs under DIR. MODE is ``plain``; ``trace``, with
a span on every function in ``tracer.SPANS``; ``pool``, with only the
``run_trajectories`` probe; or ``setup``, which stops once the parameters
are resolved. The last line of standard output is one JSON record. An
operation that raises is recorded as failed and the round goes on.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from tracer import PoolProbe, Tracer, cpu_seconds, peak_rss_kb
from workloads import WORKLOADS, op_flags

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "pool", "setup"),
                    default="plain")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import techmarket
    from techmarket.config import resolve_config
    from techmarket.scenarios import run_scenario
    if not Path(techmarket.__file__).resolve().is_relative_to(src):
        print(f"techmarket was imported from {techmarket.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    resolved = [
        resolve_config(None, op_flags(op, args.seed, args.jobs,
                                      str(args.out / op.scenario)))
        for op in workload.ops
    ]
    resolve_s = time.perf_counter() - t0
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    probe = {"trace": Tracer, "pool": PoolProbe}.get(args.mode)
    probe = probe() if probe else None
    if probe is not None:
        probe.install()

    ops = []
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for op, (params, controls) in zip(workload.ops, resolved):
        op_t0 = time.perf_counter()
        error = None
        try:
            run_scenario(controls.scenario, params, controls)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"scenario": op.scenario, "wall_s": time.perf_counter() - op_t0,
                    "error": error})
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0

    print(json.dumps({
        "ready": ready,
        "resolve_s": resolve_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": peak_rss_kb(),
        "ops": ops,
        "probe": probe.report() if probe is not None else None,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
