"""techmarket benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload bundle --seed 1 --seconds 25 --trace 0

Each round of the workload runs in a fresh interpreter (``round.py``) on
the package in ``src/``; its outputs go to a temporary directory under
``.bench_out/`` and are checked (``checks.py``) and deleted after the round.

``--trace 0`` repeats plain rounds for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` runs serial rounds in pairs, one plain and
one with a span on every layer function, for ``--seconds``, then one round
at the workload's jobs with only the pool probe, and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary goes to
standard error. See README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_round
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"

#: A round that takes longer than this is killed and the run fails.
ROUND_TIMEOUT_S = 150.0
#: No round starts when the run could then pass this time.
RUN_LIMIT_S = 150.0
#: Fresh interpreters timed for setup_s in one run.
SETUP_SAMPLES = 7

#: Event kinds of ``SweepStats.counts``, each reported as dynamics.events.<kind>.
EVENT_KINDS = ("survived", "bankrupted", "rescued", "moved_copied_frontier",
               "moved_no_diffusion", "merged", "spin_off", "spin_off_blocked",
               "idle")


class BenchError(Exception):
    """The benchmark itself could not run a round."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(workload: Workload, seed: int, jobs: int, mode: str,
              keep: Path | None = None) -> dict:
    """Run one round in a fresh interpreter and check its outputs.

    The outputs are deleted afterwards unless ``keep`` names a directory to
    move them to.
    """
    OUT_ROOT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload.name,
           "--seed", str(seed), "--jobs", str(jobs), "--out", str(out),
           "--mode", mode]
    try:
        started = _now()
        # its own session, so that a hung round and its pool can be killed
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
        lines = stdout.decode().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload.name} round ({mode}) exited with "
                             f"code {proc.returncode}")
        record = json.loads(lines[-1])
        record["setup_s"] = record["ready"] - started
        record["round_s"] = _now() - started
        if mode == "setup":
            return record
        failed = {op["scenario"] for op in record["ops"] if op["error"]}
        record["failed"] = len(failed)
        record["problems"], record["event_lines"] = check_round(workload, out, failed)
        record["bytes"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        if keep is not None:
            shutil.move(str(out), str(keep))
        return record
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _must_stop(start: float, seconds: float, last_s: float, reserve_s: float = 0.0) -> bool:
    elapsed = _now() - start
    return elapsed >= seconds or elapsed + last_s + reserve_s > RUN_LIMIT_S


def timed_run(workload: Workload, seed: int, seconds: float) -> tuple[list[dict], dict]:
    """Plain rounds for ``seconds``; returns the rounds and the end-to-end metrics."""
    rounds: list[dict] = []
    setups: list[float] = []
    start = _now()
    while True:
        record = run_round(workload, seed, workload.jobs, "plain")
        rounds.append(record)
        setups.append(record["setup_s"])
        if len(setups) < SETUP_SAMPLES:
            setups.append(run_round(workload, seed, workload.jobs, "setup")["setup_s"])
        if _must_stop(start, seconds, record["round_s"]):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_round(workload, seed, workload.jobs, "setup")["setup_s"])
    sweeps = workload.replica_sweeps
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "replica_sweeps_per_s": (
            statistics.median(sweeps / r["wall_s"] for r in rounds), "replica-sweeps/s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in rounds) / 1024.0, "MB"),
    }
    return rounds, metrics


def _counts(record: dict) -> dict:
    """The parts of a traced round that must repeat exactly for a seed."""
    probe = record["probe"]
    return {"calls": probe["calls"], "events": probe["events"],
            "rescued": probe["rescued"], "unique": probe["replicas_unique"],
            "event_lines": record["event_lines"], "bytes": record["bytes"]}


def traced_run(workload: Workload, seed: int, seconds: float) -> tuple[list[dict], dict]:
    """Serial plain/traced pairs for ``seconds``, then one pool-probe round."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = _now()
    while True:
        plain.append(run_round(workload, seed, 1, "plain"))
        traced.append(run_round(workload, seed, 1, "trace"))
        pair_s = plain[-1]["round_s"] + traced[-1]["round_s"]
        if _must_stop(start, seconds, pair_s, reserve_s=plain[-1]["round_s"]):
            break
    pool = run_round(workload, seed, workload.jobs, "pool")

    counts = _counts(traced[0])
    if any(_counts(r) != counts for r in traced[1:]):
        traced[0]["problems"].append("[trace-repeat] traced rounds of one seed "
                                     "gave different counts")
    calls = counts["calls"]

    def total(key: str, scale: float) -> float:
        return statistics.median(r["probe"]["total_ns"].get(key, 0) for r in traced) / scale

    def own(key: str, scale: float) -> float:
        return statistics.median(r["probe"]["self_ns"].get(key, 0) for r in traced) / scale

    us, ms, s = 1e3, 1e6, 1e9
    metrics = {
        "dynamics.firm_update.calls": (calls.get("dynamics.firm_update", 0), "count"),
        "dynamics.firm_update.self_us": (own("dynamics.firm_update", us), "us"),
        "dynamics.interact.calls": (calls.get("dynamics.interact", 0), "count"),
        "dynamics.interact.us": (total("dynamics.interact", us), "us"),
        "dynamics.sweep.calls": (calls.get("dynamics.sweep", 0), "count"),
        "dynamics.sweep.self_us": (own("dynamics.sweep", us), "us"),
        "dynamics.renormalize_shares.us": (total("dynamics.renormalize_shares", us), "us"),
        "rng.shuffle_in_place.us": (total("rng.shuffle_in_place", us), "us"),
        "dynamics.attempt_bankruptcy.calls": (calls.get("dynamics.attempt_bankruptcy", 0), "count"),
        "dynamics.attempt_bankruptcy.us": (total("dynamics.attempt_bankruptcy", us), "us"),
        "dynamics.redistribute_shares_equal.calls": (
            calls.get("dynamics.redistribute_shares_equal", 0), "count"),
        "dynamics.redistribute_shares_equal.us": (
            total("dynamics.redistribute_shares_equal", us), "us"),
    }
    for kind in EVENT_KINDS:
        metrics[f"dynamics.events.{kind}"] = (counts["events"].get(kind, 0), "count")
    metrics.update({
        "dynamics.rescued": (counts["rescued"], "count"),
        "ensemble.run_replica.calls": (calls.get("ensemble.run_replica", 0), "count"),
        "ensemble.replicas_unique": (counts["unique"], "count"),
        "ensemble.run_trajectories.calls": (calls.get("ensemble.run_trajectories", 0), "count"),
        "ensemble.pool.busy_share": (
            pool["probe"]["cpu_s"] / (workload.jobs * pool["probe"]["wall_s"])
            if pool["probe"]["wall_s"] > 0 else 0.0, "share"),
        "ensemble.run_replica.self_ms": (own("ensemble.run_replica", ms), "ms"),
        "market.init_market.us": (total("market.init_market", us), "us"),
        "rng.derive_seed.us": (total("rng.derive_seed", us), "us"),
        "ensemble.aggregate.ms": (total("ensemble.aggregate", ms), "ms"),
        "output.emit_event_log.s": (total("output.emit_event_log", s), "s"),
        "output.event_lines": (counts["event_lines"], "count"),
        "output.bytes": (counts["bytes"], "bytes"),
        "output.emit_timeseries_csv.ms": (total("output.emit_timeseries_csv", ms), "ms"),
        "config.resolve_config.ms": (
            statistics.median(r["resolve_s"] for r in traced) * 1e3, "ms"),
        "trace.overhead": (statistics.median(r["wall_s"] for r in traced)
                           / statistics.median(r["wall_s"] for r in plain), "x"),
    })
    return plain + traced + [pool], metrics


def _summary(workload: Workload, rounds: list[dict]) -> None:
    """Per-round figures on standard error, for people reading the run."""
    for r in rounds:
        ops = " ".join(f"{op['scenario']}={op['wall_s']:.2f}s" for op in r["ops"])
        print(f"{workload.name}: wall {r['wall_s']:.2f}s cpu {r['cpu_s']:.2f}s "
              f"rss {r['peak_rss_kb'] / 1024:.1f}MB setup {r['setup_s']:.3f}s [{ops}]",
              file=sys.stderr)
        for problem in r["problems"]:
            print(f"CHECK FAILED {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "techmarket" / "__init__.py").is_file():
        print(f"no techmarket package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    try:
        rounds, metrics = run(workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass
    _summary(workload, rounds)
    print(json.dumps({
        "correct": not any(r["problems"] for r in rounds),
        "attempted": len(rounds) * len(workload.ops),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
