"""Output checks: properties the method guarantees for every seed.

None of them compares against a stored copy of earlier output. Each failure
message starts with the check's tag in brackets, so that ``mutate.py`` can
show every check failing on a corrupted copy.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

from workloads import MODEL, Op, Workload

TIMESERIES_HEADER = "t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd"
TC_CURVE_HEADER = "q,tc_mean,tc_sd,fraction_reached"

#: Sweeps the 600-sweep presets share with the longer ones.
PREFIX_T_MAX = 600


def _rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_series(path: Path, t_max: int, replicas: int) -> list[str]:
    """Properties of one ensemble's time-series CSV."""
    try:
        rows = _rows(path, TIMESERIES_HEADER)
        t = [int(r[0]) for r in rows]
        n_mean, n_sd, a_mean, ratio = (
            [float(r[i]) for r in rows] for i in (1, 2, 3, 5))
    except (OSError, ValueError, IndexError) as exc:
        return [f"[series-format] {path.name}: {exc}"]
    name = path.name
    fails = []
    if t != list(range(t_max + 1)):
        fails.append(f"[t-column] {name}: t is not 0..{t_max}")
    n0 = round(MODEL["c"] * MODEL["lx"] * MODEL["ly"])
    if n_mean[0] != n0 or n_sd[0] != 0:
        fails.append(f"[n-initial] {name}: N_mean(0)={n_mean[0]} N_sd(0)={n_sd[0]}, "
                     f"expected {n0} and 0")
    bad = [i for i, n in enumerate(n_mean) if not 1 <= n <= MODEL["lx"] * MODEL["ly"]]
    if bad:
        fails.append(f"[n-range] {name}: N_mean={n_mean[bad[0]]} at row {bad[0]}")
    bad = [i for i, r in enumerate(ratio) if not 0 <= r < 1]
    if bad:
        fails.append(f"[ratio-range] {name}: ratio_mean={ratio[bad[0]]} at row {bad[0]}")
    # F(t) is shared by every replica, so the mean ratio is A_mean / F(t)
    bad = [i for i, (r, a) in enumerate(zip(ratio, a_mean))
           if not abs(r * math.exp(MODEL["sigma"] * t[i]) - a) <= 1e-9 * abs(a)]
    if bad:
        fails.append(f"[ratio-frontier] {name}: ratio_mean*F != A_mean at row {bad[0]}")
    # A_mean(0) is the mean of n0 * replicas independent U[0,1) draws
    se = math.sqrt(1.0 / (12.0 * n0 * replicas))
    if not abs(a_mean[0] - 0.5) <= 4 * se:
        fails.append(f"[a-initial] {name}: A_mean(0)={a_mean[0]} is more than "
                     f"4 SE ({4 * se:.4f}) from 0.5")
    return fails


def check_curve(path: Path, t_max: int, cells: int) -> list[str]:
    """Properties of the catch-up curve CSV."""
    try:
        rows = [[float(x) for x in r] for r in _rows(path, TC_CURVE_HEADER)]
    except (OSError, ValueError) as exc:
        return [f"[curve-format] {path.name}: {exc}"]
    fails = []
    if len(rows) != cells:
        fails.append(f"[curve-rows] {path.name}: {len(rows)} rows, expected {cells}")
    for q, tc_mean, _, fraction in rows:
        if not 0 <= fraction <= 1:
            fails.append(f"[curve-fraction] {path.name}: fraction_reached={fraction} at q={q:g}")
        if tc_mean > t_max:  # nan, when no replica crossed, compares False
            fails.append(f"[curve-tc] {path.name}: tc_mean={tc_mean} > {t_max} at q={q:g}")
    return fails


_CURVE_NOTE = re.compile(r"^# tc_of_mean\[q=([^\]]+)\]=(\w+)$", re.M)
_CELL_NOTE = re.compile(r"^# q([^_]+)_egalitarian_passive: tc_of_mean=(\w+) ", re.M)


def check_bundle(out: Path) -> list[str]:
    """Identities between presets whose ensembles share trajectories."""
    fails = []
    try:
        fig6_active = (out / "fig6" / "fig6_q0.99_egalitarian_active.csv").read_bytes()
        fig7 = (out / "fig7" / "fig7_q0.99_egalitarian_active.csv").read_bytes()
        fig2 = (out / "fig2" / "fig2_q0.99_egalitarian_passive.csv").read_text()
        fig6_passive = (out / "fig6" / "fig6_q0.99_egalitarian_passive.csv").read_text()
        curve_notes = dict(_CURVE_NOTE.findall(
            (out / "fig5" / "fig5_metadata.txt").read_text()))
        cell_notes = [(fig, q, tc) for fig in ("fig1", "fig2")
                      for q, tc in _CELL_NOTE.findall(
                          (out / fig / f"{fig}_metadata.txt").read_text())]
    except OSError as exc:
        return [f"[bundle-files] {exc}"]
    if fig7 != fig6_active:
        fails.append("[fig7-fig6] fig7's CSV differs from fig6's active cell")
    rows = PREFIX_T_MAX + 2  # header and t = 0..600
    if fig2.splitlines()[:rows] != fig6_passive.splitlines()[:rows]:
        fails.append("[fig2-fig6-prefix] fig2 q=0.99 rows 0..600 differ from fig6's passive cell")
    if len(cell_notes) != 4:
        fails.append(f"[tc-notes] found {len(cell_notes)} fig1/fig2 tc notes, expected 4")
    for fig, q, tc in cell_notes:
        full = curve_notes.get(q)
        expected = full if full is not None and full != "none" \
            and int(full) <= PREFIX_T_MAX else "none"
        if tc != expected:
            fails.append(f"[tc-notes] {fig} q={q}: tc_of_mean={tc}, fig5 gives {full}")
    return fails


def check_event_log(series: Path, log: Path, t_max: int, replicas: int,
                    ) -> tuple[list[str], int]:
    """The event log accounts for every change in the firm count; returns
    the failures and the number of event lines."""
    births: Counter[int] = Counter()
    lines = 0
    fails = []
    try:
        rows = _rows(series, TIMESERIES_HEADER)
        with log.open() as fh:
            for line in fh:
                lines += 1
                event = json.loads(line)
                t, replica, kind = event["t"], event["replica"], event["kind"]
                if not (0 <= t < t_max and 0 <= replica < replicas):
                    fails.append(f"[event-fields] {log.name} line {lines}: {line.strip()}")
                    break
                if kind == "spin_off":
                    births[t] += 1
                elif kind in ("bankrupted", "merged"):
                    births[t] -= 1
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"[event-format] {log.name}: {exc}"], lines
    n_sum = [round(replicas * float(r[1])) for r in rows]
    for t in range(min(t_max, len(n_sum) - 1)):
        if n_sum[t + 1] - n_sum[t] != births[t]:
            fails.append(f"[event-balance] {log.name}: at t={t} N changes by "
                         f"{n_sum[t + 1] - n_sum[t]}, events give {births[t]}")
            break
    return fails, lines


def check_round(workload: Workload, out: Path, failed: set[str],
                ) -> tuple[list[str], int]:
    """Every check on one round's outputs, skipping the files of failed
    operations; returns the failures and the number of event lines."""
    fails: list[str] = []
    event_lines = 0
    for op in workload.ops:
        if op.scenario in failed:
            continue
        fails.extend(_check_op(op, out / op.scenario))
        for series, log in zip(op.series, op.events):
            log_fails, lines = check_event_log(
                out / op.scenario / series, out / op.scenario / log,
                op.t_max, op.replicas)
            fails.extend(log_fails)
            event_lines += lines
    if workload.name == "bundle" and not failed:
        fails.extend(check_bundle(out))
    return fails, event_lines


def _check_op(op: Op, out: Path) -> list[str]:
    fails = []
    for name in op.series:
        fails.extend(check_series(out / name, op.t_max, op.replicas))
    for name in op.curves:
        fails.extend(check_curve(out / name, op.t_max, op.cells))
    return fails
