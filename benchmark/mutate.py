"""Show that every output check fails on a corrupted copy of real output.

    python3 benchmark/mutate.py [--seed N]

Runs one plain round of each workload, keeps its outputs, and runs the
checks on copies corrupted one way each. Every corruption must make the
check it targets fail, and the untouched outputs must pass. Exits 1 when
a check did not fire.
"""
from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable

from checks import check_round
from run import OUT_ROOT, run_round
from workloads import WORKLOADS

COLUMNS = {"t": 0, "N_mean": 1, "N_sd": 2, "A_mean": 3, "ratio_mean": 5}
DENSE_CSV = "custom/custom_q0.99_egalitarian_active.csv"
EVENT_CSV = "custom/custom_q0.9_mediumtech_passive.csv"
EVENT_LOG = "custom/custom_q0.9_mediumtech_passive_events.jsonl"


def edit_rows(path: Path, edit: Callable[[list[list[str]]], None]) -> None:
    """Apply ``edit`` to the data rows (header excluded) of a CSV."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def set_cell(path: Path, row: int, column: str, value: Callable[[str], str]) -> None:
    def edit(rows):
        rows[row][COLUMNS[column]] = value(rows[row][COLUMNS[column]])
    edit_rows(path, edit)


def shift_n_mean(path: Path) -> None:
    """Swap N_mean between the first two neighbouring rows that differ."""
    def edit(rows):
        i = next(i for i in range(1, len(rows) - 1) if rows[i][1] != rows[i + 1][1])
        rows[i][1], rows[i + 1][1] = rows[i + 1][1], rows[i][1]
    edit_rows(path, edit)


def drop_event(path: Path, kind: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if f'"kind":"{kind}"' in line)
    path.write_text("".join(lines[:i] + lines[i + 1:]))


def bump_tc_note(path: Path) -> None:
    text = path.read_text()
    head, _, tail = text.partition("q0.3_egalitarian_passive: tc_of_mean=")
    value, _, rest = tail.partition(" ")
    new = "none" if value != "none" else "1"
    path.write_text(f"{head}q0.3_egalitarian_passive: tc_of_mean={new} {rest}")


def _scale(factor: float) -> Callable[[str], str]:
    return lambda v: repr(float(v) * factor)


#: (workload, check tag it must trip, what is corrupted, corruption)
MUTATIONS: list[tuple[str, str, str, Callable[[Path], None]]] = [
    ("dense-active", "t-column", "row t=10 dropped",
     lambda d: edit_rows(d / DENSE_CSV, lambda rows: rows.pop(10))),
    ("dense-active", "n-initial", "N_mean(0) set to 79",
     lambda d: set_cell(d / DENSE_CSV, 0, "N_mean", lambda v: "79")),
    ("dense-active", "n-initial", "N_sd(0) set to 0.5",
     lambda d: set_cell(d / DENSE_CSV, 0, "N_sd", lambda v: "0.5")),
    ("dense-active", "n-range", "N_mean(50) set to 101",
     lambda d: set_cell(d / DENSE_CSV, 50, "N_mean", lambda v: "101")),
    ("dense-active", "ratio-range", "ratio_mean(50) set to 1",
     lambda d: set_cell(d / DENSE_CSV, 50, "ratio_mean", lambda v: "1")),
    ("dense-active", "ratio-frontier", "A_mean(50) scaled by 1+1e-6",
     lambda d: set_cell(d / DENSE_CSV, 50, "A_mean", _scale(1 + 1e-6))),
    ("dense-active", "a-initial", "A_mean(0) and ratio_mean(0) scaled by 1.5",
     lambda d: (set_cell(d / DENSE_CSV, 0, "A_mean", _scale(1.5)),
                set_cell(d / DENSE_CSV, 0, "ratio_mean", _scale(1.5)))),
    ("bundle", "curve-fraction", "fig5 fraction_reached(q=0) set to 1.5",
     lambda d: edit_rows(d / "fig5/fig5_tc_curve.csv",
                         lambda rows: rows[0].__setitem__(3, "1.5"))),
    ("bundle", "curve-tc", "fig5 tc_mean(q=0) set to 3001",
     lambda d: edit_rows(d / "fig5/fig5_tc_curve.csv",
                         lambda rows: rows[0].__setitem__(1, "3001"))),
    ("bundle", "curve-rows", "fig5 q=0.99 row dropped",
     lambda d: edit_rows(d / "fig5/fig5_tc_curve.csv", lambda rows: rows.pop())),
    ("bundle", "fig7-fig6", "fig7 N_sd(100) scaled by 1+1e-6",
     lambda d: set_cell(d / "fig7/fig7_q0.99_egalitarian_active.csv", 100, "N_sd",
                        _scale(1 + 1e-6))),
    ("bundle", "fig2-fig6-prefix", "fig2 q=0.99 N_sd(300) scaled by 1+1e-6",
     lambda d: set_cell(d / "fig2/fig2_q0.99_egalitarian_passive.csv", 300, "N_sd",
                        _scale(1 + 1e-6))),
    ("bundle", "tc-notes", "fig2 q=0.3 tc_of_mean note changed",
     lambda d: bump_tc_note(d / "fig2/fig2_metadata.txt")),
    ("event-log", "event-balance", "one spin_off line dropped",
     lambda d: drop_event(d / EVENT_LOG, "spin_off")),
    ("event-log", "event-balance", "N_mean rows shifted by one sweep",
     lambda d: shift_n_mean(d / EVENT_CSV)),
    ("event-log", "event-fields", "an event's t set to t_max",
     lambda d: (d / EVENT_LOG).write_text(
         (d / EVENT_LOG).read_text().replace('"t":0,', '"t":600,', 1))),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    OUT_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="mutate-", dir=OUT_ROOT))
    missed = 0
    try:
        for name in sorted({w for w, *_ in MUTATIONS}):
            workload = WORKLOADS[name]
            clean = scratch / name
            record = run_round(workload, args.seed, workload.jobs, "plain", keep=clean)
            status = "pass" if not record["problems"] else f"FAIL {record['problems']}"
            print(f"{name}: untouched outputs {status}")
            missed += bool(record["problems"])
            for _, tag, what, corrupt in (m for m in MUTATIONS if m[0] == name):
                copy = scratch / "copy"
                shutil.copytree(clean, copy)
                corrupt(copy)
                problems, _ = check_round(workload, copy, set())
                hit = [p for p in problems if p.startswith(f"[{tag}]")]
                print(f"{name}: {what}: [{tag}] "
                      + (f"fails as it should: {hit[0]}" if hit else f"MISSED {problems}"))
                missed += not hit
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
