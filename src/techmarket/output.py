"""CSV and metadata emission, and the atomic write of every output file.

Time-series CSV schema (fixed): ``t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd``
with one row per sweep. Catch-up curve CSV: ``q,tc_mean,tc_sd,fraction_reached``.
Floats carry 12 significant digits. The compiled kernel writes the rows
(``compiled.csv_rows``), byte for byte as Python's ``"%d"`` and ``"%.12g"``
format them, at most CHUNK_ROWS rows per call: a chunk's buffer is bounded
by CHUNK_ROWS rows however long the horizon. The metadata file doubles as
a config file: plain lines are config keys, informational records are
comments.
Every file is written through ``atomic_write``, so it appears complete or
not at all: event logs too, which ``scenarios`` opens with it and
``ensemble.run_trajectories`` fills with the text the compiled kernel
writes.
"""
from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import (TYPE_CHECKING, Iterable, Iterator, Optional, Sequence,
                    TextIO)

from . import compiled
from .config import config_lines
from .params import SimParams

if TYPE_CHECKING:
    from .ensemble import EnsembleStats

TIMESERIES_HEADER = "t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd"
TC_CURVE_HEADER = "q,tc_mean,tc_sd,fraction_reached"
#: Time-series rows formatted per kernel call: a chunk's buffer holds at
#: most 21 bytes a field, 0.6 MB at 4096 rows, and a long horizon's text is
#: never all held at once.
CHUNK_ROWS = 4096


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for writing text through a temporary file in the same
    directory, renamed over ``path`` when the block ends normally and
    deleted when it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit_csv(path: str | Path, header: str, chunks: Iterable[str]) -> Path:
    """Write ``header`` and then each chunk of CSV lines."""
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        fh.writelines(chunks)
    return path


def emit_timeseries_csv(stats: EnsembleStats, path: str | Path) -> Path:
    """The time series of ``stats``, one row per sweep."""
    columns = (stats.n_mean, stats.n_sd, stats.a_mean, stats.a_sd,
               stats.ratio_mean, stats.ratio_sd)
    return _emit_csv(path, TIMESERIES_HEADER, (
        compiled.csv_rows(stats.t[i:i + CHUNK_ROWS],
                          [c[i:i + CHUNK_ROWS] for c in columns])
        for i in range(0, len(stats.t), CHUNK_ROWS)))


def emit_tc_curve_csv(rows: Sequence[tuple[float, float, float, float]],
                      path: str | Path) -> Path:
    """One ``(q, tc_mean, tc_sd, fraction_reached)`` row per cell."""
    return _emit_csv(path, TC_CURVE_HEADER, [compiled.csv_rows(
        None, [array("d", (row[i] for row in rows)) for i in range(4)])])


def metadata_text(params: SimParams, scenario: str, replicas: int,
                  version: str, max_renorm_error: Optional[float] = None,
                  notes: Iterable[str] = ()) -> str:
    """Render run metadata; the plain lines round-trip as a config file."""
    lines = [
        "# techmarket run metadata; reusable as a config file",
        f"# version={version}",
        "# replica k stream seed: SeedSequence(entropy=seed, spawn_key=(k,))",
        *config_lines(params, scenario=scenario, replicas=replicas),
    ]
    if max_renorm_error is not None:
        lines.append(f"# max_renorm_error={max_renorm_error:.6e}")
    lines.extend(f"# {note}" for note in notes)
    return "\n".join(lines) + "\n"


def emit_run_metadata(path: str | Path, params: SimParams, scenario: str,
                      replicas: int, version: str,
                      max_renorm_error: Optional[float] = None,
                      notes: Iterable[str] = ()) -> Path:
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(metadata_text(params, scenario, replicas, version,
                               max_renorm_error, notes))
    return path
