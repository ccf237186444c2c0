"""CSV and metadata emission, and the atomic write of every output file.

Time-series CSV schema (fixed): ``t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd``
with one row per sweep. Catch-up curve CSV: ``q,tc_mean,tc_sd,fraction_reached``.
Floats carry 12 significant digits. The metadata file doubles as a config
file: plain lines are config keys, informational records are comments.
Every file is written through ``atomic_write``, so it appears complete or
not at all: event logs too, which ``scenarios`` opens with it and
``ensemble.run_trajectories`` fills with the text the compiled kernel
writes.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, TextIO

from .config import config_lines
from .params import SimParams

if TYPE_CHECKING:
    from .ensemble import EnsembleStats

TIMESERIES_HEADER = "t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd"
TC_CURVE_HEADER = "q,tc_mean,tc_sd,fraction_reached"
#: Time-series rows turned into Python values at a time, so that a long
#: horizon's rows are never all held at once.
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


def _emit_csv(path: str | Path, header: str, row: str,
              rows: Iterable[tuple]) -> Path:
    """Write ``header`` and then each of ``rows`` formatted by the printf
    template ``row``, line by line. ``%.12g`` renders a float exactly as
    ``format(x, ".12g")`` does, nan, inf and -0 included."""
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        fh.writelines(map(row.__mod__, rows))
    return path


def emit_timeseries_csv(stats: EnsembleStats, path: str | Path) -> Path:
    columns = (stats.t, stats.n_mean, stats.n_sd, stats.a_mean, stats.a_sd,
               stats.ratio_mean, stats.ratio_sd)
    return _emit_csv(path, TIMESERIES_HEADER, "%d" + ",%.12g" * 6 + "\n",
                     chain.from_iterable(
                         zip(*(c[i:i + CHUNK_ROWS].tolist() for c in columns))
                         for i in range(0, len(stats.t), CHUNK_ROWS)))


def emit_tc_curve_csv(rows: Iterable[tuple[float, float, float, float]],
                      path: str | Path) -> Path:
    """One ``(q, tc_mean, tc_sd, fraction_reached)`` row per cell."""
    return _emit_csv(path, TC_CURVE_HEADER, "%.12g,%.12g,%.12g,%.12g\n", rows)


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
