"""CSV, metadata, and event-log emission.

Time-series CSV schema (fixed): ``t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd``
with one row per sweep. Catch-up curve CSV: ``q,tc_mean,tc_sd,fraction_reached``.
Floats carry 12 significant digits. The metadata file doubles as a config
file: plain lines are config keys, informational records are comments.
Every file is written through ``atomic_write``, so it appears complete or
not at all.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, TextIO

from .config import config_lines
from .dynamics import EVENT_FIELDS, EventKind
from .params import SimParams

if TYPE_CHECKING:  # ensemble imports this module to render event logs
    from .ensemble import EnsembleStats

TIMESERIES_HEADER = "t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd"
TC_CURVE_HEADER = "q,tc_mean,tc_sd,fraction_reached"


#: The ``,"kind":"<name>"`` fragment of an event line, indexed by EventKind.
_KIND_FIELDS = tuple(f',"kind":"{kind.name.lower()}"' for kind in EventKind)


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
                     zip(*(column.tolist() for column in columns)))


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


def emit_event_log(out: TextIO, replica: int, events: Iterable[int]) -> None:
    """Write one replica's event rows (see ``dynamics``) to ``out`` as JSON
    lines, in one write.

    Each line is what ``json.dumps(..., separators=(",", ":"))`` gives for
    the keys replica, t, firm and kind, then partner when set, child when
    set (only spin-offs have one, and they always have a partner), and
    ``"rescued":true`` only when a rescue fired.
    """
    kinds = _KIND_FIELDS
    ends = ('}\n', ',"rescued":true}\n')  # indexed by the rescued flag
    lines = []
    append = lines.append
    head_t = None
    rows = zip(*[iter(events)] * EVENT_FIELDS)
    for kind, firm, t, partner, child, rescued in rows:
        if t != head_t:  # rows come sweep by sweep: one head per sweep
            head_t = t
            head = f'{{"replica":{replica},"t":{t},"firm":'
        if partner < 0:
            append(f'{head}{firm}{kinds[kind]}{ends[rescued]}')
        elif child < 0:
            append(f'{head}{firm}{kinds[kind]},"partner":{partner}'
                   f'{ends[rescued]}')
        else:
            append(f'{head}{firm}{kinds[kind]},"partner":{partner}'
                   f',"child":{child}{ends[rescued]}')
    out.write("".join(lines))
