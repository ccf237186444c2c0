"""The kernel under the sanitizers: ``kernel_driver.c`` runs it from C,
built with ThreadSanitizer and with AddressSanitizer plus
UndefinedBehaviorSanitizer, and prints digests of what it computed, which
must be the package's on the same inputs."""
import functools
import math
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

from techmarket import (
    IntegrityError,
    PolicyKind,
    SimParams,
    VariantKind,
    compiled,
)
from techmarket.dynamics import renorm_failure

DRIVER = Path(__file__).with_name("kernel_driver.c")


def seeds(n: int) -> array:
    """The driver's seed_of(k) for every k below n."""
    return array("Q", ((k + 1) * 0x9E3779B97F4A7C15 % 2**64
                       for k in range(n)))


def fnv(data: bytes) -> str:
    """The driver's FNV-1a digest of ``data``."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = (h ^ byte) * 0x100000001B3 % 2**64
    return f"{h:016x}"


def digest(buffers: compiled.Buffers) -> str:
    return fnv(b"".join(map(bytes, buffers)))


#: SimParams(t_max=5) at tolerance 0: every replica of 8 fails a
#: renormalization, replica 0 at sweep 0
FAILING = SimParams(t_max=5)


@functools.cache
def expected() -> list[str]:
    """The lines the driver prints, but its ``failed`` lines, computed on
    the package from the driver's inputs."""
    medium = SimParams(q=0.9, policy=PolicyKind.MEDIUM_TECH, t_max=40)
    active = SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       t_max=40)
    lines = [f"rows {name} {jobs} "
             f"{digest(compiled.run_replicas(params, seeds(n), jobs))}"
             for name, params, n in (("medium", medium, 6),
                                     ("active", active, 4))
             for jobs in range(1, 5)]
    chunks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "EVENT_ROWS", 1)  # a line per site
        out = compiled.run_replicas(replace(active, t_max=20), seeds(3), 1,
                                    lambda text: chunks.append(bytes(text)))
    lines.append(f"logged {len(chunks)} {digest(out)} "
                 f"{fnv(b''.join(chunks))}")
    t = array("q", [0, 1, -1, 600, 2**63 - 1, -2**63, 12, 7])
    x = array("d", [0.0, -0.0, 5e-324, -1.5e-300, 1e-15, 9.999999999995e-05,
                    999999999999.5, 1e12])
    y = array("d", [math.inf, -math.inf, math.nan, -math.nan,
                    sys.float_info.max, 123456789012.5, 0.1, -2.5])
    for with_t in (1, 0):
        text = "".join(("%d," % t[r] if with_t else "")
                       + "%.12g,%.12g\n" % (x[r], y[r]) for r in range(8))
        lines.append(f"csv {with_t} {fnv(text.encode())}")
    m = array("d", [1e308, math.inf, 0.5, -0.0,
                    1e308, 1.0, math.nan, 5e-324,
                    -1e308, -math.inf, 0.25, 5e-324])
    for n in (3, 1):
        mean, sd = compiled.column_stats(m[:4 * n], 4)
        lines.append(f"stats {n} {fnv(bytes(mean) + bytes(sd))}")
    mean, sd = compiled.column_stats(m, 1)
    lines.append(f"stats column {fnv(bytes(mean) + bytes(sd))}")
    return lines


def build(tmp_path: Path, sanitizer: str) -> Path:
    """The driver built with ``-fsanitize=sanitizer``, each report fatal;
    skips when the compiler cannot link that sanitizer's runtime."""
    flags = [f"-fsanitize={sanitizer}", "-fno-sanitize-recover=all"]
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    try:
        linked = subprocess.run(
            [compiled.COMPILER, *flags, "-o", str(tmp_path / "probe"),
             str(probe)], capture_output=True).returncode == 0
    except OSError:
        linked = False
    if not linked:
        pytest.skip(f"{compiled.COMPILER} cannot link -fsanitize={sanitizer}")
    binary = tmp_path / "driver"
    subprocess.run(
        [compiled.COMPILER, *flags, "-g", "-O1", "-ffp-contract=off",
         "-pthread", f"-I{compiled.SOURCE.parent}", "-o", str(binary),
         str(DRIVER), "-lm"], check=True, capture_output=True)
    return binary


@pytest.mark.parametrize("sanitizer", ["thread", "address,undefined"])
def test_kernel_driver_is_clean_under_sanitizers(tmp_path, monkeypatch,
                                                 sanitizer):
    """The driver, built with the sanitizer, exits 0 with no report, and
    prints the package's rows, event-log text, CSV and statistics. Its
    ensemble at tolerance 0 reports replica 0, with the error the package
    raises, on 1 to 4 workers."""
    run = subprocess.run([str(build(tmp_path, sanitizer))],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    lines = run.stdout.splitlines()
    failed = [line.split() for line in lines if line.startswith("failed ")]
    assert [line for line in lines if not line.startswith("failed ")] \
        == expected()
    monkeypatch.setattr(compiled, "RENORM_TOLERANCE", 0.0)
    for jobs in range(1, 5):
        with pytest.raises(IntegrityError) as info:
            compiled.run_replicas(FAILING, seeds(8), jobs)
        assert info.value.__notes__ == [f"replica seed {seeds(8)[0]}"]
        _, workers, replica, sweep, err = failed[jobs - 1]
        assert (workers, replica) == (str(jobs), "0")
        assert renorm_failure(float(err), int(sweep)).args \
            == info.value.args
