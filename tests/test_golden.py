"""Golden digests: fixed (params, replica seed) pairs must reproduce these
trajectories and this event log bit for bit. Both are checked on the
kernel a replica runs by default (the compiled one where it can be built)
and on the Python kernel.

The digests pin the behaviour contract (bit-identical trajectories, CSVs and
event logs for a fixed seed). A change that keeps behaviour leaves them
untouched; a change that alters floating-point rounding or the draw order
must say so and replace them in the same change.
"""
import hashlib
import io
from array import array

import numpy as np
import pytest

from techmarket import PolicyKind, SimParams, VariantKind
from techmarket.ensemble import run_replica
from techmarket.output import emit_event_log
from techmarket.rng import derive_seed

EGAL = PolicyKind.EGALITARIAN
LOW = PolicyKind.LOW_TECH
MEDIUM = PolicyKind.MEDIUM_TECH
HIGH = PolicyKind.HIGH_TECH
PASSIVE = VariantKind.PASSIVE_AFTER_RESCUE
ACTIVE = VariantKind.ACTIVE_AFTER_RESCUE

T_MAX = 300

# (q, policy, variant, base seed, replica index) -> sha256 of the series
TRAJECTORY_DIGESTS = {
    (0.0, EGAL, PASSIVE, 11, 0):
        "0426dd47f4552664f86071c260804be1210eef2b6700d287efca04a161d24b69",
    (0.99, EGAL, PASSIVE, 12, 1):
        "3efaac872c6ecd7f9ace88a3ecaf20fe049de2a59e05f7af95d95451ef884d70",
    (0.99, EGAL, ACTIVE, 13, 0):
        "423208bbbba99dd5a2ec2e63cb7898bc15152c22e3516c0d39b6db4e98f6ead7",
    (0.99, LOW, ACTIVE, 14, 2):
        "f8c3cc7c2e6b103f28c405a868983f036d5ef955367028242b4e9b1826bdc73d",
    (0.99, MEDIUM, PASSIVE, 15, 0):
        "5992a9141fe4b890605d7a5658b137b1b21ced552c770b23c3d253cad3029806",
    (1.0, HIGH, ACTIVE, 16, 1):
        "d90a5f8bf173360893653ae0b52ac9a5a061bdb386b7c6d19776d46074a7b4c4",
    (1.0, LOW, PASSIVE, 17, 0):
        "d1ca822b99484a3c624d0ab6a1c184325c7ebb8d74e15b32c5a1b6ec651102b9",
}

# (q, policy, variant, base seed) of one event-logged replica -> sha256 of
# its JSONL lines; the active case logs rescues on action records
EVENT_LOG_DIGESTS = {
    (0.9, MEDIUM, PASSIVE, 21):
        "48011f7f42192ab061c69946373622d18e4e98603fac2978e124134fdbec8ea0",
    (0.99, EGAL, ACTIVE, 22):
        "f675112fc2c916f46372a3d95db1ece1c48eb83574f4a69f9c4fd8fd695bab01",
}


def _case_id(key) -> str:
    return f"q{key[0]:g}_{key[1].value}_{key[2].value}"


def _series_digest(tr) -> str:
    h = hashlib.sha256()
    for arr, dtype in ((tr.n_firms, "<i8"), (tr.mean_tech, "<f8"),
                       (tr.ratio, "<f8"), (tr.rescued, "<i8"),
                       (tr.bankrupted, "<i8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", list(TRAJECTORY_DIGESTS), ids=_case_id)
def test_trajectory_digest(key):
    q, policy, variant, seed, replica = key
    params = SimParams(q=q, policy=policy, variant=variant, t_max=T_MAX,
                       seed=seed)
    tr = run_replica(params, derive_seed(seed, replica))
    assert _series_digest(tr) == TRAJECTORY_DIGESTS[key]


@pytest.mark.parametrize("key", list(TRAJECTORY_DIGESTS), ids=_case_id)
def test_trajectory_digest_python_kernel(key, python_kernel):
    test_trajectory_digest(key)


@pytest.mark.parametrize("key", list(EVENT_LOG_DIGESTS), ids=_case_id)
def test_event_log_digest(key):
    q, policy, variant, seed = key
    params = SimParams(q=q, policy=policy, variant=variant, t_max=T_MAX,
                       seed=seed)
    events = array("q")
    run_replica(params, derive_seed(seed, 0), events)
    log = io.StringIO()
    emit_event_log(log, 0, events)
    assert hashlib.sha256(log.getvalue().encode()).hexdigest() \
        == EVENT_LOG_DIGESTS[key]


@pytest.mark.parametrize("key", list(EVENT_LOG_DIGESTS), ids=_case_id)
def test_event_log_digest_python_kernel(key, python_kernel):
    test_event_log_digest(key)
