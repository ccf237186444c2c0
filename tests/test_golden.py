"""Golden digests: fixed (params, replica seed) pairs must reproduce these
trajectories and this event log bit for bit. The trajectories are pinned on
the Python oracle, bankruptcies included, and on the compiled kernel as a
one-replica ensemble exposes them; the kernel's rows must also equal the
oracle's. The event log is pinned on both. The preset scenarios must write
these CSVs byte for byte, at 2 replicas and, where statistics are taken
over vectors of 8 or more values, at 40 and 400.

The digests pin the behaviour contract (bit-identical trajectories, CSVs and
event logs for a fixed seed). A change that keeps behaviour leaves them
untouched; a change that alters floating-point rounding or the draw order
must say so and replace them in the same change.
"""
import hashlib
import io
import random
from array import array

import numpy as np
import pytest

from techmarket import PolicyKind, SimParams, VariantKind, ensemble
from techmarket.config import resolve_config
from techmarket.rng import derive_seed
from techmarket.scenarios import run_scenario

import oracle

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

# TRAJECTORY_DIGESTS' replicas -> sha256 of the replica's rows as a
# one-replica ensemble exposes them: n_mean, a_mean, ratio_mean (float64),
# rescued_sum (int64) and renorm_error (float64)
ENSEMBLE_DIGESTS = {
    (0.0, EGAL, PASSIVE, 11, 0):
        "3ecdf05665002938c89a875ad93e6ac784f95c096cfae3db68073b61f673d8e3",
    (0.99, EGAL, PASSIVE, 12, 1):
        "5b82c4f6a7153a4e191d7681352f6c95008a80d5fb8b10ac84afaa3e3c15310c",
    (0.99, EGAL, ACTIVE, 13, 0):
        "819dd1ecfe1a525e8583d2353e19117696e8227f18c3a828fb5d4a7ad995ed8a",
    (0.99, LOW, ACTIVE, 14, 2):
        "c1935c537929b591e746def5e49320f6a2144598a2b87b809a284f6edd0daf8a",
    (0.99, MEDIUM, PASSIVE, 15, 0):
        "396e71c9431754e47d595a52af385b61042eec8ece9aeb4e20e7283c683f0804",
    (1.0, HIGH, ACTIVE, 16, 1):
        "7c81cc546f150c4896ad0ec2771dea100bcbd337cf4ba7b63a2e91c2f7e3c5d9",
    (1.0, LOW, PASSIVE, 17, 0):
        "e2baf1f7387b76df7a327d572757e0d4ee3db1492ee3cd2681210d2a44e1ce57",
}

# (q, policy, variant, base seed) of one event-logged replica -> sha256 of
# its JSONL lines; the active case logs rescues on action records
EVENT_LOG_DIGESTS = {
    (0.9, MEDIUM, PASSIVE, 21):
        "48011f7f42192ab061c69946373622d18e4e98603fac2978e124134fdbec8ea0",
    (0.99, EGAL, ACTIVE, 22):
        "f675112fc2c916f46372a3d95db1ece1c48eb83574f4a69f9c4fd8fd695bab01",
}

# preset -> {CSV file name: sha256 of its bytes}, at 2 replicas and seed 42
CSV_DIGESTS = {
    "fig1": {
        "fig1_q0_egalitarian_passive.csv":
            "30e4d79d3d6665ad5a591cc78c86fa10cba13157f051dfd1cb35190ef12146c7",
    },
    "fig2": {
        "fig2_q0.3_egalitarian_passive.csv":
            "938ee6dc781bcb0e085b9e1f4a29ae7a57cc4f66a382fbda5c6b675b31c4a660",
        "fig2_q0.9_egalitarian_passive.csv":
            "e30f49308ca87f41f6603f3f749dfe514daae8c2b27562c0def52a461c02cbb5",
        "fig2_q0.99_egalitarian_passive.csv":
            "3253d98cf304a69ecb323fb76c2502ae55256cb4803ddf55a7d02dac95a51deb",
    },
    "fig3": {
        "fig3_q0.3_lowtech_passive.csv":
            "c5a4191d9fd1155d5fa5a6c2a76785d118022a23acfc41e0b5789a64ecd3752f",
        "fig3_q0.9_lowtech_passive.csv":
            "3e7a5524984d2e3651414087bc90d520ce1174fe270f1d82b948cc7cbebc9190",
        "fig3_q0.99_lowtech_passive.csv":
            "ecc5de1f2aa9dd4de4bcec95c2bada1fa7b703b688b6b57b4d32c1bc669e8b4e",
    },
    "fig4": {
        "fig4_q0.3_mediumtech_passive.csv":
            "3250f0f57c8dc93de62ae68ca4b3dd4dcc9f9cf8e91da7ead56fab6a7c95ba6b",
        "fig4_q0.9_mediumtech_passive.csv":
            "7200d2ef2368a87cff0c6e23bf0e3e75d9d077346b881c30cd21385192863688",
        "fig4_q0.99_mediumtech_passive.csv":
            "067579fbf77df2dab8eaea26a5af0286edf6e224ea1ff03f848319122e80b9ee",
    },
    "fig5": {
        "fig5_tc_curve.csv":
            "fa99f82c5898eb93edc6d4bd369f5d6f0a8318ccc675a1dc2ddc48baeb545730",
    },
    "fig6": {
        "fig6_q0.99_egalitarian_passive.csv":
            "e3a525e00aa1a9014adbf9f41c6a9f08dc12ec355a9dda97b324eef27e6f4fd6",
        "fig6_q0.99_egalitarian_active.csv":
            "cee912665e974d527697ad93c20e7e7f266fe27c8b8487b565d87c913d9cfd87",
    },
    "fig7": {
        "fig7_q0.99_egalitarian_active.csv":
            "cee912665e974d527697ad93c20e7e7f266fe27c8b8487b565d87c913d9cfd87",
    },
}

# (preset, replicas, tmax or None for the preset's) -> {CSV file name:
# sha256 of its bytes}, at seed 42: statistics of vectors of 8 or more
# values, fig5's catch-up times and the single sweep of tmax 0
MANY_REPLICA_CSV_DIGESTS = {
    ("fig5", 40, None): {
        "fig5_tc_curve.csv":
            "2e71678bafd9f34bd5357ecc6c735ca4c828343ea32915484b0040e025deff3d",
    },
    ("custom", 400, 0): {
        "custom_q0_egalitarian_passive.csv":
            "65f5a2fc2fa2dab501c80c102c45ef5b433dac0d4ae2d32abcb9ebf22f3d57ce",
    },
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


def oracle_replica(params, replica_seed, events=None):
    """``run_replica`` on the oracle."""
    rng = random.Random(replica_seed)
    trajectory = oracle.Trajectory.empty(params.t_max + 1)
    oracle.run_sweeps(oracle.init_market(params, rng), params, rng,
                      trajectory, events)
    return trajectory


def _golden_replica(key, replica):
    """The golden replica ``key`` run by ``replica``."""
    q, policy, variant, seed, index = key
    params = SimParams(q=q, policy=policy, variant=variant, t_max=T_MAX,
                       seed=seed)
    return replica(params, derive_seed(seed, index))


def _ensemble_digest(key) -> str:
    """The digest of replica ``index`` of base seed ``seed`` run as the only
    replica of an ensemble, whose statistics are then its own rows."""
    q, policy, variant, seed, index = key
    params = SimParams(q=q, policy=policy, variant=variant, t_max=T_MAX,
                       seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "replica_seeds",
                   lambda base, n: array("Q", [derive_seed(seed, index)]))
        stats = ensemble.run_trajectories(params, 1)
    h = hashlib.sha256()
    for name, dtype in (("n_mean", "<f8"), ("a_mean", "<f8"),
                        ("ratio_mean", "<f8"), ("rescued_sum", "<i8"),
                        ("renorm_error", "<f8")):
        h.update(np.ascontiguousarray(getattr(stats, name),
                                      dtype=dtype).tobytes())
    return h.hexdigest()


def compiled_text(params, replica_seed) -> str:
    """The kernel's event log of the replica, as replica 0 of a one-replica
    ensemble."""
    chunks = []
    oracle.kernel_replica(params, replica_seed,
                          lambda text: chunks.append(str(text, "ascii")))
    return "".join(chunks)


def oracle_text(params, replica_seed) -> str:
    """The oracle's event rows of the same replica, rendered as replica
    0's lines."""
    events, log = array("q"), io.StringIO()
    oracle_replica(params, replica_seed, events)
    oracle.emit_event_log(log, 0, events)
    return log.getvalue()


def _event_log_digest(key, text) -> str:
    q, policy, variant, seed = key
    params = SimParams(q=q, policy=policy, variant=variant, t_max=T_MAX,
                       seed=seed)
    return hashlib.sha256(
        text(params, derive_seed(seed, 0)).encode()).hexdigest()


@pytest.mark.parametrize("key", list(TRAJECTORY_DIGESTS), ids=_case_id)
def test_trajectory_digest(key):
    """The kernel's rows are the pinned oracle's, column for column."""
    compiled_run = _golden_replica(key, oracle.kernel_replica)
    oracle_run = _golden_replica(key, oracle_replica)
    for name in oracle.SHARED_ROWS:
        assert np.array_equal(getattr(compiled_run, name),
                              getattr(oracle_run, name)), name


@pytest.mark.parametrize("key", list(TRAJECTORY_DIGESTS), ids=_case_id)
def test_trajectory_digest_python_kernel(key):
    assert _series_digest(_golden_replica(key, oracle_replica)) \
        == TRAJECTORY_DIGESTS[key]


@pytest.mark.parametrize("key", list(ENSEMBLE_DIGESTS), ids=_case_id)
def test_replica_ensemble_digest(key):
    assert _ensemble_digest(key) == ENSEMBLE_DIGESTS[key]


@pytest.mark.parametrize("key", list(EVENT_LOG_DIGESTS), ids=_case_id)
def test_event_log_digest(key):
    assert _event_log_digest(key, compiled_text) == EVENT_LOG_DIGESTS[key]


@pytest.mark.parametrize("key", list(EVENT_LOG_DIGESTS), ids=_case_id)
def test_event_log_digest_python_kernel(key):
    assert _event_log_digest(key, oracle_text) == EVENT_LOG_DIGESTS[key]


def _csv_digests(preset, settings, out) -> dict[str, str]:
    """The sha256 of each CSV that ``preset`` writes at seed 42 with
    ``settings``, config values as strings."""
    params, controls = resolve_config(
        None, {"scenario": preset, "seed": "42", "out": str(out), **settings})
    written = run_scenario(preset, params, controls).written
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in written if p.suffix == ".csv"}


@pytest.mark.parametrize("preset", list(CSV_DIGESTS))
def test_preset_csv_digests(preset, tmp_path):
    assert _csv_digests(preset, {"replicas": "2"}, tmp_path) \
        == CSV_DIGESTS[preset]


@pytest.mark.parametrize("key", list(MANY_REPLICA_CSV_DIGESTS),
                         ids=lambda key: f"{key[0]}_{key[1]}")
def test_many_replica_csv_digests(key, tmp_path):
    preset, replicas, t_max = key
    settings = {"replicas": str(replicas)}
    if t_max is not None:
        settings["tmax"] = str(t_max)
    assert _csv_digests(preset, settings, tmp_path) \
        == MANY_REPLICA_CSV_DIGESTS[key]
