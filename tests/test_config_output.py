"""Config resolution, CSV/metadata emission, event logs, scenarios with
the ensemble store, and the CLI."""
import contextlib
import io
import json
import math
import os
import random
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from techmarket import (
    ConfigError,
    IntegrityError,
    PolicyKind,
    SimParams,
    VariantKind,
)
from techmarket import compiled, output
from techmarket.cli import build_parser, main
from techmarket.config import (
    CONFIG_KEYS,
    MAX_JOBS,
    RunControls,
    parse_config_file,
    resolve_config,
)
from techmarket.ensemble import bytes_needed, run_ensemble
from techmarket.rng import derive_seed
from techmarket.output import (
    TC_CURVE_HEADER,
    TIMESERIES_HEADER,
    atomic_write,
    emit_run_metadata,
    emit_timeseries_csv,
    metadata_text,
)
from techmarket.params import MAX_SITES, TC_Q_GRID
from techmarket.scenarios import SCENARIOS, resolve_cells, run_scenario

import oracle
from conftest import (
    assert_no_worker_left,
    clear_store,
    live_threads,
    lowest_failing,
    record_workers,
)


class TestConfigResolution:
    def test_empty_config_gives_defaults(self):
        params, controls = resolve_config()
        assert params.q == 0.0
        assert params.policy is PolicyKind.EGALITARIAN
        assert params.variant is VariantKind.PASSIVE_AFTER_RESCUE
        assert (params.sigma, params.s, params.b) == (0.01, 1.0, 0.01)
        assert (params.n_min, params.omega_s, params.c) == (10, 0.1, 0.8)
        assert controls.scenario == "custom"
        assert controls.replicas == 400

    def test_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.9\nseed=7\n")
        params, _ = resolve_config(parse_config_file(cfg), {"q": "0.99"})
        assert params.q == 0.99
        assert params.seed == 7

    def test_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="q"):
            resolve_config(None, {"q": "1.5"})

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quux=1\n")
        with pytest.raises(ConfigError, match="quux"):
            parse_config_file(cfg)

    def test_floor_larger_than_lattice_rejected(self):
        with pytest.raises(ConfigError, match="nmin"):
            resolve_config(None, {"nmin": "26", "lx": "5", "ly": "5"})

    def test_policy_and_variant_aliases(self):
        params, _ = resolve_config(None, {"policy": "low", "variant": "active"})
        assert params.policy is PolicyKind.LOW_TECH
        assert params.variant is VariantKind.ACTIVE_AFTER_RESCUE

    def test_every_policy_and_variant_alias(self):
        policies = {
            "egalitarian": PolicyKind.EGALITARIAN,
            "lowtech": PolicyKind.LOW_TECH, "low": PolicyKind.LOW_TECH,
            "Medium-Tech": PolicyKind.MEDIUM_TECH,
            "medium": PolicyKind.MEDIUM_TECH,
            "high_tech": PolicyKind.HIGH_TECH, "high": PolicyKind.HIGH_TECH}
        variants = {
            "passive": VariantKind.PASSIVE_AFTER_RESCUE,
            "passive-after-rescue": VariantKind.PASSIVE_AFTER_RESCUE,
            "ACTIVE": VariantKind.ACTIVE_AFTER_RESCUE,
            "active_after_rescue": VariantKind.ACTIVE_AFTER_RESCUE}
        for alias, kind in policies.items():
            assert resolve_config(None, {"policy": alias})[0].policy is kind
        for alias, kind in variants.items():
            assert resolve_config(None, {"variant": alias})[0].variant is kind
        for key, bad in (("policy", "tech"), ("variant", "after_rescue")):
            with pytest.raises(ConfigError, match=f"{key} must be"):
                resolve_config(None, {key: bad})

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nq=0.25\n")
        values = parse_config_file(cfg)
        assert values == {"q": "0.25"}

    def test_non_numeric_value_names_key(self):
        with pytest.raises(ConfigError, match="sigma"):
            resolve_config(None, {"sigma": "fast"})

    @pytest.mark.parametrize("key, raw", [
        ("s", "-1"), ("b", "1.5"), ("nmin", "0"), ("omega_s", "1"),
        ("c", "0"), ("lx", "2"), ("ly", "2"), ("tmax", "-1"),
        ("seed", "-1"), ("seed", str(2**64)),
        ("lx", 2),            # not strings, which every caller passes:
        ("lx", 3.5),          # _cast_int rejects them
        ("events", "maybe"), ("replicas", "0"), ("jobs", "0")])
    def test_rejected_value_names_key(self, key, raw):
        with pytest.raises(ConfigError) as error:
            resolve_config(None, {key: raw})
        assert str(error.value).startswith(f"{key} must be")

    def test_jobs_and_lattice_bounds(self):
        """Each bound is accepted and one past it is a config error; nothing
        is allocated and nothing starts."""
        _, controls = resolve_config(None, {"jobs": str(MAX_JOBS)})
        assert controls.jobs == MAX_JOBS == 1024
        with pytest.raises(ConfigError, match=f"^jobs must be at most "
                           f"{MAX_JOBS}, got {MAX_JOBS + 1}$"):
            resolve_config(None, {"jobs": str(MAX_JOBS + 1)})
        assert MAX_SITES == 2**30
        for lx, ly in ((2**15, 2**15), (2**28, 4), (3, 2**30 // 3)):
            params, _ = resolve_config(None, {"lx": str(lx), "ly": str(ly)})
            assert params.lx * params.ly <= MAX_SITES
        for lx, ly in ((2**15 + 1, 2**15), (2**28 + 1, 4),
                       (3, 2**30 // 3 + 1)):
            with pytest.raises(ConfigError, match=r"^lx \* ly must be at "
                                                  r"most 2\^30, got "):
                resolve_config(None, {"lx": str(lx), "ly": str(ly)})

    def test_unknown_flag_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'quux'"):
            resolve_config(None, {"quux": "1"})

    @pytest.mark.parametrize("field, raw", [("policy", "lowtech"),
                                            ("variant", "active")])
    def test_unconverted_enum_rejected(self, field, raw):
        # resolve_config converts both; SimParams still checks their types
        with pytest.raises(ConfigError, match=f"^{field} must be a "):
            SimParams(**{field: raw})

    def test_malformed_line_reports_location(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q 0.5\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_file(cfg)


class TestTimeseriesCsv:
    def make_stats(self, t_max=4, replicas=2, **kw):
        return run_ensemble(SimParams(t_max=t_max, seed=5, **kw), replicas)

    def test_header_and_row_count(self, tmp_path):
        stats = self.make_stats(t_max=4)
        path = emit_timeseries_csv(stats, tmp_path / "ts.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd"
        assert len(lines) == 6  # header + t=0..4

    def test_row_shape_and_initial_count(self, tmp_path):
        stats = self.make_stats(t_max=3)
        path = emit_timeseries_csv(stats, tmp_path / "ts.csv")
        rows = path.read_text().splitlines()[1:]
        float_re = r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?"
        pattern = re.compile(rf"^\d+(?:,{float_re}){{6}}$")
        for row in rows:
            assert pattern.match(row), row
        assert rows[0].split(",")[1] == "80"  # every replica starts at c*lx*ly

    def test_single_replica_sd_columns_zero(self, tmp_path):
        stats = self.make_stats(t_max=3, replicas=1)
        path = emit_timeseries_csv(stats, tmp_path / "ts.csv")
        for row in path.read_text().splitlines()[1:]:
            cells = row.split(",")
            assert cells[2] == "0" and cells[4] == "0" and cells[6] == "0"

    def test_full_horizon_row_count(self, tmp_path):
        stats = self.make_stats(t_max=600, replicas=1)
        path = emit_timeseries_csv(stats, tmp_path / "ts.csv")
        assert len(path.read_text().splitlines()) == 602

    def test_initial_mean_tech_near_half(self, tmp_path):
        stats = self.make_stats(t_max=0, replicas=400)
        path = emit_timeseries_csv(stats, tmp_path / "ts.csv")
        a_mean = float(path.read_text().splitlines()[1].split(",")[3])
        se = math.sqrt(1.0 / 12.0 / 80.0 / 400)
        assert abs(a_mean - 0.5) < 3.0 * se

    def test_bytes_pinned(self, tmp_path):
        stats = self.make_stats(t_max=5, replicas=3, q=0.5)
        path = emit_timeseries_csv(stats, tmp_path / "ts.csv")
        assert path.read_text() == (
            "t,N_mean,N_sd,A_mean,A_sd,ratio_mean,ratio_sd\n"
            "0,80,0,0.500045457769,0.0204666045182,0.500045457769,"
            "0.0204666045182\n"
            "1,86,3.55902608401,0.52225611203,0.0270960035027,"
            "0.517059576889,0.0268263937631\n"
            "2,90.3333333333,0.471404520791,0.545205196559,0.0241609134895,"
            "0.534409410347,0.0236824953483\n"
            "3,91,0,0.572069561034,0.0237618301009,0.555162350384,"
            "0.0230595618903\n"
            "4,92.6666666667,3.09120616517,0.595573667022,0.0250937857323,"
            "0.572220889512,0.0241098443199\n"
            "5,92.6666666667,3.09120616517,0.625087929451,0.0176560586349,"
            "0.594602031394,0.0167949624942\n")

    @pytest.mark.parametrize("chunk_rows", [1, 4])
    def test_chunks_give_the_same_bytes(self, tmp_path, monkeypatch,
                                        chunk_rows):
        stats = self.make_stats(t_max=5, replicas=3, q=0.5)
        whole = emit_timeseries_csv(stats, tmp_path / "whole.csv")
        monkeypatch.setattr(output, "CHUNK_ROWS", chunk_rows)
        chunked = emit_timeseries_csv(stats, tmp_path / "chunked.csv")
        assert chunked.read_bytes() == whole.read_bytes()


class TestMetadata:
    def test_every_param_field_exactly_once(self):
        text = metadata_text(SimParams(), "custom", 10, "0.1.0")
        plain = [ln for ln in text.splitlines() if not ln.startswith("#")]
        keys = [ln.split("=", 1)[0] for ln in plain]
        assert sorted(keys) == sorted(
            ["scenario", "seed", "replicas", "sigma", "s", "b", "nmin",
             "omega_s", "c", "q", "policy", "variant", "lx", "ly", "tmax"])

    def test_non_default_params_render_fixed_bytes(self):
        params = SimParams(sigma=0.015, q=0.25, policy=PolicyKind.MEDIUM_TECH,
                           variant=VariantKind.ACTIVE_AFTER_RESCUE, seed=31,
                           t_max=17)
        assert metadata_text(params, "fig4", 9, "0.1.0", 1.5e-16,
                             ["note"]) == (
            "# techmarket run metadata; reusable as a config file\n"
            "# version=0.1.0\n"
            "# replica k stream seed: SeedSequence(entropy=seed, "
            "spawn_key=(k,))\n"
            "scenario=fig4\nseed=31\nreplicas=9\nsigma=0.015\ns=1.0\n"
            "b=0.01\nnmin=10\nomega_s=0.1\nc=0.8\nq=0.25\n"
            "policy=mediumtech\nvariant=active\nlx=10\nly=10\ntmax=17\n"
            "# max_renorm_error=1.500000e-16\n"
            "# note\n")

    def test_metadata_reloads_as_config(self, tmp_path):
        params = SimParams(q=0.25, policy=PolicyKind.MEDIUM_TECH, seed=31,
                           t_max=17)
        path = emit_run_metadata(tmp_path / "meta.txt", params, "custom", 9,
                                 "0.1.0", 1e-15, ["note"])
        reloaded, controls = resolve_config(parse_config_file(path))
        assert reloaded == params
        assert controls.replicas == 9
        assert controls.scenario == "custom"

    def test_round_trip_reproduces_csv_bytes(self, tmp_path):
        flags = {"q": "0.4", "tmax": "25", "replicas": "3", "seed": "77",
                 "out": str(tmp_path / "a")}
        params, controls = resolve_config(None, flags)
        result = run_scenario("custom", params, controls)
        meta = next(p for p in result.written if p.suffix == ".txt")
        csvs = sorted(p for p in result.written if p.suffix == ".csv")

        params2, controls2 = resolve_config(parse_config_file(meta))
        controls2.out = tmp_path / "b"
        clear_store()  # the rerun must simulate, not read the first run
        result2 = run_scenario("custom", params2, controls2)
        csvs2 = sorted(p for p in result2.written if p.suffix == ".csv")
        assert [p.name for p in csvs] == [p.name for p in csvs2]
        for a, b in zip(csvs, csvs2):
            assert a.read_bytes() == b.read_bytes()


class TestEventLog:
    #: a sparse passive cell, whose log holds the rescued kind and copies
    #: of the frontier, and an active one, whose rescues come with action
    #: kinds
    CELLS = (SimParams(q=0.9, policy=PolicyKind.MEDIUM_TECH, c=0.2,
                       t_max=60, seed=21),
             SimParams(q=0.99, variant=VariantKind.ACTIVE_AFTER_RESCUE,
                       t_max=60, seed=22))
    #: the keys in the README's order
    KEYS = ("replica", "t", "firm", "kind", "partner", "child", "rescued")
    KINDS = {"bankrupted", "rescued", "moved_copied_frontier",
             "moved_no_diffusion", "merged", "spin_off", "spin_off_blocked"}

    # two replicas of each cell, logged by the compiled kernel, and the
    # oracle's rows of the same replicas rendered by the oracle
    @pytest.mark.parametrize("kernel", ["loaded", "python"])
    def test_lines_match_compact_json(self, kernel):
        out = io.StringIO()
        for params in self.CELLS:
            if kernel == "loaded":
                log = io.BytesIO()  # the kernel's lines are ASCII bytes
                run_ensemble(params, 2, 1, log)
                out.write(log.getvalue().decode())
                continue
            for k in range(2):
                rng = random.Random(derive_seed(params.seed, k))
                events = array("q")
                oracle.run_sweeps(oracle.init_market(params, rng), params,
                                  rng,
                                  oracle.Trajectory.empty(params.t_max + 1),
                                  events)
                oracle.emit_event_log(out, k, events)
        lines = out.getvalue().splitlines()
        records = [json.loads(line) for line in lines]
        for line, record in zip(lines, records):
            assert line == json.dumps(record, separators=(",", ":"))
            keys = list(record)
            assert keys[:4] == list(self.KEYS[:4])
            assert keys == [key for key in self.KEYS if key in record]
            assert "child" not in record or "partner" in record
            assert record.get("rescued", True) is True
        assert {r["replica"] for r in records} == {0, 1}
        assert {r["kind"] for r in records} == self.KINDS
        assert any(r["kind"] != "rescued" and r.get("rescued")
                   for r in records)


class TestAtomicWrite:
    def test_replaces_target_on_success(self, tmp_path):
        target = tmp_path / "a.csv"
        target.write_text("old\n")
        with atomic_write(target) as fh:
            fh.write("new\n")
            assert target.read_text() == "old\n"
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


class TestScenarios:
    def test_preset_cells_fixed_by_scenario(self):
        params, controls = resolve_config(None, {"seed": "5"})
        cells = resolve_cells("fig2", params, controls)
        assert [(round(p.q, 2), p.policy) for _, p in cells] == [
            (0.3, PolicyKind.EGALITARIAN),
            (0.9, PolicyKind.EGALITARIAN),
            (0.99, PolicyKind.EGALITARIAN),
        ]
        assert all(p.t_max == 600 for _, p in cells)

    def test_explicit_tmax_and_replicas_override_preset(self):
        params, controls = resolve_config(None, {"seed": "5", "tmax": "50",
                                                 "replicas": "8"})
        cells = resolve_cells("fig3", params, controls)
        assert all(p.t_max == 50 for _, p in cells)
        assert all(p.policy is PolicyKind.LOW_TECH for _, p in cells)

    def test_fig5_cells_passive_with_callers_policy(self):
        params, controls = resolve_config(
            None, {"policy": "lowtech", "variant": "active", "q": "0.5"})
        cells = resolve_cells("fig5", params, controls)
        assert [p.q for _, p in cells] == list(TC_Q_GRID)
        assert all(p.policy is PolicyKind.LOW_TECH for _, p in cells)
        assert all(p.variant is VariantKind.PASSIVE_AFTER_RESCUE
                   for _, p in cells)
        assert all(p.t_max == 3000 for _, p in cells)
        assert cells[1][0] == "q0.1_lowtech_passive"

    def test_fig6_contrasts_variants(self):
        variants = [c.variant for c in SCENARIOS["fig6"].cells]
        assert variants == [VariantKind.PASSIVE_AFTER_RESCUE,
                            VariantKind.ACTIVE_AFTER_RESCUE]

    def test_scenario_run_writes_expected_files(self, tmp_path):
        params, controls = resolve_config(
            None, {"seed": "5", "tmax": "10", "replicas": "2",
                   "out": str(tmp_path)})
        result = run_scenario("fig1", params, controls)
        names = sorted(p.name for p in result.written)
        assert names == ["fig1_metadata.txt", "fig1_q0_egalitarian_passive.csv"]
        assert result.max_renorm_error <= 1e-2

    def test_event_log_records_sweeps(self, tmp_path):
        params, controls = resolve_config(
            None, {"seed": "5", "tmax": "8", "replicas": "2",
                   "out": str(tmp_path), "events": "true", "q": "0.5"})
        result = run_scenario("custom", params, controls)
        log = next(p for p in result.written if p.suffix == ".jsonl")
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records, "event log should not be empty"
        assert {r["replica"] for r in records} == {0, 1}
        kinds = {r["kind"] for r in records}
        assert kinds <= {"bankrupted", "rescued",
                         "moved_copied_frontier", "moved_no_diffusion",
                         "merged", "spin_off", "spin_off_blocked"}
        replicas = [r["replica"] for r in records]
        assert replicas == sorted(replicas)

    def test_event_log_same_bytes_serial_and_pool(self, tmp_path):
        cases = {
            "custom": (["--q", "0.99", "--variant", "active", "--tmax", "50",
                        "--replicas", "3"],
                       ["custom_q0.99_egalitarian_active_events.jsonl"],
                       ["custom_metadata.txt",
                        "custom_q0.99_egalitarian_active.csv"]),
            "fig5": (["--scenario", "fig5", "--tmax", "30", "--replicas", "2"],
                     [f"fig5_q{q:g}_egalitarian_passive_events.jsonl"
                      for q in TC_Q_GRID],
                     ["fig5_metadata.txt", "fig5_tc_curve.csv"]),
        }
        for scenario, (flags, logs, outputs) in cases.items():
            runs = {}
            for tag, extra in (("plain", ["--jobs", "2"]),
                               ("serial", ["--events", "--jobs", "1"]),
                               ("pool", ["--events", "--jobs", "2"])):
                runs[tag] = tmp_path / scenario / tag
                code = main(flags + ["--seed", "8", "--out", str(runs[tag])]
                            + extra)
                assert code == 0
            names = sorted(p.name for p in runs["serial"].iterdir())
            assert names == sorted(p.name for p in runs["pool"].iterdir())
            assert names == sorted(logs + outputs)
            for name in names:
                assert (runs["serial"] / name).read_bytes() == \
                    (runs["pool"] / name).read_bytes()
            # --events adds the logs and changes no other output
            assert sorted(p.name for p in runs["plain"].iterdir()) == outputs
            for name in outputs:
                assert (runs["plain"] / name).read_bytes() == \
                    (runs["pool"] / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_replica_leaves_no_event_log(self, monkeypatch, tmp_path,
                                                 capsys, jobs):
        import techmarket.ensemble as ens

        bad, tolerance = lowest_failing(SimParams(t_max=5, seed=3), 3)
        bad_seed = ens.replica_seeds(3, 3)[bad]
        monkeypatch.setattr(compiled, "RENORM_TOLERANCE", tolerance)
        code = main(["--tmax", "5", "--replicas", "3", "--seed", "3",
                     "--events", "--jobs", jobs, "--out", str(tmp_path)])
        assert code == 2
        assert f"replica seed {bad_seed}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_events_bypass_the_store(self, monkeypatch, tmp_path):
        real = compiled.run_replicas
        calls = []

        def spy(params, seeds, jobs, events=None):
            calls.extend([events is not None] * len(seeds))
            return real(params, seeds, jobs, events)

        monkeypatch.setattr(compiled, "run_replicas", spy)
        flags = {"seed": "5", "tmax": "12", "replicas": "2", "q": "0.5"}
        for out, events in (("a", "true"), ("b", "false"), ("c", "true")):
            params, controls = resolve_config(
                None, dict(flags, out=str(tmp_path / out), events=events))
            run_scenario("custom", params, controls)
        # the first logged run neither read nor wrote the store, so the
        # plain run simulated; the second logged run simulated again
        assert calls == [True] * 2 + [False] * 2 + [True] * 2
        csv = "custom_q0.5_egalitarian_passive.csv"
        assert (tmp_path / "a" / csv).read_bytes() \
            == (tmp_path / "b" / csv).read_bytes() \
            == (tmp_path / "c" / csv).read_bytes()

    def test_one_pool_per_call_and_no_child_left(self, monkeypatch, tmp_path):
        """One ensemble call per cell that simulates and none for a call
        that the store serves; no worker outlives the call."""
        threads = live_threads()
        params, controls = resolve_config(
            None, {"seed": "5", "tmax": "10", "replicas": "2", "jobs": "2",
                   "out": str(tmp_path)})
        made = record_workers(monkeypatch)
        run_scenario("fig2", params, controls)
        # one call of min(jobs, replicas) workers per cell
        assert made == [2, 2, 2]
        assert_no_worker_left(threads)
        run_scenario("fig2", params, controls)  # served from the store
        assert made == [2, 2, 2]

    def test_no_child_left_when_a_replica_fails(self, monkeypatch, tmp_path):
        """Every replica fails its first sweep: the first cell's call stops,
        no worker outlives it, and no output file is written."""
        monkeypatch.setattr(compiled, "RENORM_TOLERANCE", -1.0)
        threads = live_threads()
        params, controls = resolve_config(
            None, {"seed": "5", "tmax": "10", "replicas": "4", "jobs": "2",
                   "out": str(tmp_path)})
        made = record_workers(monkeypatch)
        with pytest.raises(IntegrityError):
            run_scenario("fig2", params, controls)
        assert made == [2]
        assert_no_worker_left(threads)
        assert list(tmp_path.iterdir()) == []

    def test_tc_curve_csv_schema(self, tmp_path):
        params, controls = resolve_config(
            None, {"seed": "5", "tmax": "60", "replicas": "2",
                   "out": str(tmp_path)})
        result = run_scenario("fig5", params, controls)
        curve_csv = next(p for p in result.written if p.suffix == ".csv")
        lines = curve_csv.read_text().splitlines()
        assert lines[0] == "q,tc_mean,tc_sd,fraction_reached"
        assert len(lines) == 1 + 12  # the preset q grid

    def test_tc_curve_csv_bytes_pinned(self, tmp_path):
        # one replica of three crosses at q=0; no replica crosses elsewhere
        assert main(["--scenario", "fig5", "--tmax", "30", "--replicas", "3",
                     "--seed", "5", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig5_tc_curve.csv").read_text() == (
            "q,tc_mean,tc_sd,fraction_reached\n"
            "0,30,0,0.333333333333\n"
            "0.1,nan,nan,0\n0.2,nan,nan,0\n0.3,nan,nan,0\n0.4,nan,nan,0\n"
            "0.5,nan,nan,0\n0.6,nan,nan,0\n0.7,nan,nan,0\n0.8,nan,nan,0\n"
            "0.9,nan,nan,0\n0.95,nan,nan,0\n0.99,nan,nan,0\n")

    def test_tc_curve_rows_and_notes_per_cell(self, tmp_path):
        # at tmax=200 a cell stops at 128 sweeps or runs to tmax. At the
        # preset's 3000 every cell stops early, and the rows and notes are
        # still those of the full run; at seed 15, q=0.95 the mean crosses
        # at 122 and a replica at 181
        for seed, replicas, flags in ((13, 3, {"tmax": "200"}),
                                      (15, 2, {})):
            out = tmp_path / str(seed)
            params, controls = resolve_config(
                None, dict(flags, seed=str(seed), replicas=str(replicas),
                           out=str(out)))
            clear_store()
            result = run_scenario("fig5", params, controls)
            t_max = params.t_max
            ensembles = [
                run_ensemble(SimParams(q=q, t_max=t_max, seed=seed), replicas)
                for q in TC_Q_GRID]
            rows = (out / "fig5_tc_curve.csv").read_text().splitlines()[1:]
            assert rows == [
                ",".join(format(x, ".12g") for x in
                         (q, st.tc_mean, st.tc_sd, st.fraction_reached))
                for q, st in zip(TC_Q_GRID, ensembles)]
            meta = (out / "fig5_metadata.txt").read_text().splitlines()
            assert [line for line in meta if line.startswith("# tc_of_mean")] \
                == [f"# tc_of_mean[q={q:g}]="
                    f"{'none' if st.tc_of_mean is None else st.tc_of_mean}"
                    for q, st in zip(TC_Q_GRID, ensembles)]
            # the first of 128, 256, ... below tmax by which every replica
            # and the ensemble mean crossed, and tmax if there is none
            horizons = []
            for st in ensembles:
                last = (max(np.asarray(st.tc_values).max(), st.tc_of_mean)
                        if st.fraction_reached == 1 and st.tc_of_mean is not None
                        else math.inf)
                horizons.append(next(
                    (h for h in (128, 256, 512, 1024, 2048)
                     if last <= h < t_max), t_max))
            assert [line for line in meta if line.startswith("# horizon")] \
                == [f"# horizon[q={q:g}]={h}"
                    for q, h in zip(TC_Q_GRID, horizons)]
            assert max(horizons) < 3000
            assert result.max_renorm_error == max(
                run_ensemble(SimParams(q=q, t_max=h, seed=seed), replicas)
                .max_renorm_error for q, h in zip(TC_Q_GRID, horizons))

    def test_curve_cell_runs_to_tmax_unless_replicas_and_mean_cross(
            self, monkeypatch, tmp_path):
        import techmarket.ensemble as ens
        import techmarket.scenarios as sc

        full = [h for _ in TC_Q_GRID
                for h in (128, 256, 512, 1024, 2048, 3000)]
        real = compiled.run_replicas
        horizons = []

        def spy(params, seeds, *rest):
            horizons.extend([params.t_max] * len(seeds))
            return real(params, seeds, *rest)

        monkeypatch.setattr(compiled, "run_replicas", spy)
        # sigma=0 keeps the frontier at 1, which no replica's mean reaches
        params, controls = resolve_config(
            None, {"seed": "5", "sigma": "0", "replicas": "2",
                   "out": str(tmp_path / "flat")})
        run_scenario("fig5", params, controls)
        assert horizons == [h for h in full for _ in range(2)]
        meta = (tmp_path / "flat" / "fig5_metadata.txt").read_text()
        assert re.findall(r"^# horizon\[q=[^\]]+\]=(\d+)$", meta, re.M) \
            == ["3000"] * len(TC_Q_GRID)
        assert "tmax=3000\n" in meta
        rows = (tmp_path / "flat" / "fig5_tc_curve.csv").read_text()
        assert rows.splitlines()[1:] == [f"{q:g},nan,nan,0" for q in TC_Q_GRID]

        # every replica crosses at q=0, but a mean that never does still
        # keeps the cell running
        real_stored = sc.stored_ensemble
        asked = []

        def mean_never_crosses(params, n_replicas, jobs):
            asked.append(params.t_max)
            return replace(real_stored(params, n_replicas, jobs),
                           tc_of_mean=None)

        monkeypatch.setattr(sc, "stored_ensemble", mean_never_crosses)
        params, controls = resolve_config(
            None, {"seed": "5", "replicas": "2",
                   "out": str(tmp_path / "mean")})
        run_scenario("fig5", params, controls)
        assert asked == full
        rows = (tmp_path / "mean" / "fig5_tc_curve.csv").read_text()
        assert rows.splitlines()[1].endswith(",1")

    def test_logged_curve_cells_run_to_tmax_with_the_same_notes(
            self, monkeypatch, tmp_path):
        import techmarket.ensemble as ens

        real = compiled.run_replicas
        horizons = []

        def spy(params, seeds, *rest):
            horizons.extend([params.t_max] * len(seeds))
            return real(params, seeds, *rest)

        monkeypatch.setattr(compiled, "run_replicas", spy)
        flags = ["--scenario", "fig5", "--tmax", "300", "--replicas", "2",
                 "--seed", "8"]
        assert main(flags + ["--out", str(tmp_path / "plain")]) == 0
        assert min(horizons) == 128
        horizons.clear()
        assert main(flags + ["--events", "--out", str(tmp_path / "log")]) == 0
        assert horizons == [300] * 2 * len(TC_Q_GRID)
        assert (tmp_path / "plain" / "fig5_tc_curve.csv").read_bytes() \
            == (tmp_path / "log" / "fig5_tc_curve.csv").read_bytes()
        notes = [[line for line in (tmp_path / run / "fig5_metadata.txt")
                  .read_text().splitlines()
                  if line.startswith(("# tc_of_mean", "# horizon"))]
                 for run in ("plain", "log")]
        assert notes[0] == notes[1]
        assert "# horizon[q=0]=128" in notes[0]

    def test_curve_same_bytes_alone_and_after_its_prefix_presets(
            self, monkeypatch, tmp_path):
        import techmarket.ensemble as ens

        real = compiled.run_replicas
        simulated = []

        def spy(params, seeds, *rest):
            simulated.extend([params.q] * len(seeds))
            return real(params, seeds, *rest)

        monkeypatch.setattr(compiled, "run_replicas", spy)

        def run(name, out):
            params, controls = resolve_config(
                None, {"scenario": name, "seed": "42", "replicas": "2",
                       "out": str(tmp_path / out)})
            run_scenario(name, params, controls)

        run("fig5", "alone")
        clear_store()
        run("fig1", "fig1")
        run("fig2", "fig2")
        simulated.clear()
        run("fig5", "after")
        # the cells at the q of fig1 and fig2 were sliced from their runs
        assert not {0.0, 0.3, 0.9, 0.99} & set(simulated)
        for name in ("fig5_tc_curve.csv", "fig5_metadata.txt"):
            assert (tmp_path / "alone" / name).read_bytes() \
                == (tmp_path / "after" / name).read_bytes()


def test_figure_script_simulates_each_trajectory_once(monkeypatch, tmp_path):
    real = compiled.run_replicas
    horizons = []

    def spy(params, seeds, *rest):
        horizons.extend([params.t_max] * len(seeds))
        return real(params, seeds, *rest)

    monkeypatch.setattr(compiled, "run_replicas", spy)
    script = Path(__file__).parents[1] / "scripts" / "reproduce_figures.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--replicas", "1",
                                      "--jobs", "1", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(script), run_name="__main__")
    assert info.value.code == 0
    # fig1..fig4's 10 cells; fig5's cells from 128 sweeps, doubled until
    # each curve row is final, where its cells at q = 0, 0.3, 0.9 and 0.99
    # are slices of fig1's and fig2's; fig6's two cells; fig7 is a slice
    assert horizons == ([600] * 10
                        + [128] * 7             # q = 0.1-0.8 but 0.3
                        + [128, 256]            # q = 0.95
                        + [2000] * 2)


def test_cli_import_loads_no_process_pool(tmp_path):
    """No replica runs on a process or a Python executor, and only a build
    runs the compiler, so a command imports neither ``multiprocessing`` nor
    ``concurrent.futures``, nor ``subprocess`` to load a cached kernel, and
    a 2-replica ensemble at jobs=2 imports none of them either. One whose
    kernel cannot be built, as its cache is below a regular file, raises
    ConfigError and imports neither of the first two."""
    compiled.kernel()  # built into the cache the child reads
    src = Path(__file__).parents[1] / "src"
    code = ("import sys, techmarket.cli\n"
            "from techmarket import compiled\n"
            "mods = ('multiprocessing', 'concurrent.futures', "
            "'subprocess')\n"
            "print([m for m in mods if m in sys.modules])\n"
            "compiled.kernel()\n"
            "print([m for m in mods if m in sys.modules])\n"
            "techmarket.run_ensemble(techmarket.SimParams(t_max=5), 2, 2)\n"
            "print([m for m in mods if m in sys.modules])\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.stdout.splitlines() == ["[]"] * 3
    (tmp_path / "not-a-directory").touch()
    code = ("import sys\n"
            "from techmarket import ConfigError, SimParams, run_ensemble\n"
            "mods = ('multiprocessing', 'concurrent.futures')\n"
            "try:\n"
            "    run_ensemble(SimParams(t_max=20), 2, jobs=2)\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
            "print([m for m in mods if m in sys.modules])\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src),
                                  XDG_CACHE_HOME=str(tmp_path
                                                     / "not-a-directory")))
    error, loaded = run.stdout.splitlines()
    assert error.startswith("cannot build or load the sweep kernel with ")
    assert "not-a-directory" in error
    assert loaded == "[]"


def test_runs_without_numpy(tmp_path):
    """numpy is a test dependency only: a custom run with events in an
    interpreter that cannot import it exits 0 and writes the same CSV and
    event log as a run here."""
    compiled.kernel()  # built into the cache the child reads
    src = Path(__file__).parents[1] / "src"
    args = ["--q", "0.9", "--policy", "mediumtech", "--tmax", "12",
            "--replicas", "3", "--seed", "8", "--events"]
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"  # any import of it fails
            "from techmarket.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    run = subprocess.run(
        [sys.executable, "-c", code, *args, "--out", str(tmp_path / "bare")],
        capture_output=True, text=True, env=dict(os.environ,
                                                 PYTHONPATH=str(src)))
    assert run.returncode == 0, run.stderr
    assert main([*args, "--out", str(tmp_path / "here")]) == 0
    names = sorted(p.name for p in (tmp_path / "here").iterdir()
                   if p.suffix in (".csv", ".jsonl"))
    assert len(names) == 2
    for name in names:
        assert (tmp_path / "bare" / name).read_bytes() \
            == (tmp_path / "here" / name).read_bytes(), name


def test_package_root_exports_the_entry_points():
    import techmarket

    assert sorted(techmarket.__all__) == sorted([
        "__version__", "ConfigError", "IntegrityError", "PolicyKind",
        "SimParams", "VariantKind", "EnsembleStats", "run_ensemble"])
    for name in techmarket.__all__:
        assert getattr(techmarket, name) is not None


class TestCli:
    def test_custom_run_exit_zero(self, tmp_path, capsys):
        code = main(["--tmax", "10", "--replicas", "2", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "custom_q0_egalitarian_passive.csv" in out
        assert (tmp_path / "custom_metadata.txt").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        code = main(["--q", "1.5", "--out", str(tmp_path)])
        assert code == 1
        assert "q" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--scenario", "bogus"],
                                      ["--bogus", "1"], ["--q"]])
    def test_usage_error_exit_one(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--nmin", "0"], ["--lx", "2"],
                                      ["--seed", "-1"], ["--replicas", "0"],
                                      ["--tmax", "1.5"]])
    def test_rejected_value_exit_one(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {argv[0][2:]} must be")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_trajectories_beyond_memory_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--sigma", "0", "--tmax", "10000000000000",
                     "--replicas", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        # 97 bytes a row: 24 in the ensemble's matrices, 16 in the rescue
        # sum and renormalization error maximum, and 57 in the statistics'
        # other rows, t's growth as it is built included
        assert err.startswith("config error: replicas=1 and tmax=10000000000000"
                              " need 903,382.9 GiB of per-sweep ensemble "
                              "rows")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--jobs", str(MAX_JOBS + 1)],
        ["--lx", str(2**15 + 1), "--ly", str(2**15)],
    ], ids=["jobs", "lattice"])
    def test_past_a_bound_exit_one(self, monkeypatch, tmp_path, capsys,
                                   argv):
        made = record_workers(monkeypatch)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists() and made == []

    def test_jobs_at_the_cap_ask_for_as_many_workers(self, monkeypatch,
                                                     tmp_path):
        """With more replicas than --jobs at the cap, the kernel's ensemble
        call is given MAX_JOBS States; this spy lets it use only the
        first, which runs the replicas in the calling thread, so no thread
        starts."""
        lib, made = compiled.kernel(), []
        real = lib.tm_run_ensemble

        def serial(ensemble_ref):
            made.append(ensemble_ref._obj.n_states)
            ensemble_ref._obj.n_states = 1
            return real(ensemble_ref)

        monkeypatch.setattr(lib, "tm_run_ensemble", serial)
        threads = live_threads()
        assert main(["--jobs", str(MAX_JOBS), "--replicas", str(MAX_JOBS + 1),
                     "--tmax", "0", "--out", str(tmp_path)]) == 0
        assert made == [MAX_JOBS]
        assert_no_worker_left(threads)

    def test_memory_guard_counts_tables_and_running_replicas(
            self, monkeypatch, tmp_path, capsys):
        """The guard counts the ensemble's matrices (24 bytes a replica and
        row), the rescue sum and renormalization error maximum (16 bytes a
        row), the statistics' other rows (57 bytes a row, t's growth
        included), 25 bytes a replica (its seed, its crossing and the array
        of the crossings), the neighbor tables (48 bytes a site), the C
        buffers of the States the replicas run on: one per worker, and one
        with a text buffer for a logged run at any jobs, and 45 KB of
        ctypes array types. A preset of three cells adds, for each cell, 72
        bytes a row and 8 a replica."""
        have = [0]
        real = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have[0]}.get(name)
            or real(name))
        flags = ["--tmax", "10", "--replicas", "3"]
        # 3 replicas of 11 rows in the matrices (24 bytes), 11 rows of 73
        # bytes, 3 replicas of 25 bytes, the 10x10 tables, 15 array types
        # of 3 KB, and per State 68 bytes a site and the 2,500-byte stream;
        # a logged State adds a text buffer of 4,096 lines of 187 bytes
        base = 3 * 11 * 24 + 11 * 73 + 3 * 25 + 48 * 100 + 15 * 3 * 2**10
        state = 68 * 100 + 2500
        # on 2 threads, 2 States; serially one; logged one at any jobs
        threaded = base + 2 * state
        serial = base + state
        logged = base + state + 4096 * 187
        preset = threaded + 3 * (11 * 72 + 3 * 8)
        # the matrices were once left out: that count is too little
        uncounted = threaded - 3 * 11 * 24
        for extra, have[0], code in (
                (["--jobs", "2"], threaded, 0),
                (["--jobs", "2"], threaded - 1, 1),
                (["--jobs", "2"], uncounted, 1),
                (["--scenario", "fig2", "--jobs", "2"], preset, 0),
                (["--scenario", "fig2", "--jobs", "2"], preset - 1, 1),
                (["--jobs", "1"], serial, 0),
                (["--jobs", "1"], serial - 1, 1),
                (["--events", "--jobs", "2"], logged, 0),
                (["--events", "--jobs", "2"], logged - 1, 1),
                (["--events", "--jobs", "1"], logged, 0),
                (["--events", "--jobs", "1"], logged - 1, 1)):
            out = tmp_path / f"{len(extra)}-{extra[-1]}-{have[0]}"
            assert main(flags + extra + ["--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert ("of per-sweep ensemble rows and 10x10 lattice buffers, more "
                "than") in capsys.readouterr().err
        # a lattice at the bound needs far more than 16 GiB: rejected
        # before anything is allocated
        have[0] = 2**34
        out = tmp_path / "large"
        assert main(["--lx", str(2**15), "--ly", str(2**15), "--tmax", "0",
                     "--replicas", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: replicas=1 and tmax=0 need ")
        assert "32768x32768 lattice buffers" in err and err.count("\n") == 1
        assert not out.exists()

    def test_preset_peak_is_below_the_memory_guard(self, tmp_path):
        """A preset of three cells that share no ensemble holds the store's
        entries of the cells before while the next runs: its traced peak,
        about 5.4 MB at one replica of 20,000 sweeps, is below the guard's
        count, which once counted one cell (3.4 MB)."""
        params, controls = resolve_config(
            None, {"scenario": "fig2", "replicas": "1", "tmax": "20000",
                   "sigma": "0.0001", "out": str(tmp_path)})
        cells = resolve_cells("fig2", params, controls)
        assert len(cells) == 3
        run_ensemble(SimParams(t_max=1), 1)  # the kernel is loaded first
        tracemalloc.start()
        try:
            run_scenario("fig2", params, controls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bytes_needed(cells[0][1], 1, controls.jobs, False, 3)

    def test_help_exit_zero_and_names_presets(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in [*SCENARIOS, "custom"])

    def test_one_flag_per_config_key(self):
        flags = {flag for action in build_parser()._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert flags == {"--config"} | {"--" + key.replace("_", "-")
                                        for key in CONFIG_KEYS}
        assert flags == {
            "--config", "--scenario", "--seed", "--replicas", "--sigma",
            "--s", "--b", "--nmin", "--omega-s", "--c", "--q", "--policy",
            "--variant", "--lx", "--ly", "--tmax", "--jobs", "--out",
            "--events"}

    def test_missing_config_file_exit_one(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("case", ["config_is_a_directory", "out_is_a_file"])
    def test_unusable_path_exit_one(self, tmp_path, capsys, case):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        flags = (["--config", str(tmp_path), "--out", str(tmp_path / "out")]
                 if case == "config_is_a_directory" else ["--out", str(taken)])
        code = main(flags + ["--tmax", "5", "--replicas", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text() == "keep\n"

    def test_pool_starts_at_most_one_worker_per_replica(self, monkeypatch,
                                                         tmp_path):
        threads = live_threads()
        made = record_workers(monkeypatch)
        assert main(["--tmax", "5", "--replicas", "2", "--jobs", "4",
                     "--out", str(tmp_path)]) == 0
        assert made == [2]
        assert_no_worker_left(threads)

    def test_integrity_failure_exit_two(self, monkeypatch, tmp_path, capsys):
        import techmarket.cli as cli_mod

        def boom(name, params, controls):
            raise IntegrityError("normalization error 0.5 exceeds tolerance")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        code = main(["--tmax", "5", "--replicas", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "integrity" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--sigma", "1e6", "--tmax", "3"],
                                       ["--sigma", "2", "--tmax", "400"],
                                       ["--sigma", "inf", "--tmax", "3"],
                                       ["--sigma", "1.2", "--tmax", "300"]])
    def test_overflowing_sigma_exit_one(self, tmp_path, capsys, flags):
        code = main(flags + ["--replicas", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "sigma" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_large_finite_sigma_runs(self, tmp_path):
        code = main(["--sigma", "1", "--tmax", "300", "--replicas", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "custom_q0_egalitarian_passive.csv").read_text()
        values = [float(x) for line in rows.splitlines()[1:]
                  for x in line.split(",")]
        assert all(math.isfinite(v) for v in values)

    def test_sigma_just_inside_squared_frontier_bound_runs(self, tmp_path):
        # 2 * exp(1.174 * 300)**2 * 100 is about 1.65e308, just below the
        # largest double (1.80e308, reached at sigma of about 1.17414)
        code = main(["--sigma", "1.174", "--tmax", "300", "--replicas", "2",
                     "--policy", "mediumtech", "--q", "0.9",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "custom_q0.9_mediumtech_passive.csv").read_text()
        values = [float(x) for line in rows.splitlines()[1:]
                  for x in line.split(",")]
        assert all(math.isfinite(v) for v in values)

    def test_metadata_reruns_preset_bit_exactly(self, tmp_path):
        # no --tmax: the metadata must carry fig7's own 2000 sweeps
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        assert main(["--scenario", "fig7", "--replicas", "1",
                     "--out", str(first)]) == 0
        assert "tmax=2000\n" in (first / "fig7_metadata.txt").read_text()
        clear_store()  # the rerun must simulate, not read the first run
        assert main(["--config", str(first / "fig7_metadata.txt"),
                     "--out", str(rerun)]) == 0
        csv = "fig7_q0.99_egalitarian_active.csv"
        assert len((first / csv).read_text().splitlines()) == 2002
        assert (rerun / csv).read_bytes() == (first / csv).read_bytes()

    def test_replica_failure_names_seed_and_keeps_exit_code(
            self, monkeypatch, tmp_path, capsys):
        import techmarket.ensemble as ens

        monkeypatch.setattr(compiled, "RENORM_TOLERANCE", -1.0)
        code = main(["--tmax", "5", "--replicas", "1", "--seed", "3",
                     "--out", str(tmp_path)])
        seed = ens.replica_seeds(3, 1)[0]
        assert code == 2
        assert f"replica seed {seed}" in capsys.readouterr().err


@st.composite
def cli_flags(draw):
    """The flags of a custom run that passes validation: lattices 3..12 a
    side, both variants, every policy, s, b and q at their edges among the
    draws, 1-3 replicas at --jobs 1-3, with and without --events, and
    horizons up to 30."""
    lx, ly = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    c = draw(st.floats(1.0 / (lx * ly), 1.0))
    values = {
        "sigma": draw(st.floats(0.0, 1.0)),
        "s": draw(st.sampled_from((0.0, 1e300)) | st.floats(0.0, 10.0)),
        "b": draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)),
        "n_min": draw(st.integers(1, max(1, int(c * lx * ly)))),
        "omega_s": draw(st.floats(0.01, 0.99)),
        "c": c,
        "q": draw(st.sampled_from((0.0, 0.99, 1.0)) | st.floats(0.0, 1.0)),
        "policy": draw(st.sampled_from(PolicyKind)),
        "variant": draw(st.sampled_from(VariantKind)),
        "lx": lx, "ly": ly,
        "t_max": draw(st.integers(0, 30)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    try:
        SimParams(**values)
    except ConfigError:
        assume(False)
    names = {"n_min": "nmin", "omega_s": "omega-s", "t_max": "tmax"}
    flags = [f"--{names.get(key, key)}={getattr(value, 'value', value)!r}"
             .replace("'", "") for key, value in values.items()]
    flags += [f"--replicas={draw(st.integers(1, 3))}",
              f"--jobs={draw(st.integers(1, 3))}"]
    return flags + (["--events"] if draw(st.booleans()) else [])


@settings(max_examples=200, deadline=None)
@given(flags=cli_flags())
def test_validated_runs_keep_the_exit_code_contract(flags):
    """Every input that passes validation exits 0 with finite CSV values,
    or 1 or 2 with one line on stderr and no traceback."""
    clear_store()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(flags + ["--out", out])
        csvs = list(Path(out).glob("*.csv"))
        values = [float(x) for csv in csvs
                  for line in csv.read_text().splitlines()[1:]
                  for x in line.split(",")]
    if code == 0:
        assert len(csvs) == 1 and values
        assert all(math.isfinite(v) for v in values)
    else:
        assert code in (1, 2)
        assert err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
