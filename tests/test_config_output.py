"""Config resolution, CSV/metadata emission, event logs, scenarios with
the ensemble store, and the CLI."""
import io
import json
import math
import multiprocessing
import re
from array import array

import numpy as np
import pytest

from techmarket import (
    ConfigError,
    IntegrityError,
    PolicyKind,
    SimParams,
    VariantKind,
)
from techmarket.cli import build_parser, main
from techmarket.config import (
    CONFIG_KEYS,
    RunControls,
    parse_config_file,
    resolve_config,
)
from techmarket.dynamics import EventKind, EventRecord
from techmarket.ensemble import clear_store, run_ensemble
from techmarket.output import (
    TC_CURVE_HEADER,
    TIMESERIES_HEADER,
    atomic_write,
    emit_event_log,
    emit_run_metadata,
    emit_timeseries_csv,
    metadata_text,
)
from techmarket.params import TC_Q_GRID
from techmarket.scenarios import SCENARIOS, resolve_cells, run_scenario


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
    RECORDS = [
        EventRecord(EventKind.MOVED_NO_DIFFUSION, 4, 0),
        EventRecord(EventKind.BANKRUPTED, 17, 3),
        EventRecord(EventKind.RESCUED, 5, 3, rescued=True),
        EventRecord(EventKind.MERGED, 8, 12, partner=9),
        EventRecord(EventKind.SPIN_OFF, 31, 12, partner=17, child=92),
        EventRecord(EventKind.SPIN_OFF_BLOCKED, 2, 40, partner=0, rescued=True),
        EventRecord(EventKind.MOVED_COPIED_FRONTIER, 0, 41, rescued=True),
    ]
    #: the same records as one event sink: -1 for None, 0/1 for the flag
    SINK = array("q", [-1 if value is None else value
                       for ev in RECORDS for value in ev])

    def test_lines_match_compact_json(self):
        out = io.StringIO()
        emit_event_log(out, 7, self.SINK)
        expected = []
        for ev in self.RECORDS:
            record = {"replica": 7, "t": ev.sweep, "firm": ev.firm,
                      "kind": ev.kind.name.lower()}
            if ev.partner is not None:
                record["partner"] = ev.partner
            if ev.child is not None:
                record["child"] = ev.child
            if ev.rescued:
                record["rescued"] = True
            expected.append(json.dumps(record, separators=(",", ":")) + "\n")
        assert out.getvalue() == "".join(expected)
        assert out.getvalue().splitlines()[4] == (
            '{"replica":7,"t":12,"firm":31,"kind":"spin_off",'
            '"partner":17,"child":92}')


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

        real = ens.run_replica
        bad_seed = ens.replica_seeds(3, 3)[1]

        def drift(params, seed, events=None, start=None):
            if seed == bad_seed:
                raise IntegrityError("normalization error 0.5 exceeds tolerance")
            return real(params, seed, events, start)

        monkeypatch.setattr(ens, "run_replica", drift)
        code = main(["--tmax", "5", "--replicas", "3", "--seed", "3",
                     "--events", "--jobs", jobs, "--out", str(tmp_path)])
        assert code == 2
        assert f"replica seed {bad_seed}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_events_bypass_the_store(self, monkeypatch, tmp_path):
        import techmarket.ensemble as ens

        real = ens.run_replica
        calls = []

        def spy(params, seed, events=None, start=None):
            calls.append((events is not None, start is not None))
            return real(params, seed, events, start)

        monkeypatch.setattr(ens, "run_replica", spy)
        flags = {"seed": "5", "tmax": "12", "replicas": "2", "q": "0.5"}
        for out, events in (("a", "true"), ("b", "false"), ("c", "true")):
            params, controls = resolve_config(
                None, dict(flags, out=str(tmp_path / out), events=events))
            run_scenario("custom", params, controls)
        # the first logged run neither read nor wrote the store, so the
        # plain run simulated; the second logged run simulated again
        assert calls == [(True, False)] * 2 + [(False, False)] * 2 \
            + [(True, False)] * 2
        csv = "custom_q0.5_egalitarian_passive.csv"
        assert (tmp_path / "a" / csv).read_bytes() \
            == (tmp_path / "b" / csv).read_bytes() \
            == (tmp_path / "c" / csv).read_bytes()

    def test_one_pool_per_call_and_no_child_left(self, monkeypatch, tmp_path):
        import techmarket.ensemble as ens

        started = []

        class CountedPool(ens.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ens, "ProcessPoolExecutor", CountedPool)
        params, controls = resolve_config(
            None, {"seed": "5", "tmax": "10", "replicas": "2", "jobs": "2",
                   "out": str(tmp_path)})
        run_scenario("fig2", params, controls)
        assert started == [1]  # three cells, one pool
        assert multiprocessing.active_children() == []
        run_scenario("fig2", params, controls)  # served from the store
        assert started == [1]

    def test_no_child_left_when_a_replica_fails(self, monkeypatch, tmp_path):
        import techmarket.ensemble as ens

        def drift(params, seed, events=None, start=None):
            raise IntegrityError("normalization error 0.5 exceeds tolerance")

        monkeypatch.setattr(ens, "run_replica", drift)
        params, controls = resolve_config(
            None, {"seed": "5", "tmax": "10", "replicas": "4", "jobs": "2",
                   "out": str(tmp_path)})
        with pytest.raises(IntegrityError):
            run_scenario("fig2", params, controls)
        assert multiprocessing.active_children() == []

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
        params, controls = resolve_config(
            None, {"seed": "13", "tmax": "120", "replicas": "3",
                   "out": str(tmp_path)})
        result = run_scenario("fig5", params, controls)
        ensembles = [run_ensemble(SimParams(q=q, t_max=120, seed=13), 3)
                     for q in TC_Q_GRID]
        rows = (tmp_path / "fig5_tc_curve.csv").read_text().splitlines()[1:]
        assert rows == [
            ",".join(format(x, ".12g") for x in
                     (q, st.tc_mean, st.tc_sd, st.fraction_reached))
            for q, st in zip(TC_Q_GRID, ensembles)]
        notes = [line for line in
                 (tmp_path / "fig5_metadata.txt").read_text().splitlines()
                 if line.startswith("# tc_of_mean")]
        assert notes == [
            f"# tc_of_mean[q={q:g}]="
            f"{'none' if st.tc_of_mean is None else st.tc_of_mean}"
            for q, st in zip(TC_Q_GRID, ensembles)]
        assert result.max_renorm_error == max(
            st.max_renorm_error for st in ensembles)


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

    def test_trajectories_beyond_memory_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--sigma", "0", "--tmax", "10000000000000",
                     "--replicas", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: replicas=1 and tmax=10000000000000"
                              " need 521,540.6 GiB of trajectories")
        assert err.count("\n") == 1
        assert not out.exists()

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
        import techmarket.ensemble as ens

        workers = []

        class RecordedPool(ens.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(ens, "ProcessPoolExecutor", RecordedPool)
        assert main(["--tmax", "5", "--replicas", "2", "--jobs", "4",
                     "--out", str(tmp_path)]) == 0
        assert workers == [2]
        assert multiprocessing.active_children() == []

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

        def drift(params, seed, events=None, start=None):
            raise IntegrityError("normalization error 0.5 exceeds tolerance")

        monkeypatch.setattr(ens, "run_replica", drift)
        code = main(["--tmax", "5", "--replicas", "1", "--seed", "3",
                     "--out", str(tmp_path)])
        seed = ens.replica_seeds(3, 1)[0]
        assert code == 2
        assert f"replica seed {seed}" in capsys.readouterr().err
