"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.amt.des import Simulator
from repro.cli import build_parser, main
from repro.experiments import SCHEMA, read_records, scenario_names


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.nx == 64
        assert args.eps_factor == 8.0

    def test_partition_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--method", "magic"])


class TestCommands:
    def test_solve(self, capsys):
        rc = main(["solve", "--nx", "16", "--eps-factor", "2",
                   "--steps", "3", "--source", "discrete"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total error" in out

    def test_validate_small(self, capsys):
        rc = main(["validate", "--max-exponent", "4", "--steps", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "monotone decrease: yes" in out

    def test_scale(self, capsys):
        rc = main(["scale", "--mesh", "64", "--sds", "4",
                   "--max-nodes", "4", "--steps", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out

    def test_balance(self, capsys):
        rc = main(["balance", "--sds", "5", "--nodes", "4",
                   "--iterations", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final SDs per node" in out
        assert "iter 0" in out

    @pytest.mark.parametrize("method", ["multilevel", "blocks", "strips",
                                        "rcb", "spectral"])
    def test_partition_all_methods(self, capsys, method):
        rc = main(["partition", "--sds", "8", "--nodes", "4",
                   "--method", method])
        out = capsys.readouterr().out
        assert rc == 0
        assert "edge cut" in out


class TestOutOfRangeFlags:
    """A flag value the command cannot run with is a usage error —
    ``<cmd>: <message>`` on stderr, exit 2 — not a traceback, and not a
    sweep over zero points that reports success."""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--nx", "0"], "solve: mesh must be at least 1x1"),
        (["solve", "--steps", "-1"], "solve: num_steps must be >= 0"),
        (["solve", "--eps-factor", "0"], "solve: eps_factor must be positive"),
        (["solve", "--eps-factor", "-2"],
         "solve: eps_factor must be positive"),
        (["scale", "--mesh", "0"], "scale: mesh must be at least 1x1"),
        (["scale", "--steps", "-1"], "scale: num_steps must be >= 0"),
        (["scale", "--seed", "-1"], "scale: seed must be >= 0"),
        (["scale", "--sds", "0"],
         "scale: --max-nodes 8 with --sds 0 leaves no node count"),
        (["scale", "--max-nodes", "0"],
         "scale: --max-nodes 0 with --sds 8 leaves no node count"),
        (["balance", "--sds", "0"], "balance: mesh must be at least 1x1"),
        (["balance", "--nodes", "0"], "balance: num_nodes must be >= 1"),
        (["balance", "--iterations", "-1"],
         "balance: num_steps must be >= 0"),
        (["partition", "--sds", "0"], "partition: grid must be at least 1x1"),
        (["partition", "--nodes", "0"], "partition: k must be >= 1"),
        (["partition", "--seed", "-1"], "partition: seed must be >= 0"),
        (["validate", "--steps", "-1"], "validate: num_steps must be >= 0"),
        (["validate", "--max-exponent", "1"],
         "validate: --max-exponent must be >= 3"),
        (["validate", "--max-exponent", "2"],
         "validate: --max-exponent must be >= 3"),
    ])
    def test_usage_error(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestRunCommand:
    def test_list_scenarios(self, capsys):
        rc = main(["run", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in scenario_names():
            assert name in out

    def test_run_scenario_with_json(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "fig14_load_balance",
                   "--steps", "2", "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "virtual makespan" in out
        records = read_records(str(path))
        assert len(records) == 1
        assert records[0].scenario == "fig14_load_balance"
        assert records[0].num_steps == 2

    def test_run_requires_scenario(self, capsys):
        assert main(["run"]) == 2

    def test_run_unknown_scenario(self, capsys):
        assert main(["run", "--scenario", "fig99_imaginary"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--steps", "-1"], "num_steps must be >= 0"),
        (["--seed", "-3"], "seed must be >= 0"),
    ])
    def test_run_out_of_range_flag_is_a_usage_error(self, capsys, argv,
                                                    message):
        """Regression: a value the spec rejects ended in a traceback."""
        assert main(["run", "--scenario", "quickstart"] + argv) == 2
        assert capsys.readouterr().err.startswith(f"run: {message}")

    def test_run_with_backend_override(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "quickstart", "--steps", "1",
                   "--backend", "sparse", "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kernel backend: sparse" in out
        records = read_records(str(path))
        assert records[0].spec["kernel_backend"] == "sparse"

    def test_run_default_backend_is_the_scenario_choice(self, capsys,
                                                        tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "fig14_load_balance", "--steps", "1",
                   "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kernel backend" not in out  # auto is not worth a line
        assert read_records(str(path))[0].spec["kernel_backend"] == "auto"

    def test_run_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "quickstart", "--backend", "quantum"])

    def test_solve_accepts_backend(self, capsys):
        rc = main(["solve", "--nx", "16", "--eps-factor", "2",
                   "--steps", "2", "--backend", "fft"])
        assert rc == 0
        assert "total error" in capsys.readouterr().out

    def test_run_with_cost_model_override(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "quickstart", "--steps", "2",
                   "--cost-model", "hierarchy", "--json", str(path)])
        assert rc == 0
        (rec,) = read_records(str(path))
        assert rec.spec["cost_model"] == "hierarchy"
        assert rec.cost_model_resolved == "hierarchy"
        assert rec.makespan > 0

    def test_run_with_balancer_override(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "fig14_load_balance", "--steps", "1",
                   "--balancer", "greedy", "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "balancer: greedy" in out
        (rec,) = read_records(str(path))
        assert rec.spec["policy"]["balancer"] == "greedy"
        assert rec.balancer_resolved == "greedy"

    def test_run_prints_balance_events(self, capsys):
        rc = main(["run", "--scenario", "fig14_load_balance", "--steps", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SDs moved" in out
        assert "imb before" in out  # the balance-events telemetry table

    def test_run_with_topology_override(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        # 16 nodes span 4 racks of the default rack_size=4
        rc = main(["run", "--scenario", "fig13_metis_scaling",
                   "--steps", "1", "--topology", "switched",
                   "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bytes by class" in out
        (rec,) = read_records(str(path))
        assert rec.spec["cluster"]["topology"]["kind"] == "switched"
        assert set(rec.bytes_by_class) <= {"intra_rack", "inter_rack"}
        assert sum(rec.bytes_by_class.values()) == rec.ghost_bytes

    def test_run_topology_scenarios_by_name(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "rack_locality", "--steps", "1",
                   "--json", str(path)])
        assert rc == 0
        assert "bytes by class" in capsys.readouterr().out
        (rec,) = read_records(str(path))
        assert rec.spec["partition"]["placement"] == "rack"

    def test_run_rejects_unknown_topology(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "quickstart", "--topology", "torus"])

    def test_flat_topology_keeps_single_class_output_quiet(self, capsys):
        rc = main(["run", "--scenario", "fig11_strong_distributed",
                   "--steps", "1", "--topology", "flat"])
        out = capsys.readouterr().out
        assert rc == 0
        # one route class: no bytes-by-class line for the flat model
        assert "bytes by class" not in out

    def test_scale_accepts_topology(self, capsys):
        rc = main(["scale", "--mesh", "64", "--sds", "4", "--max-nodes", "2",
                   "--steps", "1", "--topology", "switched"])
        assert rc == 0
        assert "Strong scaling" in capsys.readouterr().out

    FAULTS_JSON = ('{"events": [{"kind": "fail", "time": 1.5e-5, '
                   '"node": 2}], "recovery_penalty": 0.5}')

    def test_run_with_inline_faults(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "fig11_strong_distributed",
                   "--steps", "3", "--faults", self.FAULTS_JSON,
                   "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recovery events" in out       # the new telemetry table
        assert "SDs evacuated" in out
        (rec,) = read_records(str(path))
        faults = rec.spec["cluster"]["faults"]
        assert faults["recovery_penalty"] == 0.5
        assert faults["events"][0]["node"] == 2
        assert rec.recovery_events and rec.recovery_events[0]["kind"] == "fail"
        assert 2 not in rec.final_parts
        assert any(e["recovery"] for e in rec.balance_events)

    def test_run_with_faults_file(self, capsys, tmp_path):
        fpath = tmp_path / "faults.json"
        fpath.write_text(self.FAULTS_JSON)
        rc = main(["run", "--scenario", "fig11_strong_distributed",
                   "--steps", "2", "--faults", str(fpath)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recovery events" in out

    def test_run_rejects_bad_faults(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["run", "--scenario", "fig11_strong_distributed",
                  "--faults", "{broken"])
        with pytest.raises(SystemExit, match="cannot read faults file"):
            main(["run", "--scenario", "fig11_strong_distributed",
                  "--faults", str(tmp_path / "missing.json")])
        # schedule that empties the scenario's 4-node cluster
        empties = ('{"events": [' + ",".join(
            f'{{"kind": "fail", "time": {t}.0, "node": {n}}}'
            for t, n in ((1, 0), (2, 1), (3, 2), (4, 3))) + "]}")
        # malformed shapes: non-object events, a non-list event field,
        # an unknown key, an event missing a required field
        for bad in (empties, '{"events": ["x"]}', '{"events": "x"}',
                    '{"events": [1]}', '{"bogus": 1}',
                    '{"events": [{"kind": "fail", "time": 1.0}]}'):
            with pytest.raises(SystemExit, match="bad fault schedule"):
                main(["run", "--scenario", "fig11_strong_distributed",
                      "--faults", bad])

    def test_run_churn_scenario_prints_recovery_table(self, capsys):
        rc = main(["run", "--scenario", "hetero_churn", "--steps", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recovery events" in out
        assert "recovery bytes" in out
        assert "join" in out

    def test_run_rejects_unknown_balancer(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "fig14_load_balance",
                  "--balancer", "magic"])

    def test_abl_balancers_sweeps_all_strategies(self, capsys, tmp_path):
        from repro.core.strategies import strategy_names
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "abl_balancers", "--steps", "2",
                   "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        for name in strategy_names():
            assert name in out
        records = read_records(str(path))
        assert [r.spec["policy"]["balancer"]
                for r in records] == strategy_names()

    def test_abl_balancers_sweep_honors_backend_override(self, capsys,
                                                         tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "abl_balancers", "--steps", "1",
                   "--backend", "direct", "--json", str(path)])
        assert rc == 0
        records = read_records(str(path))
        assert all(r.spec["kernel_backend"] == "direct" for r in records)

    def test_abl_balancers_pinned_runs_single(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = main(["run", "--scenario", "abl_balancers", "--steps", "2",
                   "--balancer", "diffusion", "--json", str(path)])
        assert rc == 0
        records = read_records(str(path))
        assert len(records) == 1
        assert records[0].balancer_resolved == "diffusion"

    def test_balance_accepts_balancer(self, capsys):
        rc = main(["balance", "--sds", "5", "--nodes", "4",
                   "--iterations", "3", "--balancer", "repartition"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "final SDs per node" in out


class TestJsonOutput:
    def test_solve_json(self, capsys, tmp_path):
        path = tmp_path / "solve.json"
        rc = main(["solve", "--nx", "16", "--eps-factor", "2",
                   "--steps", "2", "--json", str(path)])
        assert rc == 0
        (rec,) = read_records(str(path))
        assert rec.solver == "serial"
        assert rec.total_error is not None

    def test_validate_json(self, capsys, tmp_path):
        path = tmp_path / "validate.json"
        rc = main(["validate", "--max-exponent", "4", "--steps", "2",
                   "--json", str(path)])
        assert rc == 0
        assert len(read_records(str(path))) == 3  # exponents 2..4

    def test_scale_json_and_seed(self, capsys, tmp_path):
        path = tmp_path / "scale.json"
        rc = main(["scale", "--mesh", "64", "--sds", "4", "--max-nodes", "4",
                   "--steps", "2", "--seed", "1", "--json", str(path)])
        assert rc == 0
        records = read_records(str(path))
        assert [r.spec["cluster"]["num_nodes"] for r in records] == [1, 2, 4]
        assert all(r.spec["partition"]["seed"] == 1 for r in records)

    def test_balance_json(self, capsys, tmp_path):
        path = tmp_path / "balance.json"
        rc = main(["balance", "--sds", "5", "--nodes", "4",
                   "--iterations", "3", "--json", str(path)])
        assert rc == 0
        (rec,) = read_records(str(path))
        assert rec.sds_moved > 0

    def test_partition_json(self, capsys, tmp_path):
        path = tmp_path / "part.json"
        rc = main(["partition", "--sds", "8", "--nodes", "4",
                   "--seed", "2", "--json", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        assert len(doc["parts"]) == 64
        assert doc["partition"]["seed"] == 2

    def test_unwritable_json_path_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "solve.json"
        with pytest.raises(SystemExit, match="cannot write"):
            main(["solve", "--nx", "16", "--eps-factor", "2",
                  "--steps", "1", "--json", str(path)])
        assert not path.parent.exists()


class TestServeCommand:
    def test_list_service_scenarios(self, capsys):
        rc = main(["serve", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        names = out.split()
        assert names == sorted(names)
        assert {"service_poisson", "service_bursty", "service_overload",
                "flash_crowd", "diurnal_autoscale"} <= set(names)

    @pytest.mark.parametrize("prior", [None, "0"])
    def test_profile_flag_does_not_leak_into_the_process(
            self, capsys, monkeypatch, prior):
        """Regression: --profile set REPRO_DES_PROFILE and never restored
        it, so every later Simulator() in the process profiled."""
        if prior is None:
            monkeypatch.delenv("REPRO_DES_PROFILE", raising=False)
        else:
            monkeypatch.setenv("REPRO_DES_PROFILE", prior)
        rc = main(["serve", "--horizon", "1e-4", "--profile"])
        assert rc == 0
        assert "DES events processed" in capsys.readouterr().out
        assert os.environ.get("REPRO_DES_PROFILE") == prior
        assert Simulator().profile is None

    def test_serve_default_scenario_with_json(self, capsys, tmp_path):
        path = tmp_path / "svc.json"
        rc = main(["serve", "--horizon", "1e-3", "--json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "goodput" in out
        assert "per-tenant service" in out
        records = read_records(str(path))
        assert len(records) == 1
        rec = records[0]
        assert rec.scenario == "service_poisson"
        assert rec.solver == "service"
        assert rec.service_events
        assert rec.spec["horizon"] == 1e-3

    def test_serve_overload_reports_shedding(self, capsys):
        rc = main(["serve", "--scenario", "service_overload"])
        out = capsys.readouterr().out
        assert rc == 0
        # the overload scenario must actually shed on its default knobs
        import re
        m = re.search(r"(\d+) shed", out)
        assert m and int(m.group(1)) > 0

    def test_serve_overrides_feed_the_spec(self, capsys, tmp_path):
        path = tmp_path / "svc.json"
        rc = main(["serve", "--scenario", "service_poisson",
                   "--rate", "5000", "--seed", "3", "--nodes", "8",
                   "--horizon", "1e-3", "--json", str(path)])
        assert rc == 0
        rec = read_records(str(path))[0]
        assert rec.spec["arrival"]["rate"] == 5000.0
        assert rec.spec["arrival"]["seed"] == 3
        assert rec.spec["cluster"]["num_nodes"] == 8

    def test_serve_unknown_scenario(self, capsys):
        assert main(["serve", "--scenario", "service_imaginary"]) == 2
        assert "service_imaginary" in capsys.readouterr().err

    def test_serve_rejects_non_service_scenario(self, capsys):
        rc = main(["serve", "--scenario", "fig14_load_balance"])
        assert rc == 2
        assert "use 'repro run'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--rate", "-5"], "rate must be >= 0"),
        (["--horizon", "0"], "horizon must be > 0"),
        (["--nodes", "0"], "num_nodes must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
    ])
    def test_serve_out_of_range_flag_is_a_usage_error(self, capsys, argv,
                                                      message):
        """Regression: a value the spec rejects ended in a traceback."""
        assert main(["serve"] + argv) == 2
        assert capsys.readouterr().err.startswith(f"serve: {message}")

    def test_serve_rejects_unsupported_override(self, capsys):
        rc = main(["serve", "--scenario", "fig14_load_balance",
                   "--rate", "100"])
        assert rc == 2
        assert "--rate" in capsys.readouterr().err
