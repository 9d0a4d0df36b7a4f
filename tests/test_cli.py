"""Unit tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import ARTIFACTS, build_parser, main


class TestParser:
    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.epochs == 20
        assert args.seed == 0

    def test_reproduce_requires_known_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "table99"])

    def test_all_artifacts_parse(self):
        parser = build_parser()
        for artifact in ARTIFACTS:
            args = parser.parse_args(["reproduce", artifact])
            assert args.artifact == artifact

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_runtime_defaults(self):
        args = build_parser().parse_args(["runtime"])
        assert args.replicas == 3
        assert args.dispatch == "least-loaded"
        assert args.crash_time is None
        assert not args.no_faults
        assert args.json is None

    def test_runtime_dispatch_choices(self):
        args = build_parser().parse_args(
            ["runtime", "--dispatch", "power-of-two"])
        assert args.dispatch == "power-of-two"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runtime", "--dispatch", "random"])

    def test_runtime_trace_option(self):
        args = build_parser().parse_args(["runtime"])
        assert args.trace is None
        args = build_parser().parse_args(["runtime", "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"

    def test_obs_summarize_parses(self):
        args = build_parser().parse_args(["obs", "summarize", "t.jsonl"])
        assert args.obs_command == "summarize"
        assert args.trace == ["t.jsonl"]
        assert args.top == 15
        args = build_parser().parse_args(
            ["obs", "summarize", "t.jsonl", "--top", "3"])
        assert args.top == 3
        args = build_parser().parse_args(
            ["obs", "summarize", "a.jsonl", "b.jsonl"])
        assert args.trace == ["a.jsonl", "b.jsonl"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "summarize"])

    def test_diagnose_parses(self):
        args = build_parser().parse_args(["diagnose"])
        assert args.command == "diagnose"
        assert args.epochs == 6 and args.seed == 0
        assert args.rates is None and args.slices == 4
        assert args.json is None and args.trace is None
        args = build_parser().parse_args(
            ["diagnose", "--rates", "0.25", "1.0", "--slices", "2",
             "--json", "d.json", "--trace", "d.jsonl"])
        assert args.rates == [0.25, 1.0]
        assert args.slices == 2
        assert args.json == "d.json" and args.trace == "d.jsonl"


class TestCommands:
    def test_info_prints_protocols(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "image experiment protocol" in out
        assert "vocab_size" in out

    def test_demo_trains_and_reports(self, capsys):
        assert main(["demo", "--epochs", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Subnet-1.0" in out
        assert "accuracy" in out

    def test_serve_demo_reports_policies(self, capsys):
        assert main(["serve-demo", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "model slicing" in out
        assert "fixed full" in out

    def test_runtime_reports_policies_and_writes_json(self, capsys,
                                                      tmp_path):
        path = tmp_path / "telemetry.json"
        assert main(["runtime", "--duration", "10", "--base-rate", "50",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "model slicing" in out
        assert "fixed full" in out
        assert "good*acc" in out
        telemetry = json.loads(path.read_text())
        assert set(telemetry["latency"]) == {"p50", "p95", "p99"}
        assert telemetry["total_requests"] == len(telemetry["traces"])

    def test_runtime_no_faults_has_no_retries(self, capsys):
        assert main(["runtime", "--duration", "10", "--base-rate", "50",
                     "--no-faults"]) == 0
        out = capsys.readouterr().out
        assert "faults=none" in out

    def test_runtime_trace_then_obs_summarize(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["runtime", "--duration", "5", "--base-rate", "50",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert trace.exists()
        assert main(["obs", "summarize", str(trace), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "runtime.request" in out
        assert "metrics snapshot" in out
        assert "runtime_requests_total" in out

    @pytest.mark.parametrize("mode", [
        [], ["--model", "tenc"], ["--cascade"],
        ["--cascade", "--model", "tenc"], ["--workers", "2"],
        ["--cascade", "--workers", "2"],
    ], ids=["plain", "tenc", "cascade", "cascade-tenc", "workers",
            "cascade-workers"])
    def test_runtime_mode_is_deterministic(self, capsys, tmp_path, mode):
        elastic = "cascade" if "--cascade" in mode else "model slicing"
        reports = []
        for run in range(2):
            path = tmp_path / f"run{run}.json"
            assert main(["runtime", "--duration", "3", "--cascade-epochs",
                         "1", "--json", str(path), *mode]) == 0
            out = capsys.readouterr().out
            for policy in (elastic, "fixed full", "fixed small"):
                assert policy in out
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_cascade_workers_report_per_worker_and_trace_glob(
            self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["runtime", "--cascade", "--workers", "2", "--duration",
                     "3", "--cascade-epochs", "1", "--trace",
                     str(trace)]) == 0
        out = capsys.readouterr().out
        block = out.split("requests served per worker process:\n")[1]
        for policy in ("cascade", "fixed full", "fixed small"):
            assert re.search(rf"^  {policy} +w0=\d+ w1=\d+$", block,
                             re.MULTILINE), policy
        assert (f"observability traces written to {trace}* "
                f"(merge with: repro obs summarize '{trace}*')") in out
        assert len(list(tmp_path.glob("trace.jsonl.*.w*.jsonl"))) == 6

    def test_obs_summarize_missing_file_fails_cleanly(self, capsys,
                                                      tmp_path):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot summarize" in capsys.readouterr().err

    def test_obs_summarize_merges_multiple_traces(self, capsys, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for trace in (first, second):
            assert main(["runtime", "--duration", "5", "--base-rate", "50",
                         "--trace", str(trace)]) == 0
            capsys.readouterr()
        assert main(["obs", "summarize", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "2 traces" in out
        assert "runtime_requests_total" in out
        # glob expansion reaches both files too
        assert main(["obs", "summarize", str(tmp_path / "*.jsonl")]) == 0
        assert "2 traces" in capsys.readouterr().out

    def test_diagnose_runs_and_is_deterministic(self, capsys, tmp_path):
        args = ["diagnose", "--epochs", "2", "--slices", "2",
                "--json", str(tmp_path / "d.json"),
                "--trace", str(tmp_path / "d.jsonl")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "error slices (worst first)" in out
        assert "layer attribution" in out
        first_json = (tmp_path / "d.json").read_bytes()
        first_trace = (tmp_path / "d.jsonl").read_bytes()
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "d.json").read_bytes() == first_json
        assert (tmp_path / "d.jsonl").read_bytes() == first_trace

    def test_artifact_table_registry_is_consistent(self):
        import importlib
        for artifact, (module_name, func_name) in ARTIFACTS.items():
            module = importlib.import_module(
                f"repro.experiments.{module_name}")
            assert hasattr(module, func_name), artifact


class TestSizingCommand:
    FAST = ["sizing", "--forecast", "diurnal:base=8000,duration=21600",
            "--window", "600"]

    def test_sizing_defaults_parse(self):
        args = build_parser().parse_args(["sizing"])
        assert args.forecast.startswith("diurnal")
        assert args.slo_p95 == 100.0
        assert args.accuracy_floor == 0.9
        assert args.ha_spares == 1
        assert not args.no_simulate

    def test_sizing_emits_plan_and_simulation(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "Elastic fleet plan" in out
        assert "Fixed-rate fleets" in out
        assert "Autoscaling simulation" in out
        assert "elastic" in out

    def test_sizing_report_is_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(self.FAST + ["--json", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_text() == paths[1].read_text()
        payload = json.loads(paths[0].read_text())
        assert payload["plan"]["best_fixed"] is not None
        assert payload["simulations"][0]["meets_slo"] is True

    def test_sizing_no_simulate_skips_sim(self, capsys):
        assert main(self.FAST + ["--no-simulate"]) == 0
        assert "Autoscaling simulation" not in capsys.readouterr().out

    def test_sizing_rejects_bad_forecast(self, capsys):
        assert main(["sizing", "--forecast", "nope:x=1"]) == 2
        assert "unknown forecast" in capsys.readouterr().err

    def test_sizing_rejects_unreachable_floor(self, capsys):
        assert main(self.FAST + ["--accuracy-floor", "0.999"]) == 2
        assert "accuracy floor" in capsys.readouterr().err

    def test_profile_search_reports_memory(self, capsys):
        assert main(["profile", "search", "--model", "mlp"]) == 0
        out = capsys.readouterr().out
        assert "peak activations" in out
