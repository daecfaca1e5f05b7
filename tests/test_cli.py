"""Tests for the command-line experiment runner."""

import json

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "zz"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "e6"]) == 0
        out = capsys.readouterr().out
        assert "E6" in out
        assert "reduction" in out
        assert "run report: e6" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "e2", "e14"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out and "E14" in out

    def test_registry_covers_every_benchmark_experiment(self):
        # one CLI entry per experiment id of DESIGN.md, plus r1
        expected = {"f1", "f2", "r1"} | {f"e{i}" for i in range(1, 18)}
        assert set(EXPERIMENTS) == expected

    def test_experiments_dict_entries_are_claim_runner_pairs(self):
        claim, runner = EXPERIMENTS["e6"]
        assert "adaptation" in claim
        assert callable(runner)

    def test_ids_are_case_insensitive(self, capsys):
        assert main(["run", "E6"]) == 0
        assert "E6" in capsys.readouterr().out

    def test_run_json_is_machine_readable(self, capsys):
        assert main(["run", "e6", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["id"] == "e6"
        assert document["metrics"]["energy_reduction"] > 0
        assert document["report"]["seed"] == 0
        titles = [t["title"] for t in document["tables"]]
        assert any("transceiver" in t for t in titles)

    def test_run_json_multiple_keyed_by_id(self, capsys):
        assert main(["run", "e6", "e14", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"e6", "e14"}
        assert document["e14"]["metrics"]["oracle_saving"] > 0.3

    def test_run_seed_changes_report(self, capsys):
        assert main(["run", "e14", "--seed", "3", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["report"]["seed"] == 3

    def test_run_out_writes_json_files(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["run", "e6", "--out", str(out), "--json"]) == 0
        document = json.loads((out / "e6.json").read_text())
        assert document["id"] == "e6"

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "f1.trace.jsonl"
        assert main(["trace", "f1", "--out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        lines = trace_path.read_text().strip().splitlines()
        assert lines
        event = json.loads(lines[0])
        assert {"t", "kind", "name"} <= set(event)

    def test_report_subcommand(self, capsys):
        assert main(["report", "e6"]) == 0
        out = capsys.readouterr().out
        assert "run report: e6" in out
        assert "energy_reduction" in out

    @pytest.mark.parametrize("exp_id", ["f2", "e5", "e13"])
    def test_selected_runners_produce_tables(self, exp_id, capsys):
        assert main(["run", exp_id]) == 0
        assert "===" in capsys.readouterr().out

    def test_run_json_surfaces_kernel_counters(self, capsys):
        assert main(["run", "f1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        kernel = document["kernel"]
        assert kernel["events_executed"] > 0
        assert kernel["events_scheduled"] >= kernel["events_executed"]
        assert kernel["environments"] >= 1
        assert kernel["peak_heap_depth"] >= 1
        # events_per_sec is wall-clock derived and rides beside the
        # deterministic payload, never inside it.
        assert "kernel" not in document["report"]
        assert "events_per_sec" in kernel

    def test_run_probe_records_timeseries(self, capsys):
        assert main(["run", "r1", "--probe", "0.5", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        stats = document["report"]["stats"]
        series = [key for key, entry in stats.items()
                  if entry.get("kind") == "timeseries"]
        assert any(key.startswith("probe_kernel_") for key in series)
        assert any(key.startswith("r1_qos") for key in series)

    def test_run_slo_verdict_in_report(self, capsys):
        assert main(["run", "f1", "--slo",
                     "probe_kernel_events_executed{env=0}:max <= 1e12",
                     "--probe", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        slo = document["report"]["slo"]
        assert slo["ok"] is True
        assert slo["breaches"] == []
        assert len(slo["specs"]) == 1

    def test_run_slo_strict_breach_exits_3(self, capsys):
        assert main(["run", "f1", "--probe", "--slo",
                     "probe_kernel_events_executed{env=0}:max <= 0",
                     "--slo-strict"]) == 3
        captured = capsys.readouterr()
        assert "SLO breached" in captured.err

    def test_run_invalid_slo_is_usage_error(self, capsys):
        assert main(["run", "e14", "--slo", "no operator"]) == 2
        assert "operator" in capsys.readouterr().err

    def test_run_live_requires_replicas(self, capsys):
        assert main(["run", "e14", "--live"]) == 2
        assert "--replicas" in capsys.readouterr().err


class TestReportRendering:
    def test_report_html_from_experiment(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(["report", "e14", "--probe",
                     "--html", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        page = out.read_text(encoding="utf-8")
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page
        assert "e14" in page

    def test_report_html_from_json_file(self, tmp_path, capsys):
        source = tmp_path / "run.json"
        assert main(["run", "r1", "--probe", "--out",
                     str(tmp_path), "--json"]) == 0
        capsys.readouterr()
        source = tmp_path / "r1.json"
        out = tmp_path / "dash.html"
        assert main(["report", str(source), "--html", str(out)]) == 0
        capsys.readouterr()
        assert "repro run: r1" in out.read_text(encoding="utf-8")

    def test_report_html_needs_exactly_one_input(self, tmp_path,
                                                 capsys):
        out = tmp_path / "dash.html"
        assert main(["report", "e6", "e14", "--html", str(out)]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestCheckCommand:
    def test_check_repo_is_clean_strict(self, capsys):
        assert main(["check", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_check_json_document_shape(self, capsys):
        assert main(["check", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 2
        assert set(document["counts"]) == {"error", "warning", "info"}
        assert document["diagnostics"] == []

    def test_check_lint_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["check", "--lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SL202" in out

    def test_check_strict_fails_on_warnings(self, tmp_path, capsys):
        warn_only = tmp_path / "warn.py"
        warn_only.write_text("def f(x=[]):\n    return x\n")
        assert main(["check", "--lint", str(warn_only)]) == 0
        assert main(["check", "--lint", "--strict",
                     str(warn_only)]) == 1
        capsys.readouterr()

    def test_check_out_writes_diagnostics_file(self, tmp_path,
                                               capsys):
        out_file = tmp_path / "reports" / "check.json"
        assert main(["check", "--out", str(out_file)]) == 0
        capsys.readouterr()
        document = json.loads(out_file.read_text())
        assert document["version"] == 2

    def test_check_missing_path_is_usage_error(self, capsys):
        assert main(["check", "--lint", "does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_check_flow_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def proc(env):\n"
            "    ev = env.timeout(1)\n"
            "    ev = env.timeout(2)\n"
            "    yield ev\n")
        assert main(["check", "--flow", str(bad)]) == 1
        assert "SF301" in capsys.readouterr().out

    def test_check_flow_only_skips_other_layers(self, tmp_path,
                                                capsys):
        # SL202 (a Layer-2 rule) must not fire under --flow alone.
        clock = tmp_path / "clock.py"
        clock.write_text("import time\nt = time.time()\n")
        assert main(["check", "--flow", str(clock)]) == 0
        capsys.readouterr()

    def test_check_json_finding_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["check", "--lint", "--json", str(bad)]) == 1
        document = json.loads(capsys.readouterr().out)
        entry = document["diagnostics"][0]
        assert entry["rule"] == "SL202"
        assert sorted(entry) == ["fix_hint", "line", "message",
                                 "rule", "severity", "subject"]


class TestBenchCommand:
    def test_bench_writes_valid_document(self, tmp_path, capsys):
        from repro.obs import perf

        out = tmp_path / "BENCH_perf.json"
        assert main(["bench", "e16", "--repeat", "2",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "e16" in captured.out  # summary table
        document = perf.load_document(out)
        assert perf.validate_document(document) == []
        assert document["meta"]["ids"] == ["e16"]

    def test_bench_unknown_id_is_usage_error(self, capsys):
        assert main(["bench", "zz"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_bench_without_ids_or_compare_is_usage_error(self,
                                                         capsys):
        assert main(["bench"]) == 2
        assert "--compare" in capsys.readouterr().err

    def test_compare_against_itself_exits_zero(self, tmp_path,
                                               capsys):
        out = tmp_path / "b.json"
        assert main(["bench", "e16", "--repeat", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bench", "--out", str(out),
                     "--compare", str(out)]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_compare_flags_regression_with_exit_1(self, tmp_path,
                                                  capsys):
        import json

        from repro.obs import perf

        out = tmp_path / "b.json"
        assert main(["bench", "e16", "--repeat", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        # Synthesize a 2x-faster baseline: current must regress.
        fast = perf.load_document(out)
        for record in fast["experiments"]:
            timing = record["wall_seconds"]
            for key in ("samples", "median", "mean", "min", "max"):
                value = timing[key]
                timing[key] = ([v / 2 for v in value]
                               if isinstance(value, list)
                               else value / 2)
        baseline = tmp_path / "fast.json"
        baseline.write_text(json.dumps(fast), encoding="utf-8")
        assert main(["bench", "--out", str(out),
                     "--compare", str(baseline),
                     "--threshold", "25"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "REGRESSION" in captured.err

    def test_compare_missing_current_document(self, tmp_path,
                                              capsys):
        missing = tmp_path / "nope.json"
        assert main(["bench", "--out", str(missing),
                     "--compare", str(missing)]) == 2
        assert "no current document" in capsys.readouterr().err

    def test_compare_invalid_baseline(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["bench", "e16", "--repeat", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["bench", "--out", str(out),
                     "--compare", str(bad)]) == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_profile_writes_collapsed_stacks(self, tmp_path, capsys):
        assert main(["bench", "e16", "--repeat", "1", "--profile",
                     "--profile-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hotspots" in out
        collapsed = tmp_path / "e16.collapsed.txt"
        assert collapsed.is_file()
        for line in collapsed.read_text(
                encoding="utf-8").strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0 and stack

    def test_profile_cprofile_mode_reports_calls(self, tmp_path,
                                                 capsys):
        assert main(["bench", "e16", "--repeat", "1", "--profile",
                     "--profile-mode", "cprofile",
                     "--profile-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[cprofile]" in out
        assert "wall time by simulated process" in out
