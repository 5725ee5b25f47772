"""Tests for the reproduce CLI."""

import json
import re

import pytest

from repro.tools.reproduce import EXPERIMENTS, main


class TestReproduceCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["figZ"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bench_gate_is_gone(self, capsys):
        """Perf regressions are judged by ``perfbench/`` alone."""
        assert main(["bench-gate"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_small_experiment(self, capsys):
        assert main(["sec65", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "log size" in out
        assert "B/request" in out

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "user-noisy" in out and "kernel-quiet" in out

    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {"fig2", "fig3", "table2", "fig6",
                                    "fig7", "sec65", "fig8", "chaos",
                                    "trace", "fleet", "audit", "serve",
                                    "fleet-audit", "exec"}

    def test_exec_clean(self, capsys):
        assert main(["exec", "--scenario", "pipeline"]) == 0
        out = capsys.readouterr().out
        assert "accounting exact" in out
        assert "consistent (no timing deviation)" in out

    def test_exec_covert_flagged(self, capsys):
        assert main(["exec", "--scenario", "sched",
                     "--covert", "sched"]) == 1
        out = capsys.readouterr().out
        assert "FLAGGED" in out

    def test_exec_usage_errors(self, capsys):
        assert main(["exec", "--scenario", "nope"]) == 2
        assert main(["exec", "--covert", "ipctc"]) == 2
        assert main(["exec", "--slo", "frobs=1"]) == 2

    def test_chaos_quick(self, capsys):
        # Severity 1 injects tamper/corruption faults, so the exit-code
        # contract requires a non-zero status alongside the matrix.
        assert main(["chaos", "--requests", "4", "--severities", "1",
                     "--chaos-seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "Chaos matrix" in out
        assert "tamper-detected" in out
        assert "transfer drop=0.9" in out

    @pytest.mark.parametrize("experiment,needle", [
        ("fig3", "naive replay"),
        ("table2", "SciMark"),
        ("fig6", "timing stability"),
        ("fig7", "replay accuracy"),
        ("fig8", "AUC"),
    ])
    def test_each_experiment_smokes(self, capsys, experiment, needle):
        assert main([experiment, "--runs", "2", "--requests", "3"]) == 0
        assert needle in capsys.readouterr().out

    def test_trace_quick(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "--requests", "3",
                     "--trace-out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "accounting exact" in out
        assert "Table 1: fully mitigated" in out
        assert "sampled opcode profile" in out
        assert out_file.exists()
        trace = json.loads(out_file.read_text())
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert {"B", "E"} <= phases       # balanced spans present
        assert all("ts" in e or e["ph"] == "M" for e in events)


class TestExitCodeContract:
    """Every verdict-bearing subcommand: zero iff nothing was flagged."""

    def test_audit_clean_exits_zero(self, capsys):
        assert main(["audit", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "classification: clean" in out
        assert "verdict: clean" in out

    def test_audit_covert_exits_nonzero(self, capsys):
        assert main(["audit", "--requests", "4",
                     "--covert", "ipctc"]) == 1
        out = capsys.readouterr().out
        assert "covert channel 'ipctc' active" in out
        assert "FLAGGED -> non-zero exit" in out

    def test_audit_tamper_exits_nonzero(self, capsys):
        assert main(["audit", "--requests", "4", "--tamper"]) == 1
        out = capsys.readouterr().out
        assert "log tampered in transit" in out
        assert "classification: tamper-detected" in out

    def test_chaos_severity_zero_exits_zero(self, capsys):
        assert main(["chaos", "--requests", "4", "--severities", "0",
                     "--chaos-seed", "7"]) == 0
        assert "0/" in capsys.readouterr().out

    def test_serve_flags_the_covert_tenant(self, capsys):
        assert main(["serve", "--tenants", "3", "--epochs", "2",
                     "--requests", "4"]) == 1
        out = capsys.readouterr().out
        assert "FLAGGED covert-timing" in out
        assert "tenant-01" in out
        assert "flagged tenants -> non-zero exit" in out

    def test_serve_all_clean_exits_zero(self, capsys):
        # A single-tenant roster has no covert slot.
        assert main(["serve", "--tenants", "1", "--epochs", "1",
                     "--requests", "4"]) == 0
        assert "flagged: none" in capsys.readouterr().out

    def test_serve_store_persists_a_service_run(self, tmp_path, capsys):
        assert main(["serve", "--tenants", "3", "--epochs", "1",
                     "--requests", "4", "--store", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        match = re.search(r"\[stored (\S+) in ", out)
        assert match, out
        assert main(["runs", "list", "--store", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert match.group(1) in listing
        assert "fleet-audit" in listing

    @staticmethod
    def _tenant_table(out):
        return [line for line in out.splitlines()
                if re.match(r"^  tenant(-\d+)? ", line)]

    def test_serve_is_a_one_node_fleet_audit(self, capsys):
        flags = ["--tenants", "3", "--epochs", "1", "--requests", "4"]
        serve_status = main(["serve"] + flags)
        serve = self._tenant_table(capsys.readouterr().out)
        fleet_status = main(["fleet-audit", "--nodes", "1"] + flags)
        fleet = self._tenant_table(capsys.readouterr().out)
        assert serve_status == fleet_status
        assert len(serve) == 4 and serve[0].split()[-2:] == ["anom", "degr"]
        assert serve == fleet


class TestRunStoreCli:
    """--store persistence plus the runs/report subcommands.

    The acceptance bar: a persisted run, re-rendered through ``runs
    show`` or ``report``, reproduces the exact numbers the experiment
    printed at run time — same format strings, same values, verbatim.
    """

    def _fig6(self, tmp_path, capsys):
        assert main(["fig6", "--runs", "2", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        match = re.search(r"\[stored (\S+) in ", out)
        assert match, out
        return out, match.group(1)

    @staticmethod
    def _fig6_table(out):
        return [line for line in out.splitlines()
                if re.match(r"^  (kernel|SOR|SMM|MC|LU|FFT)\b", line)]

    def test_store_flag_persists_and_lists(self, tmp_path, capsys):
        _, run_id = self._fig6(tmp_path, capsys)
        assert (tmp_path / run_id / "manifest.json").exists()
        assert main(["runs", "list", "--store", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert run_id in listing
        assert "fig6" in listing

    def test_show_reproduces_runtime_fig6_numbers(self, tmp_path, capsys):
        out, run_id = self._fig6(tmp_path, capsys)
        table = self._fig6_table(out)
        assert len(table) == 6                  # header + five kernels
        assert main(["runs", "show", run_id,
                     "--store", str(tmp_path)]) == 0
        shown = capsys.readouterr().out
        for line in table:
            assert line in shown

    def test_show_reproduces_trace_attribution_tables(self, tmp_path,
                                                      capsys):
        assert main(["trace", "--requests", "3",
                     "--store", str(tmp_path),
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        run_id = re.search(r"\[stored (\S+) in ", out).group(1)
        tables = re.findall(
            r"(?m)^\w[^\n]*\([^\n]*cycles\):\n(?:^  [^\n]*\n)*?"
            r"^  \(accounting [^\n]*\)$", out)
        assert len(tables) == 3          # play, replay, clean-room play
        assert main(["runs", "show", run_id,
                     "--store", str(tmp_path)]) == 0
        shown = capsys.readouterr().out
        for table in tables:
            assert table in shown

    def test_report_reprints_numbers_and_writes_html(self, tmp_path,
                                                     capsys):
        out, run_id = self._fig6(tmp_path, capsys)
        html_path = tmp_path / "report.html"
        assert main(["report", run_id, "--store", str(tmp_path),
                     "--out", str(html_path)]) == 0
        report_out = capsys.readouterr().out
        for line in self._fig6_table(out):
            assert line in report_out
        assert f"wrote {html_path}" in report_out
        document = html_path.read_text()
        for value in re.findall(r"\d+\.\d{3}(?=%)", out):
            assert f"{value}%" in document

    def test_report_latest_dedups_explicit_ref(self, tmp_path, capsys):
        _, run_id = self._fig6(tmp_path, capsys)
        html_path = tmp_path / "report.html"
        assert main(["report", run_id, "--latest", "3",
                     "--store", str(tmp_path),
                     "--out", str(html_path)]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_runs_prune_via_cli(self, tmp_path, capsys):
        from repro.obs.runstore import RunRecord, RunStore

        store = RunStore(tmp_path)
        for i in range(3):
            store.save(RunRecord(kind="unit", label=f"run {i}"))
        assert main(["runs", "prune", "--keep", "1",
                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 run(s), kept 1" in out
        assert len(store) == 1

    def test_runs_show_unknown_ref(self, tmp_path, capsys):
        assert main(["runs", "show", "nope-404",
                     "--store", str(tmp_path)]) == 2
        assert "no run" in capsys.readouterr().err

    def test_report_without_refs(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path)]) == 2
        assert "needs run ids" in capsys.readouterr().err
