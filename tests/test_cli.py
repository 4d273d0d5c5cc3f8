"""Tests for the repro-hfi command-line interface."""

import json

import pytest

from repro.cli import main
from repro.cpu import machine, timing
from repro.cpu.machine import default_engine


class TestCli:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "sieve" in out and "445.gobmk" in out
        assert "sightglass" in out and "spec2006" in out

    def test_run_workload(self, capsys):
        assert main(["run", "fib2", "--strategy", "hfi"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "hlt" in out

    def test_run_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "does-not-exist"])

    def test_run_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["run", "fib2", "--strategy", "magic"])

    def test_compare(self, capsys):
        rc = main(["compare", "minicsv",
                   "--strategies", "guard-pages,hfi"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "guard-pages" in out and "hfi" in out
        assert "100.0%" in out

    def test_attack_pht_leaks_without_hfi(self, capsys):
        assert main(["attack", "pht"]) == 1       # leak => nonzero
        assert "LEAKED 'I'" in capsys.readouterr().out

    def test_attack_pht_blocked_with_hfi(self, capsys):
        assert main(["attack", "pht", "--hfi"]) == 0
        assert "no leak" in capsys.readouterr().out

    def test_attack_btb(self, capsys):
        assert main(["attack", "btb", "--secret", "Z"]) == 1
        assert "LEAKED 'Z'" in capsys.readouterr().out

    def test_nginx_table(self, capsys):
        assert main(["nginx"]) == 0
        out = capsys.readouterr().out
        assert "128kb" in out and "HFI overhead" in out

    def test_heap_growth(self, capsys):
        assert main(["heap-growth", "--gib", "1"]) == 0
        out = capsys.readouterr().out
        assert "hfi_set_region" in out and "mprotect" in out

    def test_attack_rsb(self, capsys):
        assert main(["attack", "rsb"]) == 1
        assert "LEAKED" in capsys.readouterr().out

    def test_chain(self, capsys):
        assert main(["chain", "--functions", "3"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out and "advantage" in out

    def test_startup(self, capsys):
        assert main(["startup"]) == 0
        out = capsys.readouterr().out
        assert "container" in out and "wasm-instance-pooled" in out

    def test_chaos_soak_clean(self, capsys):
        assert main(["chaos", "--seeds", "3", "--requests", "60"]) == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out
        assert "unaccounted:       0" in out
        assert "leaked slots:      0" in out
        assert "zombie sandboxes:  0" in out
        assert "goodput retained:" in out

    def test_chaos_json_payload(self, capsys):
        import json
        assert main(["chaos", "--seeds", "2", "--requests", "40",
                     "--json", "--no-baseline"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["runs"] == 2
        assert payload["unaccounted"] == 0
        assert payload["goodput_retained"] is None  # --no-baseline
        assert "seeds" not in payload               # not --verbose

    def test_chaos_rejects_bad_rate(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--fault-rate", "1.5"])

    def test_serve_json_accounts_every_request(self, capsys):
        import json
        assert main(["serve", "--requests", "300", "--load", "1.3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["schemes"]) == {"hfi", "guard-pages", "mpk"}
        assert all(run["accounted"] for run in payload["schemes"].values())
        assert payload["config"]["requests"] == 300

    def test_serve_takes_no_engine_flags(self):
        # the serving path prices costs and never runs the CPU
        with pytest.raises(SystemExit):
            main(["serve", "--engine", "blocks"])


class TestEngineFlags:
    @staticmethod
    def run_json(capsys, *flags):
        assert main(["run", "fib2", "--json", *flags]) == 0
        return json.loads(capsys.readouterr().out)

    def test_run_uses_the_process_defaults(self, capsys):
        payload = self.run_json(capsys)
        assert payload["engine"] == machine.DEFAULT_ENGINE == "blocks"
        assert payload["timing"] == timing.DEFAULT_TIMING == "inorder"

    def test_flag_defaults_follow_the_process_default(self, capsys):
        with default_engine("staged"):
            assert self.run_json(capsys)["engine"] == "staged"
            with pytest.raises(SystemExit):
                main(["run", "--help"])
        assert "(default: staged)" in capsys.readouterr().out

    @pytest.mark.parametrize("engine, timing_model, executed", [
        ("blocks", "inorder", "blocks"),
        ("blocks", "ooo", "blocks"),
        ("staged", "inorder", "staged"),
        ("staged", "ooo", "staged"),
    ])
    def test_run_reports_the_engine_that_executed(
            self, capsys, engine, timing_model, executed):
        payload = self.run_json(capsys, "--engine", engine,
                                "--timing", timing_model)
        assert payload["engine"] == executed
        assert payload["timing"] == timing_model
        assert main(["run", "fib2", "--engine", engine,
                     "--timing", timing_model]) == 0
        assert f"engine:       {executed}\n" in capsys.readouterr().out
