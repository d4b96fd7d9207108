"""Tests for the command-line front end."""

import pytest

from repro.cli import (EXIT_ANALYSIS_ERROR, EXIT_NO_BOUND, EXIT_PARSE_ERROR,
                       build_parser, exit_code_for_statuses, main)

RDWALK_SOURCE = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""

COUNTER_SOURCE = """
proc main(n) {
    assume(n >= 0);
    while (n > 0) {
        cost = cost + 1;
        n = n - 1;
    }
}
"""


NESTED_SOURCE = """
proc main(n) {
    while (n > 0) {
        n = n - 1;
        m = n;
        while (m > 0) { m = m - 1; tick(1); }
    }
}
"""


@pytest.fixture
def rdwalk_file(tmp_path):
    path = tmp_path / "rdwalk.imp"
    path.write_text(RDWALK_SOURCE)
    return str(path)


class TestParserConstruction:
    def test_parser_has_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "prog.imp"])
        assert args.degree == 1
        assert not args.certificate

    @pytest.mark.parametrize("command", ["analyze", "bench", "batch",
                                         "serve"])
    def test_no_retired_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        for flag in ("--solver", "--prefilter", "--domain"):
            assert flag not in usage


class TestAnalyzeCommand:
    def test_analyze_program_file(self, rdwalk_file, capsys):
        exit_code = main(["analyze", rdwalk_file])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "expected cost bound" in output
        assert "|[x, n" in output

    def test_analyze_with_certificate(self, rdwalk_file, capsys):
        exit_code = main(["analyze", rdwalk_file, "--certificate"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "certificate check passed" in output

    def test_analyze_with_counter(self, tmp_path, capsys):
        path = tmp_path / "counter.imp"
        path.write_text(COUNTER_SOURCE)
        exit_code = main(["analyze", str(path), "--counter", "cost"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "|[0, n]|" in output

    def test_analyze_no_bound_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.imp"
        path.write_text("proc main(x) { assume(x >= 1); while (x > 0) { tick(1); } }")
        exit_code = main(["analyze", str(path), "--no-auto-degree"])
        assert exit_code == EXIT_NO_BOUND
        assert "no bound" in capsys.readouterr().out

    def test_analyze_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.imp"
        path.write_text("proc main( {")
        exit_code = main(["analyze", str(path)])
        assert exit_code == EXIT_PARSE_ERROR
        assert "parse error" in capsys.readouterr().err

    def test_analyze_degree_limit_allows_escalation(self, tmp_path, capsys):
        path = tmp_path / "nested.imp"
        path.write_text(NESTED_SOURCE)
        exit_code = main(["analyze", str(path), "--degree", "1",
                          "--degree-limit", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "degree: 2 (attempted [1, 2])" in output

    def test_analyze_degree_limit_caps_escalation(self, tmp_path, capsys):
        path = tmp_path / "nested.imp"
        path.write_text(NESTED_SOURCE)
        exit_code = main(["analyze", str(path), "--degree", "1",
                          "--degree-limit", "1"])
        assert exit_code == EXIT_NO_BOUND
        assert "no bound" in capsys.readouterr().out

    def test_exit_codes_are_distinct(self):
        codes = {EXIT_PARSE_ERROR, EXIT_NO_BOUND, EXIT_ANALYSIS_ERROR}
        assert len(codes) == 3 and 0 not in codes and 1 not in codes

    def test_exit_code_aggregation(self):
        assert exit_code_for_statuses(["ok", "ok"]) == 0
        assert exit_code_for_statuses(["ok", "no-bound"]) == EXIT_NO_BOUND
        assert exit_code_for_statuses(
            ["no-bound", "parse-error"]) == EXIT_PARSE_ERROR
        assert exit_code_for_statuses(
            ["ok", "analysis-error"]) == EXIT_ANALYSIS_ERROR
        assert exit_code_for_statuses(["ok", "timeout"]) == 1


class TestSimulateCommand:
    def test_simulate(self, rdwalk_file, capsys):
        exit_code = main(["simulate", rdwalk_file, "--input", "x=0", "n=20",
                          "--runs", "50", "--seed", "1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mean cost" in output

    def test_simulate_vec_engine(self, rdwalk_file, capsys):
        exit_code = main(["simulate", rdwalk_file, "--input", "x=0", "n=20",
                          "--runs", "50", "--seed", "1", "--engine", "vec"])
        assert exit_code == 0
        assert "mean cost" in capsys.readouterr().out

    def test_bad_input_assignment(self, rdwalk_file):
        with pytest.raises(SystemExit):
            main(["simulate", rdwalk_file, "--input", "x"])

    def test_simulate_vec_on_unvectorisable_program_fails_cleanly(
            self, tmp_path, capsys):
        path = tmp_path / "huge.imp"
        path.write_text(f"proc main() {{ tick({2 ** 60}); }}")
        exit_code = main(["simulate", str(path), "--runs", "2",
                          "--engine", "vec"])
        assert exit_code == 1
        assert "vectorised engine cannot run" in capsys.readouterr().err


class TestSampleCommand:
    def test_sample_program_file(self, rdwalk_file, capsys):
        exit_code = main(["sample", rdwalk_file, "--input", "x=0", "n=20",
                          "--runs", "200", "--engine", "vec"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine=vec" in output
        assert "mean cost" in output

    def test_sample_registry_benchmark(self, capsys):
        exit_code = main(["sample", "rdwalk", "--input", "x=0", "n=10",
                          "--runs", "100"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "rdwalk" in output

    def test_sample_batch_size_stability(self, capsys):
        main(["sample", "rdwalk", "--input", "x=0", "n=10",
              "--runs", "64", "--engine", "vec"])
        whole = capsys.readouterr().out.splitlines()[1]
        main(["sample", "rdwalk", "--input", "x=0", "n=10",
              "--runs", "64", "--engine", "vec", "--batch-size", "7"])
        split = capsys.readouterr().out.splitlines()[1]
        assert whole == split

    def test_sample_reports_unfinished_runs(self, tmp_path, capsys):
        path = tmp_path / "spin.imp"
        path.write_text("proc main() { x = 1; while (x > 0) { tick(1); } }")
        exit_code = main(["sample", str(path), "--runs", "3",
                          "--max-steps", "500"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "unfinished runs" in output and "3" in output

    def test_sample_auto_reports_scalar_fallback(self, tmp_path, capsys):
        path = tmp_path / "huge.imp"
        path.write_text(f"proc main() {{ tick({2 ** 60}); }}")
        exit_code = main(["sample", str(path), "--runs", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine=scalar (fallback from auto)" in output

    def test_sample_auto_falls_back_on_runtime_overflow(self, tmp_path, capsys):
        path = tmp_path / "double.imp"
        path.write_text(
            "proc main() { x = 1; n = 70; "
            "while (n > 0) { x = x + x; n = n - 1; } tick(1); }")
        exit_code = main(["sample", str(path), "--runs", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine=scalar (fallback from auto)" in output

    def test_sample_vec_runtime_overflow_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "double.imp"
        path.write_text(
            "proc main() { x = 1; n = 70; "
            "while (n > 0) { x = x + x; n = n - 1; } tick(1); }")
        exit_code = main(["sample", str(path), "--runs", "2",
                          "--engine", "vec"])
        assert exit_code == 1
        assert "vectorised engine cannot run" in capsys.readouterr().err

    def test_sample_unknown_target(self):
        with pytest.raises(SystemExit, match="neither a program file"):
            main(["sample", "no-such-thing"])

    def test_sample_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.imp"
        bad.write_text("proc main( {")
        assert main(["sample", str(bad)]) == EXIT_PARSE_ERROR


class TestFiguresCommand:
    def test_figures_appendix_subset(self, capsys):
        exit_code = main(["figures", "--figure", "appendix",
                          "--names", "ber", "--runs", "20",
                          "--engine", "vec"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "# ber" in output
        assert "measured_mean" in output


class TestListAndBench:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "rdwalk" in output and "trader" in output

    def test_list_is_sorted(self, capsys):
        main(["list"])
        names = capsys.readouterr().out.splitlines()
        assert names == sorted(names)

    def test_bench_named_subset(self, capsys):
        exit_code = main(["bench", "--names", "ber", "--quick"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Linear programs" in output
        assert "ber" in output

    def test_bench_with_workers(self, capsys):
        exit_code = main(["bench", "--names", "ber", "rdwalk",
                          "--no-simulation", "--workers", "0"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "rdwalk" in output


class TestBatchCommand:
    def test_batch_directory_with_cache(self, tmp_path, capsys):
        programs = tmp_path / "programs"
        programs.mkdir()
        (programs / "walk.imp").write_text(RDWALK_SOURCE)
        (programs / "count.imp").write_text(COUNTER_SOURCE.replace(
            "cost = cost + 1;", "tick(1);"))
        cache = tmp_path / "cache"

        exit_code = main(["batch", str(programs),
                          "--cache-dir", str(cache)])
        first = capsys.readouterr().out
        assert exit_code == 0
        assert "computed" in first
        assert "0 served from store" in first

        exit_code = main(["batch", str(programs), "--cache-dir", str(cache)])
        second = capsys.readouterr().out
        assert exit_code == 0
        assert "2 served from store" in second
        assert "100% hit rate" in second

    def test_batch_registry_selector(self, tmp_path, capsys):
        exit_code = main(["batch", "ber", "--no-cache", "--quiet",
                          "--json", str(tmp_path / "out.json")])
        assert exit_code == 0
        import json

        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["results"][0]["name"] == "ber"
        assert payload["results"][0]["status"] == "ok"

    def test_batch_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.imp"
        bad.write_text("proc main( {")
        exit_code = main(["batch", str(bad), "--no-cache", "--quiet"])
        assert exit_code == EXIT_PARSE_ERROR

    def test_batch_unknown_selector(self):
        with pytest.raises(SystemExit):
            main(["batch", "no-such-benchmark", "--no-cache"])

    @pytest.mark.parametrize("key", ["solver", "domain"])
    def test_batch_unknown_option_is_a_bad_request(self, key, rdwalk_file):
        from repro.cli import _collect_batch_jobs

        with pytest.raises(SystemExit) as excinfo:
            _collect_batch_jobs([rdwalk_file], {key: "fm"})
        assert f"unknown analyzer option {key!r}" in str(excinfo.value.code)

    def test_batch_timeout_needs_workers(self, capsys):
        # Rejected at argument-parse time: conventional usage-error exit
        # code 2 plus a clear message on stderr.
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "ber", "--no-cache", "--timeout", "5"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestRetiredDomainOption:
    """``--domain`` is gone: the flag is a usage error before any work."""

    @pytest.mark.parametrize("command", ["analyze", "batch", "bench",
                                         "serve"])
    def test_domain_flag_is_a_usage_error(self, command, rdwalk_file,
                                          tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        inputs = [rdwalk_file] if command in ("analyze", "batch") else []
        with pytest.raises(SystemExit) as excinfo:
            main([command, *inputs, "--domain", "fm"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--domain" in captured.err and not captured.out
        assert not cache.exists()


class TestStoreCommand:
    def _seed(self, tmp_path):
        cache = tmp_path / "cache"
        program = tmp_path / "walk.imp"
        program.write_text(RDWALK_SOURCE)
        assert main(["batch", str(program), "--cache-dir", str(cache),
                     "--quiet"]) == 0
        return cache

    def test_store_stats(self, tmp_path, capsys):
        cache = self._seed(tmp_path)
        assert main(["store", "stats", "--cache-dir", str(cache)]) == 0
        output = capsys.readouterr().out
        assert "records: 1" in output
        assert "quarantined: 0" in output

    def test_store_stats_json(self, tmp_path, capsys):
        import json as json_module

        cache = self._seed(tmp_path)
        assert main(["store", "stats", "--cache-dir", str(cache),
                     "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["total_bytes"] > 0
        assert payload["quarantine_records"] == 0

    def test_store_prune_by_size(self, tmp_path, capsys):
        cache = self._seed(tmp_path)
        assert main(["store", "prune", "--cache-dir", str(cache),
                     "--max-bytes", "0"]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert main(["store", "stats", "--cache-dir", str(cache),
                     "--json"]) == 0

    def test_store_prune_by_age_keeps_fresh_records(self, tmp_path, capsys):
        cache = self._seed(tmp_path)
        assert main(["store", "prune", "--cache-dir", str(cache),
                     "--max-age", "7d"]) == 0
        assert "1 kept" in capsys.readouterr().out

    def test_store_prune_needs_a_criterion(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "prune", "--cache-dir", str(tmp_path)])

    def test_store_prune_rejects_bad_units(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "prune", "--cache-dir", str(tmp_path),
                  "--max-age", "7fortnights"])


class TestServeGatewayFlags:
    def test_gateway_flags_require_async(self):
        for flags in (["--port", "1"], ["--host", "::1"],
                      ["--queue-limit", "4"], ["--hot-cache-size", "4"],
                      ["--timeout", "1"], ["--retry-budget", "2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", *flags])
            assert excinfo.value.code == 2

    def test_async_forwards_gateway_config(self, monkeypatch):
        captured = {}

        def fake_run_gateway(**kwargs):
            captured.update(kwargs)
            return 0

        import repro.service.gateway as gateway

        monkeypatch.setattr(gateway, "run_gateway", fake_run_gateway)
        assert main(["serve", "--async", "--no-cache", "--port", "0",
                     "--queue-limit", "7", "--hot-cache-size", "3",
                     "--degree-limit", "3"]) == 0
        assert captured["port"] == 0
        assert captured["queue_limit"] == 7
        assert captured["hot_cache_size"] == 3
        assert captured["default_options"] == {"degree_limit": 3}
        assert captured["store"] is None
