"""Tests for the Table-1 and figure harnesses (quick configurations)."""

import gc

import pytest

from repro.bench.figures import (
    appendix_f_series,
    figure8_histogram,
    figure8_pol04_series,
    figure8_trader_surface,
    sweep_series,
)
from repro.bench.registry import get_benchmark
from repro.core.analyzer import analyze_program
from repro.bench.reporting import format_percentage, render_table, rows_to_csv
from repro.bench.table1 import (
    TABLE_HEADERS,
    Table1Row,
    evaluate_benchmark,
    render_rows,
    run_table1,
)


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(("a", "name"), [(1, "x"), (22, "longer")], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_rows_to_csv(self):
        csv_text = rows_to_csv(("a", "b"), [(1, 2)])
        assert csv_text.splitlines()[0] == "a,b"
        assert csv_text.splitlines()[1] == "1,2"

    def test_format_percentage(self):
        assert format_percentage(float("nan")) == "n/a"
        assert format_percentage(float("inf")) == "inf"
        assert format_percentage(1.23456) == "1.235"


class TestTable1Harness:
    def test_evaluate_single_benchmark_without_simulation(self):
        row = evaluate_benchmark(get_benchmark("ber"), simulate=False)
        assert row.success
        assert row.bound is not None
        assert row.error_percent != row.error_percent      # NaN without simulation
        assert row.analysis_seconds > 0

    def test_evaluate_with_small_simulation(self):
        row = evaluate_benchmark(get_benchmark("linear01"), runs=40)
        assert row.success
        assert row.measurements
        # The bound dominates the (sampled) expectation on every swept input.
        for _state, measured, bound_value in row.measurements:
            assert bound_value + 1e-6 >= measured - 10.0
        assert row.error_percent == row.error_percent      # a real number

    def test_run_table1_by_names(self):
        rows = run_table1(names=["ber", "rdwalk"], simulate=False)
        assert [row.name for row in rows] == ["ber", "rdwalk"]

    def test_render_rows_grouping(self):
        rows = [
            Table1Row("lin", "linear", "x", "x", 1.0, "1", 0.1, 0.1, True, "paper"),
            Table1Row("pol", "polynomial", "x^2", "x^2", 1.0, "1", 0.1, 0.1, True, "paper"),
        ]
        text = render_rows(rows)
        assert "Linear programs" in text
        assert "Polynomial programs" in text
        assert len(TABLE_HEADERS) == 7

    def test_failed_row_rendering(self):
        row = Table1Row("bad", "linear", None, "?", float("nan"), None, 0.0, None,
                        False, "reconstructed", message="infeasible")
        assert "none" in str(row.as_table_row()[1])


class TestFigureHarness:
    def test_sweep_series_quick(self):
        series = sweep_series(get_benchmark("ber"), runs=30, values=(20, 40))
        assert series.bound is not None
        assert len(series.points) == 2
        assert series.bound_dominates(slack=0.10)
        csv_text = series.to_csv()
        assert "measured_mean" in csv_text.splitlines()[0]

    def test_appendix_series_subset(self):
        series_list = appendix_f_series(names=["linear01", "ber"], runs=20)
        assert {series.benchmark for series in series_list} == {"linear01", "ber"}

    def test_figure8_histogram_quick(self):
        figure = figure8_histogram(runs=300, n=30)
        assert figure.counts.sum() == 300
        assert figure.runs == 300
        assert figure.unfinished_runs == 0
        assert figure.bound_value >= figure.measured_mean - 5

    def test_figure8_histogram_vec_engine(self):
        figure = figure8_histogram(runs=300, n=30, engine="vec")
        assert figure.counts.sum() == 300
        assert figure.bound_value >= figure.measured_mean - 10

    def test_figure8_histogram_samples_simulation_variant(self):
        # Regression: the histogram used to sample ``benchmark.build()``,
        # the *analysis* variant.  For a resource-counter benchmark that
        # variant counts no ticks at all, so the histogram silently
        # measured the wrong program.  ``trader`` is exactly that case.
        from repro.bench import figures

        figure = figures.figure8_histogram(
            runs=20, seed=0, benchmark="trader",
            state={"s": 120, "smin": 100})
        assert figure.benchmark == "trader"
        assert figure.measured_mean > 0     # analysis variant measures 0

    def test_figure8_trader_surface_quick(self):
        points = figure8_trader_surface(s_values=(120,), smin_values=(100,), runs=30)
        assert len(points) == 1
        assert points[0].bound_value > 0

    def test_figure8_pol04_quick(self):
        series = figure8_pol04_series(runs=30, values=(10, 20))
        assert len(series.points) == 2
        assert series.bound is not None and series.bound.degree() == 2

    def test_sweep_series_spawns_point_seeds(self, monkeypatch):
        # Regression: sweep points used to derive seeds as ``seed + index``
        # (correlated streams); they must now receive SeedSequence children.
        import numpy as np

        from repro.bench import figures

        seen = []

        def spy(program, state, runs, seed, max_steps, engine):
            seen.append(seed)
            from repro.semantics.sampler import SampleStatistics
            return SampleStatistics(1, 0, 1, 1, 1, 1, 1, runs, 0)

        monkeypatch.setattr(figures, "estimate_expected_cost", spy)
        figures.sweep_series(get_benchmark("ber"), runs=5, values=(10, 20, 30))
        assert len(seen) == 3
        assert all(isinstance(seed, np.random.SeedSequence) for seed in seen)
        keys = {tuple(seed.generate_state(2)) for seed in seen}
        assert len(keys) == 3

    def test_sweep_series_csv_reports_unfinished(self):
        series = sweep_series(get_benchmark("ber"), runs=10, values=(20,))
        assert "unfinished_runs" in series.to_csv().splitlines()[0]
        assert series.unfinished_runs() == 0

    def test_sweep_series_vec_engine_matches_scalar_closely(self):
        scalar = sweep_series(get_benchmark("ber"), runs=400, values=(30,))
        vec = sweep_series(get_benchmark("ber"), runs=400, values=(30,),
                           engine="vec")
        assert vec.points[0].measured.mean == pytest.approx(
            scalar.points[0].measured.mean, rel=0.1)


class TestPerfSmoke:
    def test_perfsmoke_limit_two(self, tmp_path):
        import json

        from repro.bench.perfsmoke import main, run_suite

        output = tmp_path / "bench.json"
        assert main(["--limit", "2", "--quiet",
                     "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["suite"] == "table1-linear"
        assert len(report["programs"]) == 2
        for program in report["programs"]:
            assert program["success"]
            assert program["wall_seconds"] >= 0
            assert program["fm_queries"] >= 0
        assert "hit_rate" in report["entailment_cache"]
        assert "interval_hit_rate" in report["entailment_cache"]
        assert not {"solver", "prefilter", "prefilter_compare"} & set(report)

    def test_run_suite_counts_queries(self):
        from repro.bench.perfsmoke import run_suite

        report = run_suite("linear", limit=1)
        assert report["programs"][0]["fm_queries"] >= 0
        # The main pass freezes the collector's old objects per program
        # and hands them back when it ends.
        assert gc.get_freeze_count() == 0
        assert report["total_wall_seconds"] >= 0
        assert report["workers"] == 1
        assert report["suite_wall_parallel"] is None

    def test_programs_filter(self, tmp_path):
        from repro.bench.perfsmoke import main

        output = tmp_path / "bench.json"
        assert main(["--programs", "ber", "rdwalk", "--quiet",
                     "--output", str(output)]) == 0
        import json

        report = json.loads(output.read_text())
        assert sorted(p["name"] for p in report["programs"]) \
            == ["ber", "rdwalk"]

    @pytest.mark.parametrize("flags", [
        ["--solver", "scipy"], ["--prefilter-compare"],
        ["--prefilter-min-hit-rate", "0.5"],
        ["--escalation-min-solve-speedup", "1.3"]])
    def test_removed_flags_are_rejected(self, tmp_path, capsys, flags):
        from repro.bench.perfsmoke import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--limit", "1", "--quiet",
                  "--output", str(tmp_path / "b.json"), *flags])
        assert excinfo.value.code == 2

    def test_help_exits_cleanly(self, capsys):
        # argparse %-expands help text, so a literal "%" must be "%%".
        from repro.bench.perfsmoke import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "5% of the sequential" in out and ">25% regression" in out

    def test_rows_report_lp_solves(self):
        from repro.bench.perfsmoke import run_suite

        report = run_suite(programs=["ber"])
        row, = report["programs"]
        # ber's second objective stage is already optimal after the first.
        assert (row["lp_solves"], row["skipped_solves"]) == (1, 1)
        bench = get_benchmark("ber")
        result = analyze_program(bench.build(), **bench.analyzer_options)
        assert (row["lp_variables"], row["lp_constraints"]) \
            == (result.lp_variables, result.lp_constraints) != (0, 0)

    def test_programs_filter_unknown_selector(self, tmp_path, capsys):
        from repro.bench.perfsmoke import main

        assert main(["--programs", "nope-such-bench", "--quiet",
                     "--output", str(tmp_path / "b.json")]) == 2

    def test_sampler_pass_records_throughput(self, tmp_path):
        import json

        from repro.bench.perfsmoke import main

        output = tmp_path / "bench.json"
        # Assert the report shape only -- the actual >=5x throughput claim
        # is enforced by the dedicated perfsmoke --sampler CI gate at 10k
        # runs; re-asserting a wall-clock ratio here at 400 runs would make
        # the unit suite timing-dependent.
        assert main(["--programs", "ber", "--quiet", "--sampler",
                     "--sampler-runs", "400",
                     "--sampler-min-speedup", "0",
                     "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        sampler = report["sampler"]
        assert sampler["benchmark"] == "rdwalk"
        assert sampler["runs"] == 400
        assert sampler["wall_scalar"] > 0 and sampler["wall_vec"] > 0
        assert sampler["speedup"] > 0
        assert sampler["unfinished_scalar"] == 0
        assert sampler["unfinished_vec"] == 0

    def test_sampler_gate_fails_on_impossible_speedup(self, tmp_path, capsys):
        from repro.bench.perfsmoke import main

        assert main(["--programs", "ber", "--quiet", "--sampler",
                     "--sampler-runs", "200",
                     "--sampler-min-speedup", "1e9",
                     "--output", str(tmp_path / "bench.json")]) == 1
        assert "sampler throughput gate FAILED" in capsys.readouterr().err

    def test_sampler_section_absent_by_default(self, tmp_path):
        import json

        from repro.bench.perfsmoke import main

        output = tmp_path / "bench.json"
        assert main(["--limit", "1", "--quiet",
                     "--output", str(output)]) == 0
        assert json.loads(output.read_text())["sampler"] is None

    @pytest.mark.parametrize("tier_on", [True, False])
    def test_interval_gate_runs_on_the_main_pass(self, tmp_path, monkeypatch,
                                                 capsys, tier_on):
        from repro.bench import perfsmoke
        from repro.core.rewrite import clear_rewrite_caches
        from repro.logic.entailment import reset_engine, use_prefilter

        # An impossible floor: the gate must fire on a cold main pass with
        # the tier on, and stay silent under the oracle's tier-off switch.
        monkeypatch.setattr(perfsmoke, "PREFILTER_MIN_HIT_RATE", 1.01)
        reset_engine()
        clear_rewrite_caches()
        with use_prefilter(tier_on):
            code = perfsmoke.main(["--programs", "ber", "--quiet",
                                   "--output", str(tmp_path / "b.json")])
        failed = "interval pre-filter gate FAILED" in capsys.readouterr().err
        assert (code, failed) == ((1, True) if tier_on else (0, False))

    def test_parallel_pass_records_suite_wall(self, tmp_path):
        import json

        from repro.bench.perfsmoke import main

        output = tmp_path / "bench.json"
        assert main(["--limit", "2", "--workers", "2", "--quiet",
                     "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["workers"] == 2
        assert report["suite_wall_parallel"] > 0
        assert all("parallel_wall_seconds" in p for p in report["programs"])


class TestPerfCheck:
    def _report(self, times):
        return {"programs": [{"name": name, "wall_seconds": wall}
                             for name, wall in times.items()]}

    def test_no_regression(self):
        from repro.bench.perfsmoke import find_regressions

        baseline = self._report({"a": 1.0, "b": 0.2})
        fresh = self._report({"a": 1.1, "b": 0.21})
        assert find_regressions(fresh, baseline) == []

    def test_flags_large_regression(self):
        from repro.bench.perfsmoke import find_regressions

        baseline = self._report({"a": 1.0})
        fresh = self._report({"a": 1.5})
        problems = find_regressions(fresh, baseline)
        assert len(problems) == 1 and "a:" in problems[0]

    def test_absolute_floor_suppresses_tiny_jitter(self):
        from repro.bench.perfsmoke import find_regressions

        # +100% but only +20ms: below the absolute floor, not flagged.
        baseline = self._report({"tiny": 0.02})
        fresh = self._report({"tiny": 0.04})
        assert find_regressions(fresh, baseline) == []

    def test_new_programs_are_skipped(self):
        from repro.bench.perfsmoke import find_regressions

        assert find_regressions(self._report({"new": 9.9}),
                                self._report({"old": 0.1})) == []

    def test_flags_build_regression_under_a_steady_wall(self):
        from repro.bench.perfsmoke import find_regressions

        # The derive layer doubled while a faster solve hid it in the wall.
        baseline = {"programs": [{"name": "a", "wall_seconds": 2.0,
                                  "build_seconds": 1.0}]}
        fresh = {"programs": [{"name": "a", "wall_seconds": 2.0,
                               "build_seconds": 2.0}]}
        problems = find_regressions(fresh, baseline)
        assert problems == ["a: build 2.000s vs baseline 1.000s (+100%)"]

    def test_build_gate_uses_the_same_threshold_and_floor(self):
        from repro.bench.perfsmoke import find_regressions

        def report(build):
            return {"programs": [{"name": "a", "wall_seconds": 1.0,
                                  "build_seconds": build}]}

        # +20%: under the 25% threshold.
        assert find_regressions(report(0.6), report(0.5)) == []
        # +100% but only +30ms: under the absolute floor.
        assert find_regressions(report(0.06), report(0.03)) == []
        # A side without build_seconds is not gated.
        assert find_regressions(report(None), report(0.5)) == []
        assert find_regressions(report(2.0), self._report({"a": 1.0})) == []

    def test_flags_solve_regression_under_a_steady_wall(self):
        from repro.bench.perfsmoke import find_regressions

        # The LP-solve layer doubled while a faster derive hid it.
        def report(build, solve):
            return {"programs": [{"name": "a", "wall_seconds": 2.0,
                                  "build_seconds": build,
                                  "solve_seconds": solve}]}

        problems = find_regressions(report(0.5, 1.0), report(1.0, 0.5))
        assert problems == ["a: solve 1.000s vs baseline 0.500s (+100%)"]
        # Same threshold and floor as the wall: +20%, or +30ms, passes.
        assert find_regressions(report(1.0, 0.6), report(1.0, 0.5)) == []
        assert find_regressions(report(1.0, 0.06), report(1.0, 0.03)) == []

    def test_flags_prepare_regression_under_a_steady_wall(self):
        from repro.bench.perfsmoke import find_regressions

        # Abstract interpretation doubled while a faster derive hid it.
        def report(prepare, build):
            return {"programs": [{"name": "a", "wall_seconds": 2.0,
                                  "prepare_seconds": prepare,
                                  "build_seconds": build}]}

        problems = find_regressions(report(0.4, 0.8), report(0.2, 1.0))
        assert problems == ["a: prepare 0.400s vs baseline 0.200s (+100%)"]
        # Same threshold and floor as the wall: +20%, or +30ms, passes.
        assert find_regressions(report(0.6, 1.0), report(0.5, 1.0)) == []
        assert find_regressions(report(0.06, 1.0), report(0.03, 1.0)) == []

    def test_flags_an_extra_lp_solve(self):
        from repro.bench.perfsmoke import find_regressions

        # One more stage solved (a broken skip) while the seconds held.
        def report(solves):
            return {"programs": [{"name": "a", "wall_seconds": 1.0,
                                  "lp_solves": solves}]}

        assert find_regressions(report(2), report(1)) \
            == ["a: LP solves 2 vs baseline 1 (+100%)"]
        assert find_regressions(report(1), report(1)) == []
        assert find_regressions(report(1), report(2)) == []

    def test_flags_extra_lp_columns(self):
        from repro.bench.perfsmoke import find_regressions

        # A lost rewrite reduction: more LP columns while the seconds held.
        def report(columns):
            return {"programs": [{"name": "a", "wall_seconds": 1.0,
                                  "lp_variables": columns}]}

        assert find_regressions(report(13000), report(10000)) \
            == ["a: LP columns 13000 vs baseline 10000 (+30%)"]
        assert find_regressions(report(10000), report(10000)) == []
        assert find_regressions(report(8000), report(10000)) == []

    def test_flags_escalated_wall_regression(self):
        from repro.bench.perfsmoke import find_regressions

        # The degree-1 -> 2 retry path doubled while the cold wall held.
        def report(escalated):
            return {"programs": [{"name": "pol04", "wall_seconds": 1.0,
                                  "escalated_wall_seconds": escalated}]}

        problems = find_regressions(report(2.0), report(1.0))
        assert problems == [
            "pol04: escalated wall 2.000s vs baseline 1.000s (+100%)"]
        # Same threshold and floor as the wall: +20%, or +30ms, passes.
        assert find_regressions(report(1.2), report(1.0)) == []
        assert find_regressions(report(0.06), report(0.03)) == []

    def test_flags_query_count_regression(self):
        from repro.bench.perfsmoke import find_regressions

        # Twice the entailment queries at the same wall: the count is
        # gated on its own, with the threshold and no floor.
        def report(queries):
            return {"programs": [{"name": "a", "wall_seconds": 1.0,
                                  "fm_queries": queries},
                                 {"name": "b", "wall_seconds": 0.01,
                                  "fm_queries": 2}]}

        problems = find_regressions(report(200), report(100))
        assert problems == ["a: entailment queries 200 vs baseline 100 "
                            "(+100%)"]
        assert find_regressions(report(120), report(100)) == []
        assert find_regressions(report(200), report(100),
                                threshold=1.5) == []
        assert find_regressions(report(None), report(100)) == []

    def test_query_counts_are_gated_only_in_step_with_the_baseline(self):
        from repro.bench.perfsmoke import find_regressions

        # The entailment memo is process-wide: once the run's program
        # order leaves the baseline's, later counts are not comparable.
        baseline = {"programs": [{"name": name, "fm_queries": 10}
                                 for name in ("a", "b", "c")]}
        fresh = {"programs": [{"name": name, "fm_queries": 50}
                              for name in ("a", "c")]}
        assert find_regressions(fresh, baseline) == [
            "a: entailment queries 50 vs baseline 10 (+400%)"]

    def test_escalation_pass_records_escalated_walls(self):
        from repro.bench.perfsmoke import run_suite

        report = run_suite(programs=["pol05"], escalation=True)
        row, = report["programs"]
        assert row["escalated_wall_seconds"] > 0
        # The failed degree-1 attempt is solved too.
        assert row["escalated_lp_solves"] > row["lp_solves"]
        assert report["escalation"] == {
            "programs": 1, "wall_escalated": pytest.approx(
                row["escalated_wall_seconds"], abs=1e-3),
            "cold_solves": row["escalated_lp_solves"]}

    def test_check_cli_against_self(self, tmp_path):
        from repro.bench.perfsmoke import main

        output = tmp_path / "bench.json"
        assert main(["--limit", "2", "--quiet",
                     "--output", str(output)]) == 0
        # A fresh run checked against itself-as-baseline cannot regress
        # by more than the threshold (same machine, seconds apart).
        again = tmp_path / "again.json"
        assert main(["--limit", "2", "--quiet", "--output", str(again),
                     "--check", str(output)]) == 0

    def test_check_missing_baseline(self, tmp_path):
        from repro.bench.perfsmoke import main

        assert main(["--limit", "1", "--quiet",
                     "--output", str(tmp_path / "b.json"),
                     "--check", str(tmp_path / "missing.json")]) == 2

    def test_check_when_output_equals_baseline_path(self, tmp_path):
        """--check must read the baseline before --output overwrites it."""
        import json

        from repro.bench.perfsmoke import main

        shared = tmp_path / "bench.json"
        assert main(["--programs", "roulette", "--quiet",
                     "--output", str(shared)]) == 0
        # Doctor the baseline into an impossible-to-meet budget: if the
        # gate compared the fresh run against itself it would pass.  A
        # warm re-run of roulette can land under the wall's absolute
        # floor, so the budget is on its query count, which has no floor.
        record = json.loads(shared.read_text())
        for program in record["programs"]:
            program["wall_seconds"] = 1e-9
            program["fm_queries"] = 1
        shared.write_text(json.dumps(record))
        assert main(["--programs", "roulette", "--quiet",
                     "--output", str(shared), "--check", str(shared)]) == 1


class TestTable1Workers:
    def test_workers_path_matches_sequential(self):
        from repro.bench.table1 import run_table1

        sequential = run_table1(names=["ber", "rdwalk"], simulate=False)
        scheduled = run_table1(names=["ber", "rdwalk"], simulate=False,
                               workers=0)
        assert [(r.name, r.bound) for r in sequential] \
            == [(r.name, r.bound) for r in scheduled]
        assert all(r.success for r in scheduled)

    def test_workers_path_simulates(self):
        from repro.bench.table1 import run_table1

        rows = run_table1(names=["linear01"], runs=30, workers=0)
        assert rows[0].measurements
        assert rows[0].error_percent == rows[0].error_percent  # not NaN

    def test_row_status_property(self):
        from repro.bench.table1 import Table1Row

        ok = Table1Row("x", "linear", "b", "b", 0.0, None, 0.1, None,
                       True, "paper")
        bad = Table1Row("x", "linear", None, "b", 0.0, None, 0.1, None,
                        False, "paper", message="nope",
                        failure_kind="no-bound")
        assert ok.status == "ok" and bad.status == "no-bound"


class TestPerfbenchContract:
    """What ``perfbench/`` reads from the package must stay resolvable."""

    def test_tracer_installs_and_restores(self, monkeypatch):
        import os
        import sys

        from repro.core.analyzer import analyze_source
        from repro.core.derivation import DerivationBuilder

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        monkeypatch.delitem(sys.modules, "tracer", raising=False)
        import tracer

        weaken = vars(DerivationBuilder)["weaken"]
        spans = tracer.Tracer()
        restore = tracer.install(spans)
        try:
            assert vars(DerivationBuilder)["weaken"] is not weaken
            analyze_source("proc main(n) { while (n > 0) { n = n - 1; "
                           "tick(1); } }").require_bound()
        finally:
            restore()
        assert vars(DerivationBuilder)["weaken"] is weaken
        names = {span[2] for span in spans.spans}
        assert {"core.prepare", "core.derive", "core.weaken",
                "core.solve", "core.certify"} <= names

    def test_pipeline_record_keeps_the_solve_counters(self):
        from repro.service.jobs import AnalysisJob, run_job

        job = AnalysisJob.create(
            "p", "proc main(n) { while (n > 0) { n = n - 1; tick(1); } }",
            {})
        record = run_job(job).to_record()
        assert record["status"] == "ok"
        pipeline = record["pipeline"]
        assert {"warm_solves", "cold_solves", "attempted_degrees"} \
            <= set(pipeline)
        assert pipeline["attempted_degrees"] == [1]
