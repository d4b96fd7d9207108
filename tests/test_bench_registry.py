"""Tests for the benchmark registry and the shape of every benchmark program."""

import pytest

from repro.bench.registry import (
    all_benchmarks,
    benchmark_names,
    get_benchmark,
    linear_benchmarks,
    polynomial_benchmarks,
)
from repro.lang import ast
from repro.semantics.interp import run_program

#: The 39 program names of the paper's Table 1.
TABLE1_NAMES = {
    # linear
    "2drwalk", "bayesian", "ber", "bin", "C4B_t09", "C4B_t13", "C4B_t15",
    "C4B_t19", "C4B_t30", "C4B_t61", "condand", "cooling", "fcall", "filling",
    "hyper", "linear01", "miner", "prdwalk", "prnes", "prseq", "prseq_bin",
    "prspeed", "race", "rdseql", "rdspeed", "rdwalk", "robot", "roulette",
    "sampling", "sprdwalk",
    # polynomial
    "complex", "multirace", "pol04", "pol05", "pol06", "pol07", "rdbub",
    "recursive", "trader",
}


class TestRegistryStructure:
    def test_exactly_39_benchmarks(self):
        assert len(all_benchmarks()) == 39

    def test_names_match_table1(self):
        assert set(benchmark_names()) == TABLE1_NAMES

    def test_group_sizes_match_table1(self):
        assert len(linear_benchmarks()) == 30
        assert len(polynomial_benchmarks()) == 9

    def test_lookup_and_unknown(self):
        assert get_benchmark("rdwalk").name == "rdwalk"
        with pytest.raises(KeyError):
            get_benchmark("does-not-exist")

    def test_every_benchmark_has_paper_bound_and_description(self):
        for benchmark in all_benchmarks():
            assert benchmark.paper_bound
            assert benchmark.description
            assert benchmark.source in ("paper", "reconstructed")

    def test_every_benchmark_has_simulation_plan(self):
        for benchmark in all_benchmarks():
            plan = benchmark.simulation
            assert plan is not None
            assert plan.sweep_values
            assert plan.swept_variable

    def test_factories_produce_fresh_programs(self):
        benchmark = get_benchmark("rdwalk")
        first, second = benchmark.build(), benchmark.build()
        first_ids = {node.node_id for node in first.iter_nodes()}
        second_ids = {node.node_id for node in second.iter_nodes()}
        assert first_ids.isdisjoint(second_ids)

    def test_polynomial_benchmarks_request_degree_two(self):
        for benchmark in polynomial_benchmarks():
            assert benchmark.analyzer_options.get("max_degree") == 2


class TestBenchmarkProgramsAreWellFormed:
    @pytest.mark.parametrize("name", sorted(TABLE1_NAMES))
    def test_builds_valid_program(self, name):
        program = get_benchmark(name).build()
        assert isinstance(program, ast.Program)
        assert program.main in program.procedures

    @pytest.mark.parametrize("name", sorted(TABLE1_NAMES))
    def test_program_is_probabilistic_or_calls(self, name):
        """Every benchmark exercises at least one probabilistic construct
        (a sampling assignment or probabilistic branching)."""
        program = get_benchmark(name).build()
        nodes = list(program.iter_nodes())
        assert any(isinstance(node, (ast.Sample, ast.ProbChoice)) for node in nodes)

    @pytest.mark.parametrize("name", sorted(TABLE1_NAMES))
    def test_short_simulation_run_terminates(self, name):
        """Each benchmark executes and terminates on a small input."""
        benchmark = get_benchmark(name)
        plan = benchmark.simulation
        state = dict(plan.fixed_state)
        smallest = min(plan.sweep_values, key=abs)
        state[plan.swept_variable] = smallest
        result = run_program(benchmark.build(), state, seed=3,
                             max_steps=plan.max_steps)
        assert result.terminated
        assert result.cost >= 0


class TestPaperBoundsAudit:
    """A program marked ``source == 'paper'`` is the paper's own text, so
    the paper's Table 1 bound must hold for it: at the plan's largest
    state the bound is no lower than the sampled mean cost, within four
    standard errors.  A program whose sampled cost exceeds its paper bound
    is a reconstruction and must say so."""

    def test_paper_bound_covers_the_sampled_mean(self):
        import os
        import sys

        import numpy as np

        from repro.semantics.sampler import sample_costs

        perfbench = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench")
        sys.path.insert(0, perfbench)
        try:
            from paperbound import paper_value
        finally:
            sys.path.remove(perfbench)
        violations = []
        for benchmark in all_benchmarks():
            if benchmark.source != "paper":
                continue
            plan = benchmark.simulation
            state = max(plan.states(), key=lambda s: s[plan.swept_variable])
            costs, unfinished, _, _ = sample_costs(
                benchmark.build_for_simulation(), state, runs=100, seed=7,
                max_steps=plan.max_steps, engine="auto")
            assert unfinished == 0, benchmark.name
            floor = costs.mean() - 4 * costs.std(ddof=1) / np.sqrt(len(costs))
            bound = float(paper_value(benchmark, state))
            if bound < floor:
                violations.append((benchmark.name, state, bound,
                                   float(costs.mean())))
        assert violations == []
