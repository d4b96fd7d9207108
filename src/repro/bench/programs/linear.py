"""The 30 linear-bound benchmarks of Table 1.

Each ``_build_<name>`` function constructs the program with the builder DSL;
the module-level ``register`` calls attach the paper's reported bound, the
provenance and the simulation plan.  Programs marked ``source='paper'`` are
transcribed from listings in the paper; the others are reconstructions (see
``repro/bench/programs/__init__.py`` and DESIGN.md).
"""

from __future__ import annotations

from fractions import Fraction

from repro.bench.registry import BenchmarkProgram, SimulationPlan, register
from repro.lang import builder as B
from repro.lang.distributions import Bernoulli, Binomial, HyperGeometric, Uniform


# ---------------------------------------------------------------------------
# Random walks
# ---------------------------------------------------------------------------

def _build_rdwalk():
    """Fig. 4: biased random walk towards n (step +1 w.p. 3/4, -1 w.p. 1/4)."""
    return B.program(B.proc("main", ["x", "n"],
        B.while_("x < n",
            B.prob("3/4", B.assign("x", "x + 1"), B.assign("x", "x - 1")),
            B.tick(1))))


register(BenchmarkProgram(
    name="rdwalk", category="linear", factory=_build_rdwalk,
    paper_bound="2*|[x, n + 1]|", source="paper",
    description="1-D biased random walk towards n (paper Fig. 4).",
    paper_time_seconds=0.012, paper_error_percent="0.075",
    simulation=SimulationPlan("n", (50, 100, 200, 400, 800), {"x": 0}, runs=400)))


def _build_sprdwalk():
    """Random walk with Bernoulli steps: x advances by ber(1/2) each tick."""
    return B.program(B.proc("main", ["x", "n"],
        B.while_("x < n",
            B.incr_sample("x", Bernoulli(Fraction(1, 2))),
            B.tick(1))))


register(BenchmarkProgram(
    name="sprdwalk", category="linear", factory=_build_sprdwalk,
    paper_bound="2*|[x, n]|", source="reconstructed",
    description="Random walk with Bernoulli increments.",
    paper_time_seconds=0.017, paper_error_percent="0.032",
    simulation=SimulationPlan("n", (50, 100, 200, 400, 800), {"x": 0}, runs=400)))


def _build_prdwalk():
    """Fig. 49-style walk: uniform increments of different ranges chosen probabilistically."""
    return B.program(B.proc("main", ["x", "n"],
        B.while_("x < n",
            B.prob("3/4",
                   B.incr_sample("x", Uniform(0, 1)),
                   B.incr_sample("x", Uniform(0, 3))),
            B.tick(1))))


register(BenchmarkProgram(
    name="prdwalk", category="linear", factory=_build_prdwalk,
    paper_bound="1.14286*|[x, n + 4]|", source="reconstructed",
    description="Probabilistic walk mixing unif(0,1) and unif(0,3) increments "
                "(Fig. 49 shape).  Reconstructed: its mean increment is 3/4, "
                "so its expected cost is about 4/3*|[x, n]|, above the "
                "paper's 8/7 slope (at n=800 the sampled mean is ~1067 and "
                "the paper bound 918.9); the paper's program advances faster.",
    paper_time_seconds=0.052, paper_error_percent="0.128",
    simulation=SimulationPlan("n", (50, 100, 200, 400, 800), {"x": 0}, runs=400)))


def _build_2drwalk():
    """2-D random walk: each step moves one of two coordinates, biased forward."""
    return B.program(B.proc("main", ["x", "y", "n"],
        B.while_("x + y < n",
            B.prob("1/2",
                   B.prob("3/4", B.assign("x", "x + 1"), B.assign("x", "x - 1")),
                   B.prob("3/4", B.assign("y", "y + 1"), B.assign("y", "y - 1"))),
            B.tick(1))))


register(BenchmarkProgram(
    name="2drwalk", category="linear", factory=_build_2drwalk,
    paper_bound="2*|[d, n + 1]|", source="reconstructed",
    description="Biased 2-D random walk; progress measured by x + y.",
    paper_time_seconds=2.278, paper_error_percent="0.170",
    simulation=SimulationPlan("n", (50, 100, 200, 400), {"x": 0, "y": 0}, runs=400)))


def _build_ber():
    return B.program(B.proc("main", ["x", "n"],
        B.while_("x < n",
            B.prob("1/2", B.assign("x", "x + 1"), B.skip()),
            B.tick(1))))


register(BenchmarkProgram(
    name="ber", category="linear", factory=_build_ber,
    paper_bound="2*|[x, n]|", source="reconstructed",
    description="Geometric progress: x advances with probability 1/2 per tick.",
    paper_time_seconds=0.008, paper_error_percent="0.026",
    simulation=SimulationPlan("n", (50, 100, 200, 400, 800), {"x": 0}, runs=400)))


def _build_bin():
    return B.program(B.proc("main", ["n"],
        B.while_("n > 0",
            B.decr_sample("n", Binomial(10, Fraction(1, 2))),
            B.tick(1))))


register(BenchmarkProgram(
    name="bin", category="linear", factory=_build_bin,
    paper_bound="0.2*|[0, n + 9]|", source="reconstructed",
    description="Countdown by binomially distributed amounts.",
    paper_time_seconds=0.281, paper_error_percent="0.290",
    simulation=SimulationPlan("n", (50, 100, 200, 400, 800), {}, runs=400)))


def _build_hyper():
    return B.program(B.proc("main", ["x", "n"],
        B.while_("x < n",
            B.incr_sample("x", HyperGeometric(20, 4, 5)),
            B.tick(5))))


register(BenchmarkProgram(
    name="hyper", category="linear", factory=_build_hyper,
    paper_bound="5*|[x, n]|", source="reconstructed",
    description="Progress by hyper-geometric increments (mean 1), 5 ticks per draw.",
    paper_time_seconds=0.013, paper_error_percent="0.061",
    simulation=SimulationPlan("n", (50, 100, 200, 400), {"x": 0}, runs=300)))


def _build_linear01():
    return B.program(B.proc("main", ["x"],
        B.while_("x > 0",
            B.prob("1/3", B.assign("x", "x - 1"), B.assign("x", "x - 2")),
            B.tick(1))))


register(BenchmarkProgram(
    name="linear01", category="linear", factory=_build_linear01,
    paper_bound="0.6*|[0, x]|", source="reconstructed",
    description="Countdown by 1 or 2 with expectation 5/3 per tick.",
    paper_time_seconds=0.016, paper_error_percent="0.036",
    simulation=SimulationPlan("x", (50, 100, 200, 400, 800), {}, runs=400)))


# ---------------------------------------------------------------------------
# Programs from the probabilistic-programming literature
# ---------------------------------------------------------------------------

def _build_race():
    """Fig. 2: the tortoise (t) and hare (h) race."""
    return B.program(B.proc("main", ["h", "t"],
        B.while_("h <= t",
            B.assign("t", "t + 1"),
            B.prob("1/2", B.incr_sample("h", Uniform(0, 10)), B.skip()),
            B.tick(1))))


register(BenchmarkProgram(
    name="race", category="linear", factory=_build_race,
    paper_bound="0.666667*|[h, t + 9]|", source="paper",
    description="Tortoise-and-hare race from [Chakarov & Sankaranarayanan 2013] (paper Fig. 2).",
    paper_time_seconds=0.245, paper_error_percent="0.294",
    simulation=SimulationPlan("t", (50, 100, 200, 400), {"h": 0}, runs=400)))


def _build_bayesian():
    """Repeated rejection sampling: each datum needs a geometric number of trials."""
    return B.program(B.proc("main", ["n"],
        B.while_("n > 0",
            B.assign("n", "n - 1"),
            B.assign("accept", "0"),
            B.while_("accept == 0",
                B.prob("1/4", B.assign("accept", "1"), B.skip()),
                B.tick(1)),
            B.tick(1))))


register(BenchmarkProgram(
    name="bayesian", category="linear", factory=_build_bayesian,
    paper_bound="5*|[0, n]|", source="reconstructed",
    description="Bayesian network sampling: geometric rejection loop per observation.",
    paper_time_seconds=0.272, paper_error_percent="0",
    simulation=SimulationPlan("n", (50, 100, 200, 400), {}, runs=400)))


def _build_condand():
    return B.program(B.proc("main", ["n", "m"],
        B.while_("n > 0 && m > 0",
            B.prob("1/2", B.assign("n", "n - 1"), B.assign("m", "m - 1")),
            B.tick(1))))


register(BenchmarkProgram(
    name="condand", category="linear", factory=_build_condand,
    paper_bound="|[0, m]| + |[0, n]|", source="reconstructed",
    description="Conjunctive guard: terminates when either counter reaches zero.",
    paper_time_seconds=0.010, paper_error_percent="A.S",
    simulation=SimulationPlan("n", (50, 100, 200, 400), {"m": 300}, runs=400)))


def _build_cooling():
    """Cooling schedule: temperature decays by random amounts, then a settling phase."""
    return B.program(B.proc("main", ["t", "st", "mt"],
        B.while_("t > 0",
            B.decr_sample("t", Uniform(0, 4)),
            B.tick(1)),
        B.while_("st < mt",
            B.assign("st", "st + 1"),
            B.tick(1))))


register(BenchmarkProgram(
    name="cooling", category="linear", factory=_build_cooling,
    paper_bound="0.42*|[0, t + 5]| + |[st, mt]|", source="reconstructed",
    description="Simulated cooling: random temperature decay followed by settling steps.",
    paper_time_seconds=0.079, paper_error_percent="0.192",
    simulation=SimulationPlan("t", (50, 100, 200, 400), {"st": 22, "mt": 32}, runs=400)))


def _build_fcall():
    """Like ``ber`` but the loop body lives in a (non-recursive) procedure."""
    return B.program(
        B.proc("main", ["x", "n"],
            B.while_("x < n",
                B.call("step"),
                B.tick(1))),
        B.proc("step", [],
            B.prob("1/2", B.assign("x", "x + 1"), B.skip())))


register(BenchmarkProgram(
    name="fcall", category="linear", factory=_build_fcall,
    paper_bound="2*|[x, n]|", source="reconstructed",
    description="ber with the probabilistic step factored into a procedure call.",
    paper_time_seconds=0.008, paper_error_percent="0.025",
    simulation=SimulationPlan("n", (50, 100, 200, 400, 800), {"x": 0}, runs=400)))


def _build_filling():
    """Filling a container by randomly sized pours of two kinds."""
    return B.program(B.proc("main", ["vol"],
        B.while_("vol > 0",
            B.prob("1/3",
                   B.decr_sample("vol", Uniform(0, 2)),
                   B.decr_sample("vol", Uniform(0, 10))),
            B.tick(1))))


register(BenchmarkProgram(
    name="filling", category="linear", factory=_build_filling,
    paper_bound="0.037037*|[0, vol + 2]| + 0.333333*|[0, vol + 10]| + 0.296296*|[0, vol + 11]|",
    source="reconstructed",
    description="Tank filling with two pour sizes chosen probabilistically.",
    paper_time_seconds=0.615, paper_error_percent="0.713",
    simulation=SimulationPlan("vol", (50, 100, 200, 400), {}, runs=400)))


def _build_miner():
    """Appendix G: the trapped-miner example (expected escape time 15/2 per trip)."""
    trapped = B.seq(
        B.assign("flag", "1"),
        B.while_("flag > 0",
            B.prob("1/3",
                   B.seq(B.assign("flag", "0"), B.tick(3)),
                   B.prob("1/2",
                          B.seq(B.assign("flag", "1"), B.tick(5)),
                          B.seq(B.assign("flag", "1"), B.tick(7))))))
    return B.program(B.proc("main", ["n"],
        B.while_("n > 0",
            B.prob("1/2", trapped, B.skip()),
            B.assign("n", "n - 1"))))


register(BenchmarkProgram(
    name="miner", category="linear", factory=_build_miner,
    paper_bound="7.5*|[0, n]|", source="paper",
    description="Trapped-miner puzzle repeated n times (paper Appendix G, Fig. 50).",
    paper_time_seconds=0.077, paper_error_percent="0.071",
    simulation=SimulationPlan("n", (50, 100, 200, 400), {}, runs=400)))


def _build_prnes():
    """Fig. 5: interacting nested loops with non-deterministic inner exit."""
    return B.program(B.proc("main", ["n", "y"],
        B.while_("n < 0",
            B.prob("9/10", B.assign("n", "n + 1"), B.skip()),
            B.assign("y", "y + 1000"),
            B.while_(B.expr("y >= 100 && *"),
                B.prob("1/2", B.assign("y", "y - 100"), B.assign("y", "y - 90")),
                B.tick(5)),
            B.tick(9))))


register(BenchmarkProgram(
    name="prnes", category="linear", factory=_build_prnes,
    paper_bound="68.4795*|[0, -n]| + 0.052631*|[0, y]|", source="paper",
    description="Nested loops with non-deterministic inner exit (paper Fig. 5).",
    paper_time_seconds=0.057, paper_error_percent="0.122",
    simulation=SimulationPlan("n", (-50, -100, -200, -400), {"y": 300}, runs=300)))


def _build_prseq():
    """Fig. 5: sequential loops where the second depends on the first."""
    return B.program(B.proc("main", ["y", "z"],
        B.while_("z - y > 2",
            B.incr_sample("y", Binomial(3, Fraction(2, 3))),
            B.tick(3)),
        B.while_("y > 9",
            B.prob("2/3", B.assign("y", "y - 10"), B.skip()),
            B.tick(1))))


register(BenchmarkProgram(
    name="prseq", category="linear", factory=_build_prseq,
    paper_bound="1.65*|[y, x]| + 0.15*|[0, y]|", source="paper",
    description="Sequential loops; the first grows y, the second consumes it (paper Fig. 5).",
    paper_time_seconds=0.057, paper_error_percent="0.144",
    simulation=SimulationPlan("z", (100, 200, 400, 800), {"y": 0}, runs=400)))


def _build_prseq_bin():
    """prseq with the binomial increment replaced by an equivalent probabilistic branch."""
    return B.program(B.proc("main", ["y", "z"],
        B.while_("z - y > 2",
            B.prob("2/3", B.assign("y", "y + 3"), B.skip()),
            B.tick(3)),
        B.while_("y > 9",
            B.prob("2/3", B.assign("y", "y - 10"), B.skip()),
            B.tick(1))))


register(BenchmarkProgram(
    name="prseq_bin", category="linear", factory=_build_prseq_bin,
    paper_bound="1.65*|[y, x]| + 0.15*|[0, y]|", source="reconstructed",
    description="prseq variant using probabilistic branching instead of binomial sampling.",
    paper_time_seconds=0.082, paper_error_percent="0.150",
    simulation=SimulationPlan("z", (100, 200, 400, 800), {"y": 0}, runs=400)))


def _build_rdspeed():
    """Fig. 4: rdspeed -- phase 1 advances y to m, phase 2 advances x to n."""
    return B.program(B.proc("main", ["x", "n", "y", "m"],
        B.while_("x + 3 <= n",
            B.if_("y < m",
                  B.incr_sample("y", Uniform(0, 1)),
                  B.incr_sample("x", Uniform(0, 3))),
            B.tick(1))))


register(BenchmarkProgram(
    name="rdspeed", category="linear", factory=_build_rdspeed,
    paper_bound="2*|[y, m]| + 0.666667*|[x, n]|", source="paper",
    description="Randomised two-phase speed example (paper Fig. 4).",
    paper_time_seconds=0.040, paper_error_percent="0.039",
    simulation=SimulationPlan("n", (100, 200, 400, 800), {"x": 0, "y": 0, "m": 100}, runs=400)))


def _build_prspeed():
    """rdspeed with the inner uniform step replaced by a probabilistic branch."""
    return B.program(B.proc("main", ["x", "n", "y", "m"],
        B.while_("x + 3 <= n",
            B.if_("y < m",
                  B.prob("1/2", B.assign("y", "y + 1"), B.skip()),
                  B.incr_sample("x", Uniform(0, 3))),
            B.tick(1))))


register(BenchmarkProgram(
    name="prspeed", category="linear", factory=_build_prspeed,
    paper_bound="2*|[y, m]| + 0.666667*|[x, n]|", source="reconstructed",
    description="Probabilistic-branching variant of rdspeed.",
    paper_time_seconds=0.057, paper_error_percent="0.039",
    simulation=SimulationPlan("n", (100, 200, 400, 800), {"x": 0, "y": 0, "m": 100}, runs=400)))


def _build_rdseql():
    return B.program(B.proc("main", ["x", "y"],
        B.while_("x > 0",
            B.assign("x", "x - 1"),
            B.prob("1/4", B.assign("y", "y + 1"), B.skip()),
            B.tick(2)),
        B.while_("y > 0",
            B.assign("y", "y - 1"),
            B.tick(1))))


register(BenchmarkProgram(
    name="rdseql", category="linear", factory=_build_rdseql,
    paper_bound="2.25*|[0, x]| + |[0, y]|", source="reconstructed",
    description="Sequential loops: the first probabilistically feeds the second.",
    paper_time_seconds=0.025, paper_error_percent="0.007",
    simulation=SimulationPlan("x", (50, 100, 200, 400, 800), {"y": 100}, runs=400)))


# ---------------------------------------------------------------------------
# Probabilistic variants of the C4B benchmarks
# ---------------------------------------------------------------------------

def _build_c4b_t09():
    """Amortised counter: the inner resets are paid by the outer increments."""
    return B.program(B.proc("main", ["x"],
        B.while_("x > 0",
            B.prob("2/3",
                   B.seq(B.assign("x", "x - 1"), B.tick(1)),
                   B.seq(B.decr_sample("x", Uniform(1, 3)), B.tick(9))))))


register(BenchmarkProgram(
    name="C4B_t09", category="linear", factory=_build_c4b_t09,
    paper_bound="8.27273*|[0, x]|", source="reconstructed",
    description="Probabilistic variant of C4B t09 with a costly rare branch.",
    paper_time_seconds=0.061, paper_error_percent="5.362",
    simulation=SimulationPlan("x", (50, 100, 200, 400, 800), {}, runs=400)))


def _build_c4b_t13():
    """Appendix G, Fig. 49: nested loop where only one inner run depends on y."""
    return B.program(B.proc("main", ["x", "y"],
        B.while_("x > 0",
            B.assign("x", "x - 1"),
            B.prob("1/4",
                   B.assign("y", "y + 1"),
                   B.while_("y > 0",
                       B.assign("y", "y - 1"),
                       B.tick(1))),
            B.tick(1))))


register(BenchmarkProgram(
    name="C4B_t13", category="linear", factory=_build_c4b_t13,
    paper_bound="1.25*|[0, x]| + |[0, y]|", source="paper",
    description="Probabilistic C4B t13 (paper Appendix G, Fig. 49).",
    paper_time_seconds=0.045, paper_error_percent="0.009",
    simulation=SimulationPlan("x", (50, 100, 200, 400, 800), {"y": 100}, runs=400)))


def _build_c4b_t15():
    """A program whose true expected cost is sub-linear; the bound stays linear."""
    return B.program(B.proc("main", ["x"],
        B.while_("x > 0",
            B.prob("1/2", B.assign("x", "x - 1"), B.assign("x", "0")),
            B.tick(1))))


register(BenchmarkProgram(
    name="C4B_t15", category="linear", factory=_build_c4b_t15,
    paper_bound="2*|[0, x]|", source="reconstructed",
    description="Sub-linear expected cost (the analysis, like Absynth, reports a linear bound).",
    paper_time_seconds=0.044, paper_error_percent="A.S",
    simulation=SimulationPlan("x", (50, 100, 200, 400, 800), {}, runs=400)))


def _build_c4b_t19():
    """Two phases governed by a threshold constant (the 100/51 constants of t19)."""
    return B.program(B.proc("main", ["i", "k"],
        B.while_("i > 100",
            B.prob("1/2", B.assign("i", "i - 1"), B.skip()),
            B.tick(1)),
        B.while_("i + k > 50",
            B.prob("1/2", B.assign("k", "k - 1"), B.assign("i", "i - 1")),
            B.tick(1))))


register(BenchmarkProgram(
    name="C4B_t19", category="linear", factory=_build_c4b_t19,
    paper_bound="|[0, k + i + 51]| + 2*|[100, i]|", source="reconstructed",
    description="Probabilistic C4B t19: threshold phase followed by a joint countdown.",
    paper_time_seconds=0.058, paper_error_percent="2.711",
    simulation=SimulationPlan("i", (150, 200, 400, 800), {"k": 200}, runs=400)))


def _build_c4b_t30():
    return B.program(B.proc("main", ["x", "y"],
        B.while_("x > 0 && y > 0",
            B.prob("1/2", B.assign("x", "x - 2"), B.assign("y", "y - 2")),
            B.tick(1))))


register(BenchmarkProgram(
    name="C4B_t30", category="linear", factory=_build_c4b_t30,
    paper_bound="0.5*|[0, x + 2]| + 0.5*|[0, y + 2]|", source="reconstructed",
    description="Joint countdown; worst case when x and y are balanced.",
    paper_time_seconds=0.032, paper_error_percent="W.C",
    simulation=SimulationPlan("x", (50, 100, 200, 400), {"y": 300}, runs=400)))


def _build_c4b_t61():
    return B.program(B.proc("main", ["l"],
        B.while_("l > 0",
            B.prob("15/16", B.assign("l", "l - 1"), B.assign("l", "l - 2")),
            B.tick(1))))


register(BenchmarkProgram(
    name="C4B_t61", category="linear", factory=_build_c4b_t61,
    paper_bound="0.060606*|[0, l - 1]| + |[0, l]|", source="reconstructed",
    description="Countdown with a rare double decrement.",
    paper_time_seconds=0.028, paper_error_percent="0.754",
    simulation=SimulationPlan("l", (50, 100, 200, 400, 800), {}, runs=400)))


# ---------------------------------------------------------------------------
# Remaining literature benchmarks
# ---------------------------------------------------------------------------

def _build_robot():
    """A robot advancing by randomly chosen step sizes (deeply nested choices)."""
    return B.program(B.proc("main", ["n"],
        B.while_("n > 0",
            B.prob("1/2",
                   B.decr_sample("n", Uniform(1, 3)),
                   B.prob("1/2",
                          B.decr_sample("n", Uniform(2, 4)),
                          B.decr_sample("n", Uniform(0, 6)))),
            B.tick(1))))


register(BenchmarkProgram(
    name="robot", category="linear", factory=_build_robot,
    paper_bound="0.384615*|[0, n + 6]|", source="reconstructed",
    description="Robot motion with nested probabilistic step-size choices.",
    paper_time_seconds=2.658, paper_error_percent="R.D",
    simulation=SimulationPlan("n", (50, 100, 200, 400), {}, runs=400)))


def _build_roulette():
    """A gambler playing until the bankroll n reaches the house limit."""
    return B.program(B.proc("main", ["n"],
        B.while_("n < 10000",
            B.prob("1/2",
                   B.incr_sample("n", Uniform(0, 10)),
                   B.decr_sample("n", Uniform(0, 9))),
            B.tick(1))))


register(BenchmarkProgram(
    name="roulette", category="linear", factory=_build_roulette,
    paper_bound="4.93333*|[n, 10010]|", source="reconstructed",
    description="Roulette-style gambling walk towards a fixed target bankroll.",
    paper_time_seconds=1.216, paper_error_percent="0.282",
    simulation=SimulationPlan("n", (9600, 9700, 9800, 9900), {}, runs=200)))


def _build_sampling():
    """Per-observation sampling: a small binomially distributed inner loop."""
    return B.program(B.proc("main", ["n"],
        B.while_("n > 0",
            B.assign("n", "n - 1"),
            B.sample("i", Binomial(2, Fraction(1, 2))),
            B.while_("i > 0",
                B.assign("i", "i - 1"),
                B.tick(1)),
            B.tick(1))))


register(BenchmarkProgram(
    name="sampling", category="linear", factory=_build_sampling,
    paper_bound="2*|[0, n]|", source="reconstructed",
    description="Sampling loop: binomial inner work per observation.",
    paper_time_seconds=3.347, paper_error_percent="0.026",
    simulation=SimulationPlan("n", (50, 100, 200, 400), {}, runs=400)))
