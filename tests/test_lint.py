"""The static-diagnostics front end: every code positive AND negative.

Each R-code gets at least one program that triggers it and one near-
identical program that must stay silent -- the false-positive guard is
what makes the CI gate (``repro lint --strict`` over the registry)
trustworthy.  Also covered: span fidelity, the stable JSON schema, the
CLI exit codes, and the byte-identity of analysis results under the
pre-flight gate.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import cli
from repro.exitcodes import (EXIT_LINT, EXIT_OK, EXIT_PARSE_ERROR,
                             exit_code_for_statuses)
from repro.lang.analysis import (CODES, Diagnostic, lint_program, lint_source,
                                 max_severity, severity_counts)
from repro.lang.parser import parse_program


def codes_of(diagnostics):
    return {diag.code for diag in diagnostics}


def lint(source, **kwargs):
    return lint_source(source, **kwargs)


# ---------------------------------------------------------------------------
# Positive / negative pairs, one per code
# ---------------------------------------------------------------------------

def test_r001_parse_error_positive():
    diagnostics = lint("proc main( {")
    assert [diag.code for diag in diagnostics] == ["R001"]
    diag = diagnostics[0]
    assert diag.severity == "error"
    assert diag.span is not None and diag.span.line == 1
    # The structured record carries the position; the message must not
    # repeat it (the double-prefix regression).
    assert "line 1" not in diag.message


def test_r001_negative_on_valid_source():
    assert "R001" not in codes_of(lint("proc main(n) { tick(1); }"))


def test_r101_uninitialized_read_positive():
    diagnostics = lint("proc main(n) {\n  x = q + 1;\n}")
    r101 = [diag for diag in diagnostics if diag.code == "R101"]
    assert len(r101) == 1 and "'q'" in r101[0].message
    assert r101[0].span.line == 2


def test_r101_negative_when_assigned_first():
    source = "proc main(n) {\n  q = 1;\n  x = q + 1;\n}"
    assert "R101" not in codes_of(lint(source))


def test_r102_possibly_uninitialized_positive():
    source = ("proc main(n) {\n"
              "  if (n > 0) { t = 1; }\n"
              "  tick(t);\n"
              "}")
    r102 = [diag for diag in lint(source) if diag.code == "R102"]
    assert len(r102) == 1 and "'t'" in r102[0].message
    assert r102[0].span.line == 3


def test_r102_negative_when_both_branches_assign():
    source = ("proc main(n) {\n"
              "  if (n > 0) { t = 1; } else { t = 2; }\n"
              "  tick(t);\n"
              "}")
    assert codes_of(lint(source)).isdisjoint({"R101", "R102"})


def test_r103_unused_declaration_positive():
    diagnostics = lint("proc main(n, unused) { tick(n); }")
    r103 = [diag for diag in diagnostics if diag.code == "R103"]
    assert len(r103) == 1 and "'unused'" in r103[0].message


def test_r103_negative_when_used_through_call():
    # Under the global-state convention a main parameter may only be
    # touched inside a callee -- that still counts as used.
    source = ("proc main(h) { call helper; }\n"
              "proc helper() { h = h - 1; }")
    assert "R103" not in codes_of(lint(source))


def test_r104_duplicate_declaration_positive():
    diagnostics = lint("proc main(n) { local t, t; t = n; tick(t); }")
    r104 = [diag for diag in diagnostics if diag.code == "R104"]
    assert len(r104) == 1 and "'t'" in r104[0].message


def test_r104_negative_for_distinct_locals():
    source = "proc main(n) { local s, t; s = n; t = s; tick(t); }"
    assert "R104" not in codes_of(lint(source))


def test_r105_undefined_procedure_positive():
    diagnostics = lint("proc main(n) { call nosuch; }")
    r105 = [diag for diag in diagnostics if diag.code == "R105"]
    assert len(r105) == 1 and "'nosuch'" in r105[0].message
    assert r105[0].severity == "error"


def test_r105_negative_for_defined_procedure():
    source = "proc main(n) { call helper; }\nproc helper() { tick(1); }"
    assert "R105" not in codes_of(lint(source))


def test_r201_degenerate_probability_positive():
    source = "proc main(n) { prob(1) { tick(1); } else { tick(2); } }"
    r201 = [diag for diag in lint(source) if diag.code == "R201"]
    assert len(r201) == 1


def test_r201_negative_for_proper_probability():
    source = "proc main(n) { prob(1/2) { tick(1); } else { tick(2); } }"
    assert "R201" not in codes_of(lint(source))


def test_r202_negative_tick_positive():
    r202 = [diag for diag in lint("proc main(n) { tick(0 - 2); }")
            if diag.code == "R202"]
    assert len(r202) == 1


def test_r202_negative_for_positive_tick():
    assert "R202" not in codes_of(lint("proc main(n) { tick(2); }"))


def test_r203_deterministic_distribution_positive():
    source = "proc main(n) { x = unif(2, 2); tick(x); }"
    r203 = [diag for diag in lint(source) if diag.code == "R203"]
    assert len(r203) == 1 and "always" in r203[0].message


def test_r203_negative_for_spread_distribution():
    source = "proc main(n) { x = unif(0, 2); tick(x); }"
    assert "R203" not in codes_of(lint(source))


def test_r301_constant_condition_positive():
    source = "proc main(n) { if (1 > 0) { tick(1); } else { tick(2); } }"
    r301 = [diag for diag in lint(source) if diag.code == "R301"]
    assert len(r301) == 1


def test_r301_negative_for_input_dependent_condition():
    source = "proc main(n) { if (n > 0) { tick(1); } else { tick(2); } }"
    assert "R301" not in codes_of(lint(source))


def test_r302_unreachable_code_positive():
    source = "proc main(n) { if (1 > 0) { tick(1); } else { tick(2); } }"
    r302 = [diag for diag in lint(source) if diag.code == "R302"]
    assert len(r302) == 1   # the else branch is dead


def test_r302_negative_when_both_branches_live():
    source = "proc main(n) { if (n > 0) { tick(1); } else { tick(2); } }"
    assert "R302" not in codes_of(lint(source))


def test_r303_divergent_loop_positive():
    source = "proc main(n) { while (1 > 0) { tick(1); } }"
    r303 = [diag for diag in lint(source) if diag.code == "R303"]
    assert len(r303) == 1


def test_r303_guard_never_modified_positive():
    source = "proc main(n) { while (n > 0) { tick(1); } }"
    assert "R303" in codes_of(lint(source))


def test_r303_negative_for_decrementing_loop():
    source = "proc main(n) { while (n > 0) { tick(1); n = n - 1; } }"
    assert "R303" not in codes_of(lint(source))


def test_r303_negative_when_body_can_stop():
    # An assert in the body can terminate the program, so a constant
    # guard alone does not prove divergence.
    source = ("proc main(n) {\n"
              "  while (1 > 0) { tick(1); assert(n > 0); n = n - 1; }\n"
              "}")
    assert "R303" not in codes_of(lint(source))


def test_r401_overflow_risk_positive():
    source = ("proc main(n) {\n"
              "  x = 2305843009213693952;\n"   # 2^61: still representable
              "  y = x * 4;\n"                 # 2^63: over the limit
              "}")
    r401 = [diag for diag in lint(source) if diag.code == "R401"]
    assert len(r401) == 1
    assert r401[0].span.line == 3


def test_r401_negative_for_small_values():
    source = "proc main(n) { x = 1000000; y = x * 4; tick(y); }"
    assert "R401" not in codes_of(lint(source))


def test_r401_negative_for_unbounded_but_widened_values():
    # The interval for n is top (no finite bound), so no overflow claim.
    source = "proc main(n) { y = n * n; tick(1); }"
    assert "R401" not in codes_of(lint(source))


def test_r501_not_vectorizable_positive():
    source = "proc main(n) { x = 9223372036854775807; tick(1); }"
    r501 = [diag for diag in lint(source) if diag.code == "R501"]
    assert len(r501) == 1
    assert r501[0].severity == "info"
    assert "2^61" in r501[0].message


def test_r501_negative_for_vectorizable_program():
    source = "proc main(n) { while (n > 0) { tick(1); n = n - 1; } }"
    assert "R501" not in codes_of(lint(source))


def test_r502_not_analyzable_positive():
    source = "proc main(n) { tick(n * n); }"
    r502 = [diag for diag in lint(source) if diag.code == "R502"]
    assert len(r502) == 1
    assert r502[0].severity == "info"
    assert "not linear" in r502[0].message


def test_r502_negative_for_linear_ticks():
    source = "proc main(n) { tick(n + 1); }"
    assert "R502" not in codes_of(lint(source))


# ---------------------------------------------------------------------------
# Structure: spans, ordering, schema, helpers
# ---------------------------------------------------------------------------

def test_every_code_has_a_registered_severity():
    assert set(CODES) == {
        "R001", "R101", "R102", "R103", "R104", "R105",
        "R201", "R202", "R203", "R301", "R302", "R303",
        "R401", "R501", "R502",
    }
    for severity, _title in CODES.values():
        assert severity in ("error", "warning", "info")


def test_diagnostics_are_source_ordered_and_deduplicated():
    source = ("proc main(n) {\n"
              "  a = q + 1;\n"
              "  b = q + 2;\n"
              "  while (1 > 0) { tick(1); }\n"
              "}")
    diagnostics = lint(source)
    keys = [(diag.span.line if diag.span else 0, diag.code)
            for diag in diagnostics]
    assert keys == sorted(keys)
    assert len(set((d.code, d.message,
                    d.span.line if d.span else 0) for d in diagnostics)) \
        == len(diagnostics)
    # The R101 for q is reported once (deduplicated by variable).
    assert sum(1 for diag in diagnostics if diag.code == "R101") == 1


def test_json_schema_is_stable():
    diagnostics = lint("proc main(n) {\n  x = q + 1;\n}")
    payload = [diag.to_dict() for diag in diagnostics]
    for record in payload:
        assert set(record) == {"code", "severity", "line", "column",
                               "message", "hint", "procedure"}
    # Round trip through JSON preserves everything.
    rebuilt = [Diagnostic.from_dict(record)
               for record in json.loads(json.dumps(payload))]
    assert rebuilt == list(diagnostics)


def test_severity_helpers():
    diagnostics = lint("proc main(n) {\n  x = q + 1;\n  tick(0 - 1);\n}")
    counts = severity_counts(diagnostics)
    assert counts["error"] >= 1 and counts["warning"] >= 1
    assert max_severity(diagnostics) == "error"
    assert max_severity([]) is None


def test_unknown_code_is_rejected():
    with pytest.raises(ValueError):
        Diagnostic(code="R999", message="nope")


def test_lint_program_accepts_initial_state_override():
    program = parse_program("proc main(n) { cost = cost + n; tick(1); }")
    assert "R102" in codes_of(lint_program(program)) \
        or "R101" in codes_of(lint_program(program))
    seeded = lint_program(program, initial_state={"n", "cost"})
    assert codes_of(seeded).isdisjoint({"R101", "R102"})


# ---------------------------------------------------------------------------
# Registry cleanliness (the CI gate's precondition)
# ---------------------------------------------------------------------------

def test_registry_benchmarks_are_lint_clean():
    from repro.bench.registry import benchmark_names, get_benchmark

    dirty = {}
    for name in benchmark_names():
        benchmark = get_benchmark(name)
        source = benchmark.source_text()
        counter = benchmark.analyzer_options.get("resource_counter")
        program = parse_program(source)
        initial = set(program.main_procedure.params)
        if counter:
            initial.add(counter)
        diagnostics = lint_source(source, initial_state=initial)
        if diagnostics:
            dirty[name] = [diag.format() for diag in diagnostics]
    assert not dirty, f"benchmarks with diagnostics: {dirty}"


# ---------------------------------------------------------------------------
# CLI: exit codes and JSON output
# ---------------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_lint_clean_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "ok.imp",
                  "proc main(n) { while (n > 0) { tick(1); n = n - 1; } }\n")
    assert cli.main(["lint", path]) == EXIT_OK
    assert "clean" in capsys.readouterr().out


def test_cli_lint_error_exits_lint_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.imp", "proc main(n) { x = q + 1; }\n")
    assert cli.main(["lint", path]) == EXIT_LINT
    out = capsys.readouterr().out
    assert "R101" in out


def test_cli_lint_parse_error_exits_parse_code(tmp_path, capsys):
    path = _write(tmp_path, "broken.imp", "proc main( {\n")
    assert cli.main(["lint", path]) == EXIT_PARSE_ERROR
    assert "R001" in capsys.readouterr().out


def test_cli_lint_strict_fails_on_warnings(tmp_path, capsys):
    source = "proc main(n, unused) { while (n > 0) { tick(1); n = n - 1; } }\n"
    path = _write(tmp_path, "warn.imp", source)
    assert cli.main(["lint", path]) == EXIT_OK
    capsys.readouterr()
    assert cli.main(["lint", "--strict", path]) == EXIT_LINT


def test_cli_lint_info_never_fails(tmp_path, capsys):
    path = _write(tmp_path, "info.imp", "proc main(n) { tick(n * n); }\n")
    assert cli.main(["lint", "--strict", path]) == EXIT_OK
    assert "R502" in capsys.readouterr().out


def test_cli_lint_json_schema(tmp_path, capsys):
    path = _write(tmp_path, "bad.imp", "proc main(n) { x = q + 1; }\n")
    code = cli.main(["lint", "--json", path])
    assert code == EXIT_LINT
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"schema", "strict", "targets"}
    assert payload["schema"] == 1
    target, = payload["targets"]
    assert set(target) == {"name", "status", "counts", "diagnostics"}
    assert target["status"] == "lint-error"
    assert target["counts"]["error"] == 1
    record, = [item for item in target["diagnostics"]
               if item["code"] == "R101"]
    assert set(record) == {"code", "severity", "line", "column",
                           "message", "hint", "procedure"}


def test_cli_lint_registry_selector_is_clean(capsys):
    assert cli.main(["lint", "--strict", "--quiet", "trader"]) == EXIT_OK


def test_cli_list_lint_column(capsys):
    assert cli.main(["list", "--lint"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all("\t" in line for line in lines)
    assert all(line.split("\t")[1] == "clean" for line in lines)


def test_exit_code_aggregation_prefers_parse_errors():
    assert exit_code_for_statuses(["ok", "lint-error"]) == EXIT_LINT
    assert exit_code_for_statuses(["lint-error", "parse-error"]) \
        == EXIT_PARSE_ERROR
    assert exit_code_for_statuses(["ok"]) == EXIT_OK


# ---------------------------------------------------------------------------
# The pre-flight gate: observe-only for accepted programs
# ---------------------------------------------------------------------------

def test_preflight_gate_is_byte_identical_for_accepted_programs():
    from repro.core.analyzer import analyze_program
    from repro.service.jobs import bound_payload, certificate_payload

    program = parse_program(
        "proc main(n) { while (n > 0) { tick(1); n = n - 1; } }")
    plain = analyze_program(program)
    gated = analyze_program(program, preflight=True)
    assert plain.success and gated.success
    assert json.dumps(bound_payload(plain.bound), sort_keys=True) \
        == json.dumps(bound_payload(gated.bound), sort_keys=True)

    def normalized(certificate):
        # ``node_id`` comes from a process-global counter advanced by every
        # AST construction, so ANY two in-process analyses differ on it
        # (including plain-vs-plain) -- byte-identity is about the
        # certificate *content*.  Ids also leak into ``origin`` strings as
        # ``loop-head@1956``, so scrub those too.
        payload = certificate_payload(certificate)
        for point in payload.get("points", []):
            point.pop("node_id", None)
        return re.sub(r"@\d+", "@N", json.dumps(payload, sort_keys=True))

    assert normalized(plain.certificate) == normalized(gated.certificate)
    assert plain.diagnostics == ()


def test_preflight_gate_rejects_error_severity():
    from repro.core.analyzer import analyze_program

    program = parse_program("proc main(n) { x = q + 1; tick(x); }")
    result = analyze_program(program, preflight=True)
    assert not result.success
    assert result.failure_kind == "lint-error"
    assert any(diag.code == "R101" for diag in result.diagnostics)
    assert result.lp_variables == 0   # the pipeline never ran


def test_preflight_diagnostics_flow_into_job_results():
    from repro.service.jobs import AnalysisJob, JobResult, run_job

    job = AnalysisJob.create(
        "gated", "proc main(n) { x = q + 1; tick(x); }",
        {"preflight": True})
    result = run_job(job)
    assert result.status == "lint-error"
    assert result.cacheable
    codes = [item["code"] for item in result.diagnostics]
    assert "R101" in codes   # param ``n`` is unused, so R103 rides along
    rebuilt = JobResult.from_record(result.to_record())
    assert rebuilt.diagnostics == result.diagnostics


def test_gateway_lint_op(tmp_path):
    from repro.service.gateway import GatewayClient, GatewayThread

    with GatewayThread(workers=0, store=None) as (host, port):
        with GatewayClient(host, port) as client:
            response = client.lint("proc main(n) { x = q + 1; }",
                                   name="demo")
            assert response["op"] == "lint"
            assert response["severity"] == "error"
            assert response["counts"]["error"] == 1
            codes = [item["code"] for item in response["diagnostics"]]
            assert "R101" in codes
            broken = client.lint("proc main( {")
            assert [item["code"] for item in broken["diagnostics"]] \
                == ["R001"]


def test_stdio_server_lint_op():
    import io
    import json

    from repro.service.gateway import AnalysisGateway, run_stdio

    stdout = io.StringIO()
    request = {"op": "lint",
               "source": "proc main(n) { cost = cost + n; tick(1); }",
               "options": {"resource_counter": "cost"}}
    run_stdio(AnalysisGateway(), io.StringIO(json.dumps(request) + "\n"),
              stdout)
    response = json.loads(stdout.getvalue())
    assert response["op"] == "lint"
    assert response["severity"] is None
    assert response["diagnostics"] == []
