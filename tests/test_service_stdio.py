"""Tests for the stdio transport of the analysis gateway (``repro serve``).

In-process tests drive :func:`~repro.service.gateway.run_stdio` with
in-memory streams; the subprocess tests run the real CLI to check the
process contract: exit 0 after EOF, ``shutdown``, SIGINT/SIGTERM or a
reader hang-up, and stdin as a pipe or a regular file.
"""

import io
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.service.gateway import (AnalysisGateway, GatewayClient,
                                   GatewayThread, run_stdio)
from repro.service.store import ResultStore

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""

_SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _lines(requests):
    return "".join((r if isinstance(r, str) else json.dumps(r)) + "\n"
                   for r in requests)


def _run(requests, **gateway_options):
    stdout = io.StringIO()
    code = run_stdio(AnalysisGateway(**gateway_options),
                     io.StringIO(_lines(requests)), stdout)
    assert code == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def _cli(*args, **popen):
    env = {**os.environ, "PYTHONPATH": _SRC_DIR}
    env.update(popen.pop("env", {}))
    return subprocess.Popen([sys.executable, "-m", "repro.cli", "serve",
                             *args], env=env, text=True, **popen)


class TestProtocol:
    def test_ping(self):
        assert _run([{"op": "ping"}]) == [{"op": "ping", "ok": True}]

    def test_analyze_request(self):
        (response,) = _run([{"id": 7, "source": RDWALK}])
        assert response["id"] == 7
        assert response["status"] == "ok"
        assert response["tier"] == "computed"
        assert response["result"]["bound"]["pretty"] == "2*|[x, n]|"

    def test_analyze_with_options(self):
        responses = _run([{"source": RDWALK,
                           "options": {"max_degree": 1,
                                       "auto_degree": False}}])
        assert responses[0]["status"] == "ok"

    def test_parse_error_is_structured(self):
        responses = _run([{"source": "proc main( {"}])
        assert responses[0]["status"] == "parse-error"

    def test_malformed_line_reports_error_and_serving_continues(self):
        responses = _run(["this is not json", {"op": "ping"}])
        assert "error" in responses[0]
        assert responses[1] == {"op": "ping", "ok": True}

    def test_missing_source_reports_error(self):
        responses = _run([{"op": "analyze"}])
        assert "error" in responses[0]

    def test_unknown_op(self):
        responses = _run([{"op": "frobnicate"}])
        assert "error" in responses[0]

    def test_unknown_option_is_a_bad_request(self):
        responses = _run([{"id": 3, "source": RDWALK,
                           "options": {"solver": "scipy"}},
                          {"op": "batch", "id": 4,
                           "jobs": [{"source": RDWALK,
                                     "options": {"bogus": 1}}]},
                          {"op": "ping"}])
        assert responses[0] == {"id": 3, "error": responses[0]["error"]}
        assert "unknown analyzer option 'solver'" in responses[0]["error"]
        assert responses[1]["id"] == 4
        assert "unknown analyzer option 'bogus'" in responses[1]["error"]
        assert responses[2] == {"op": "ping", "ok": True}

    def test_shutdown_stops_the_loop(self):
        responses = _run([{"op": "shutdown", "id": 1},
                          {"op": "ping"}])           # never reached
        assert responses == [{"op": "shutdown", "ok": True, "id": 1}]

    def test_blank_lines_are_skipped(self):
        assert _run(["", ""]) == []

    def test_responses_follow_input_order(self):
        requests = [{"id": 1, "source": RDWALK},
                    {"op": "batch", "id": 2,
                     "jobs": [{"source": RDWALK.replace("3/4", "4/5")},
                              {"source": RDWALK}]},
                    {"op": "ping", "id": 3},
                    {"id": 4, "source": RDWALK.replace("3/4", "5/6")},
                    {"op": "stats", "id": 5}]
        responses = _run(requests, workers=2)
        assert [r["id"] for r in responses] == [1, 2, 2, 2, 3, 4, 5]
        assert [r["op"] for r in responses[1:4]] \
            == ["batch-result", "batch-result", "batch-done"]


class TestStoreAndBatch:
    def test_repeat_requests_come_from_the_tiers(self, tmp_path):
        store = ResultStore(str(tmp_path))
        responses = _run([{"id": 1, "source": RDWALK},
                          {"id": 2, "source": RDWALK}], store=store)
        assert [r["cached"] for r in responses] == [False, True]
        assert [r["tier"] for r in responses] == ["computed", "memory"]
        assert responses[0]["result"]["bound"] \
            == responses[1]["result"]["bound"]
        # A fresh gateway over the same root answers from the disk store.
        (again,) = _run([{"id": 3, "source": RDWALK}], store=store)
        assert again["tier"] == "store"

    def test_batch_streams_results_then_summary(self, tmp_path):
        store = ResultStore(str(tmp_path))
        request = {"op": "batch", "id": 3, "jobs": [
            {"source": RDWALK, "name": "a"},
            {"source": RDWALK.replace("3/4", "4/5"), "name": "b"},
        ]}
        *results, done = _run([request], store=store)
        assert {r["id"] for r in results + [done]} == {3}
        assert sorted(r["index"] for r in results) == [0, 1]
        assert [r["status"] for r in results] == ["ok", "ok"]
        assert {r["tier"] for r in results} == {"computed"}
        assert done == {"op": "batch-done", "jobs": 2, "busy": 0,
                        "failed": 0, "wall_seconds": done["wall_seconds"],
                        "id": 3}
        # Second round trips entirely through the store.
        *again, _ = _run([request], store=store)
        assert {r["tier"] for r in again} == {"store"}

    def test_stats_op(self, tmp_path):
        store = ResultStore(str(tmp_path))
        responses = _run([{"source": RDWALK}, {"op": "stats"}], store=store)
        stats = responses[1]
        assert stats["gateway"]["requests"] == 2
        assert stats["gateway"]["analyses"] == 1
        assert stats["gateway"]["connections"] == 1
        assert stats["store"]["writes"] == 1

    def test_an_empty_store_still_reports(self, tmp_path):
        # A store with no records is a configured store: stats and health
        # describe it instead of reporting no store at all.
        store = ResultStore(str(tmp_path))
        stats, health = _run([{"op": "stats"}, {"op": "health"}], store=store)
        assert stats["store"]["writes"] == 0
        assert stats["store"]["quarantine_records"] == 0
        assert health["store"] == {"root": store.root,
                                   "quarantine_records": 0}
        assert health["address"] is None


class TestOptionsMustBeAnObject:
    """Only a missing or ``null`` ``options`` means "no options"; any other
    non-object is a bad request on either transport."""

    BAD = [[], 0, "", False]

    def _requests(self, options):
        return [{"id": 1, "source": RDWALK, "options": options},
                {"op": "batch", "id": 2,
                 "jobs": [{"source": RDWALK, "options": options}]},
                {"op": "lint", "id": 3, "source": RDWALK,
                 "options": options}]

    def _tcp(self, requests):
        with GatewayThread(workers=0) as (host, port):
            with GatewayClient(host, port) as client:
                return [client.request(request) for request in requests]

    @pytest.mark.parametrize("transport", ["stdio", "tcp"])
    @pytest.mark.parametrize("options", BAD)
    def test_non_object_options_are_rejected(self, transport, options):
        requests = self._requests(options)
        responses = _run(requests) if transport == "stdio" \
            else self._tcp(requests)
        assert responses == [
            {"id": index, "error": "'options' must be an object"}
            for index in (1, 2, 3)]

    @pytest.mark.parametrize("transport", ["stdio", "tcp"])
    def test_null_options_mean_none(self, transport):
        requests = self._requests(None)
        requests[1] = {"op": "ping", "id": 2}
        responses = _run(requests) if transport == "stdio" \
            else self._tcp(requests)
        assert [r.get("status") for r in responses] == ["ok", None, None]
        assert responses[2]["op"] == "lint"


def _normalise(response):
    """A response without timings, engine counters, address and AST node
    ids (a process-wide counter numbers the nodes of each parse, and
    weakening origins such as ``loop-head@12`` carry them)."""
    if isinstance(response, dict):
        return {key: _normalise(value) for key, value in response.items()
                if not key.endswith("seconds")
                and key not in ("engine", "address", "node_id")}
    if isinstance(response, list):
        return [_normalise(item) for item in response]
    if isinstance(response, str):
        return re.sub(r"@\d+", "@", response)
    return response


def test_stdio_and_tcp_answer_a_script_alike(tmp_path):
    """One dispatcher: the same requests get the same answers on both."""
    from repro.core.rewrite import clear_rewrite_caches
    from repro.logic.entailment import reset_engine

    script = [{"op": "ping"},
              {"id": 1, "source": RDWALK, "name": "walk"},
              {"id": 2, "source": RDWALK, "name": "again"},
              {"op": "batch", "id": 3,
               "jobs": [{"source": RDWALK},
                        {"source": RDWALK.replace("3/4", "4/5")},
                        {"source": "proc main( {"}]},
              {"op": "lint", "id": 4, "source": "proc main(n) { x = q; }"},
              "not json",
              {"op": "frobnicate", "id": 5},
              {"id": 6, "source": RDWALK, "options": {"bogus": 1}},
              {"op": "stats", "id": 7},
              {"op": "health", "id": 8}]

    def key(response):
        return (str(response.get("id")), response.get("op", ""),
                response.get("index", -1), json.dumps(response))

    reset_engine()
    clear_rewrite_caches()
    stdio = _run(script, store=ResultStore(str(tmp_path / "stdio")))

    reset_engine()
    clear_rewrite_caches()
    tcp = []
    with GatewayThread(store=ResultStore(str(tmp_path / "tcp")),
                       workers=0) as (host, port):
        with GatewayClient(host, port) as client:
            for request in script:
                if isinstance(request, str):
                    client._writer.write(request + "\n")
                    client._writer.flush()
                    tcp.append(client.read())
                elif request.get("op") == "batch":
                    tcp.extend(client.batch(request["jobs"], request["id"]))
                else:
                    tcp.append(client.request(request))
    for answers in (stdio, tcp):
        for response in answers:
            if response.get("op") == "health":
                # Each store has its own root.
                response["store"].pop("root")
    assert len(stdio) == len(script) + 3
    assert sorted(map(_normalise, stdio), key=key) \
        == sorted(map(_normalise, tcp), key=key)


class TestProcessContract:
    """The CLI process: every way to stop it exits 0."""

    def test_stdin_from_a_regular_file(self, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(_lines([{"op": "ping", "id": 1},
                                    {"id": 2, "source": RDWALK},
                                    "not json",
                                    {"op": "ping", "id": 3}]))
        with open(requests, encoding="utf-8") as stdin:
            process = _cli("--no-cache", stdin=stdin, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
            out, err = process.communicate(timeout=60)
        assert process.returncode == 0, err
        responses = [json.loads(line) for line in out.splitlines()]
        assert [r.get("id") for r in responses] == [1, 2, None, 3]
        assert responses[1]["status"] == "ok"
        assert "error" in responses[2]

    def test_signal_with_stdin_a_terminal_exits(self):
        import pty

        controller, terminal = pty.openpty()
        try:
            process = _cli("--no-cache", stdin=terminal,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            os.write(controller, _lines([{"op": "ping"}]).encode())
            assert json.loads(process.stdout.readline())["ok"] is True
            # Idle, blocked reading the terminal.
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            assert process.stderr.read() == ""
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
            process.stdout.close()
            process.stderr.close()
            os.close(controller)
            os.close(terminal)

    def test_eof_answers_the_last_request_then_exits(self):
        process = _cli("--no-cache", stdin=subprocess.PIPE,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = process.communicate(_lines([{"id": 1, "source": RDWALK}]),
                                       timeout=60)
        assert process.returncode == 0, err
        (response,) = [json.loads(line) for line in out.splitlines()]
        assert response["id"] == 1 and response["status"] == "ok"

    def test_shutdown_request_exits_with_stdin_still_open(self):
        process = _cli("--no-cache", stdin=subprocess.PIPE,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            process.stdin.write(_lines([{"id": 1, "source": RDWALK},
                                        {"op": "shutdown", "id": 2}]))
            process.stdin.flush()
            assert process.wait(timeout=60) == 0
            responses = [json.loads(line)
                         for line in process.stdout.read().splitlines()]
            assert [r["id"] for r in responses] == [1, 2]
            assert responses[0]["status"] == "ok"
            assert responses[1]["ok"] is True
            assert process.stderr.read() == ""
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
            for stream in (process.stdin, process.stdout, process.stderr):
                stream.close()

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_mid_request_answers_it_then_exits(self, signum,
                                                      tmp_path):
        # Every store write sleeps 3 s, so the analysis is still in flight
        # when the signal lands half a second after the request.
        process = _cli("--cache-dir", str(tmp_path), stdin=subprocess.PIPE,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       env={"REPRO_FAULTS": "store-write-slow:duration=3"})
        try:
            process.stdin.write(_lines([{"op": "ping"}]))
            process.stdin.flush()
            assert json.loads(process.stdout.readline())["ok"] is True
            process.stdin.write(_lines([{"id": 1, "source": RDWALK}]))
            process.stdin.flush()
            try:
                process.wait(timeout=0.5)
            except subprocess.TimeoutExpired:
                pass
            process.send_signal(signum)
            assert process.wait(timeout=30) == 0
            response = json.loads(process.stdout.readline())
            assert response["id"] == 1 and response["status"] == "ok"
            assert process.stdout.read() == ""
            assert process.stderr.read() == ""
            # The in-flight store write landed before the exit.
            assert ResultStore(str(tmp_path)).disk_stats()["entries"] == 1
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
            for stream in (process.stdin, process.stdout, process.stderr):
                stream.close()

    def test_reader_hangup_exits_cleanly(self):
        process = _cli("--no-cache", stdin=subprocess.PIPE,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            process.stdin.write(_lines([{"op": "ping"}]))
            process.stdin.flush()
            assert json.loads(process.stdout.readline())["ok"] is True
            process.stdout.close()
            # The answer to this request meets a closed pipe.
            process.stdin.write(_lines([{"op": "ping"}]))
            process.stdin.flush()
            assert process.wait(timeout=30) == 0
            assert process.stderr.read() == ""
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
            process.stdin.close()
            process.stderr.close()
