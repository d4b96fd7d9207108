"""Tests for the JSON-lines analysis server."""

import io
import json

from repro.service.server import AnalysisServer
from repro.service.store import ResultStore

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""


def _run(requests, store=None, workers=0):
    server = AnalysisServer(store=store, workers=workers)
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    stdout = io.StringIO()
    server.serve(stdin, stdout)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestProtocol:
    def test_ping(self):
        responses = _run([{"op": "ping"}])
        assert responses == [{"op": "ping", "ok": True}]

    def test_analyze_request(self):
        responses = _run([{"id": 7, "source": RDWALK}])
        (response,) = responses
        assert response["id"] == 7
        assert response["status"] == "ok"
        assert response["result"]["bound"]["pretty"] == "2*|[x, n]|"

    def test_analyze_with_options(self):
        responses = _run([{"source": RDWALK,
                           "options": {"max_degree": 1,
                                       "auto_degree": False}}])
        assert responses[0]["status"] == "ok"

    def test_parse_error_is_structured(self):
        responses = _run([{"source": "proc main( {"}])
        assert responses[0]["status"] == "parse-error"

    def test_malformed_line_reports_error(self):
        server = AnalysisServer()
        stdin = io.StringIO("this is not json\n")
        stdout = io.StringIO()
        server.serve(stdin, stdout)
        assert "error" in json.loads(stdout.getvalue())

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
        server = AnalysisServer()
        stdin = io.StringIO("\n\n")
        stdout = io.StringIO()
        assert server.serve(stdin, stdout) == 0


class TestStoreAndBatch:
    def test_store_serves_repeat_requests(self, tmp_path):
        store = ResultStore(str(tmp_path))
        responses = _run([{"id": 1, "source": RDWALK},
                          {"id": 2, "source": RDWALK}], store=store)
        assert [r["cached"] for r in responses] == [False, True]
        assert responses[0]["result"]["bound"] \
            == responses[1]["result"]["bound"]

    def test_batch_request(self, tmp_path):
        store = ResultStore(str(tmp_path))
        request = {"op": "batch", "id": 3, "jobs": [
            {"source": RDWALK, "name": "a"},
            {"source": RDWALK.replace("3/4", "4/5"), "name": "b"},
        ]}
        (response,) = _run([request], store=store)
        assert response["id"] == 3
        assert [r["status"] for r in response["results"]] == ["ok", "ok"]
        assert response["cache_hits"] == 0
        # Second round trips entirely through the store.
        (again,) = _run([request], store=store)
        assert again["cache_hits"] == 2

    def test_stats_op(self, tmp_path):
        store = ResultStore(str(tmp_path))
        responses = _run([{"source": RDWALK}, {"op": "stats"}], store=store)
        stats = responses[1]
        assert stats["requests_served"] == 1
        assert stats["store"]["writes"] == 1
        assert "queries" in stats["engine"]

    def test_an_empty_store_still_reports(self, tmp_path):
        # A store with no records is a configured store: stats and health
        # describe it instead of reporting no store at all.
        store = ResultStore(str(tmp_path))
        stats, health = _run([{"op": "stats"}, {"op": "health"}], store=store)
        assert stats["store"]["writes"] == 0
        assert stats["store"]["quarantine_records"] == 0
        assert health["store"]["records"] == 0
