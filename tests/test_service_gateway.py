"""Tests for the asyncio analysis gateway (and graceful shutdown).

The gateway runs on a background thread with an ephemeral port
(:class:`~repro.service.gateway.GatewayThread`) and is exercised through
real TCP connections -- the same path production clients take.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service.gateway import (AnalysisGateway, GatewayClient,
                                   GatewayThread, run_gateway)
from repro.service.store import ResultStore

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""

#: A distinct (slower) program for backpressure tests.
SLOW_SOURCE = RDWALK.replace("tick(1)", "tick(2)")

_SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _variant(seed: int) -> str:
    """A semantically-identical program with a fresh content hash."""
    return RDWALK.replace("x + 1", f"x + 2 - 1 + {seed} - {seed}")


@pytest.fixture
def gateway(tmp_path):
    thread = GatewayThread(store=ResultStore(str(tmp_path)), workers=0,
                           hot_cache_size=8)
    host, port = thread.start()
    yield host, port, thread.gateway
    thread.stop()


class TestOps:
    def test_ping(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            assert client.ping() == {"op": "ping", "ok": True}

    def test_health_shape(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            health = client.health()
        assert health["ok"] is True
        assert health["pool"] == {"workers": 0, "inline": True}
        assert health["hot_cache"]["max_entries"] == 8
        assert health["address"][1] == port

    def test_stats_shape(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            client.analyze(RDWALK, name="rdwalk")
            stats = client.stats()
        assert stats["gateway"]["analyses"] == 1
        assert stats["queue_limit"] >= 1
        assert stats["store"]["writes"] == 1

    def test_unknown_op_is_an_error(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            response = client.request({"op": "frobnicate", "id": 9})
        assert "unknown op" in response["error"]
        assert response["id"] == 9

    def test_malformed_line_is_an_error_not_a_crash(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            client._writer.write("this is not json\n")
            client._writer.flush()
            response = client.read()
            assert "error" in response
            # The connection survives the bad line.
            assert client.ping()["ok"] is True

    def test_missing_source_is_an_error(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            response = client.request({"op": "analyze"})
        assert "source" in response["error"]

    def test_unknown_option_is_a_bad_request(self, gateway):
        host, port, thread_gateway = gateway
        with GatewayClient(host, port) as client:
            response = client.analyze(RDWALK, options={"prefilter": False},
                                      request_id=5)
            batch = list(client.batch([{"source": RDWALK,
                                        "options": {"bogus": 1}}],
                                      request_id=6))
            assert client.ping()["ok"] is True
        assert response == {"id": 5, "error": response["error"]}
        assert "unknown analyzer option 'prefilter'" in response["error"]
        assert len(batch) == 1 and batch[0]["id"] == 6
        assert "unknown analyzer option 'bogus'" in batch[0]["error"]
        # Rejected before any tier: nothing was analyzed.
        assert thread_gateway.stats.analyses == 0


class TestTiers:
    def test_cold_then_memory(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            cold = client.analyze(RDWALK, name="rdwalk")
            warm = client.analyze(RDWALK, name="rdwalk")
        assert cold["status"] == "ok" and cold["tier"] == "computed"
        assert not cold["cached"]
        assert warm["tier"] == "memory" and warm["cached"]
        assert warm["result"]["bound"] == cold["result"]["bound"]

    def test_store_tier_without_hot_cache(self, tmp_path):
        thread = GatewayThread(store=ResultStore(str(tmp_path)), workers=0,
                               hot_cache_size=0)
        host, port = thread.start()
        try:
            with GatewayClient(host, port) as client:
                cold = client.analyze(RDWALK)
                again = client.analyze(RDWALK)
            assert cold["tier"] == "computed"
            assert again["tier"] == "store" and again["cached"]
        finally:
            thread.stop()

    def test_result_is_relabelled_per_request(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            first = client.analyze(RDWALK, name="alpha")
            second = client.analyze(RDWALK, name="beta")
        assert first["result"]["name"] == "alpha"
        assert second["result"]["name"] == "beta"
        assert second["tier"] == "memory"

    def test_request_ids_echo_and_pipeline(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            client.send({"op": "analyze", "source": RDWALK, "id": "a"})
            client.send({"op": "ping", "id": "b"})
            responses = {client.read()["id"]: None for _ in range(2)}
        # Both requests answered, matched by id (completion order may vary).
        assert set(responses) == {"a", "b"}


class TestCoalescing:
    def test_duplicate_storm_costs_one_analysis(self, gateway):
        host, port, gw = gateway
        source = _variant(1)
        clients = 8
        responses = [None] * clients
        failures = []
        barrier = threading.Barrier(clients)

        def storm(index):
            try:
                with GatewayClient(host, port) as client:
                    barrier.wait()
                    responses[index] = client.analyze(source, name="storm")
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=storm, args=(index,))
                   for index in range(clients)]
        before = gw.stats.analyses
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert all(response["status"] == "ok" for response in responses)
        assert gw.stats.analyses - before == 1
        distinct = {json.dumps(response["result"], sort_keys=True)
                    for response in responses}
        assert len(distinct) == 1

    def test_duplicates_within_one_batch_coalesce(self, gateway):
        host, port, gw = gateway
        source = _variant(2)
        before = gw.stats.analyses
        with GatewayClient(host, port) as client:
            messages = list(client.batch(
                [{"source": source}, {"source": source},
                 {"source": source}], request_id=5))
        results = [message for message in messages
                   if message["op"] == "batch-result"]
        done = messages[-1]
        assert done["op"] == "batch-done" and done["jobs"] == 3
        assert done["id"] == 5
        assert sorted(message["index"] for message in results) == [0, 1, 2]
        assert all(message["status"] == "ok" for message in results)
        assert gw.stats.analyses - before == 1


class TestBatchStreaming:
    def test_batch_streams_results_then_summary(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            messages = list(client.batch([
                {"source": RDWALK, "name": "good"},
                {"source": "proc main( {", "name": "broken"},
            ]))
        assert [message["op"] for message in messages[:-1]] \
            == ["batch-result"] * 2
        statuses = {message["index"]: message["status"]
                    for message in messages[:-1]}
        assert statuses[0] == "ok" and statuses[1] == "parse-error"
        done = messages[-1]
        assert done["op"] == "batch-done"
        assert done["jobs"] == 2 and done["failed"] == 1

    def test_empty_batch_is_an_error(self, gateway):
        host, port, _ = gateway
        with GatewayClient(host, port) as client:
            response = client.request({"op": "batch", "jobs": []})
        assert "jobs" in response["error"]


class TestBackpressure:
    def test_queue_full_answers_busy_with_retry_after(self, tmp_path):
        thread = GatewayThread(store=ResultStore(str(tmp_path)), workers=0,
                               queue_limit=1, hot_cache_size=8)
        host, port = thread.start()
        try:
            slow_response = {}

            def slow_request():
                with GatewayClient(host, port) as client:
                    slow_response.update(client.analyze(SLOW_SOURCE))

            slow_thread = threading.Thread(target=slow_request)
            slow_thread.start()
            # Give the slow job time to be admitted (pending == limit).
            deadline = time.time() + 5.0
            while thread.gateway._pending < 1 and time.time() < deadline:
                time.sleep(0.005)
            with GatewayClient(host, port) as client:
                busy = client.analyze(_variant(3))
            slow_thread.join()
            assert busy["status"] == "busy"
            assert busy["retry_after"] > 0
            assert "retry" in busy["error"]
            assert slow_response["status"] == "ok"
            assert thread.gateway.stats.busy_rejections == 1
        finally:
            thread.stop()


class TestGracefulShutdown:
    def test_shutdown_op_drains_inflight_requests(self, tmp_path):
        thread = GatewayThread(store=ResultStore(str(tmp_path)), workers=0,
                               hot_cache_size=8)
        host, port = thread.start()
        slow_response = {}

        def slow_request():
            with GatewayClient(host, port) as client:
                slow_response.update(client.analyze(SLOW_SOURCE))

        slow_thread = threading.Thread(target=slow_request)
        slow_thread.start()
        deadline = time.time() + 5.0
        while thread.gateway._pending < 1 and time.time() < deadline:
            time.sleep(0.005)
        with GatewayClient(host, port) as client:
            assert client.shutdown()["ok"] is True
        slow_thread.join(timeout=30)
        # The in-flight analysis still completed and was delivered.
        assert slow_response["status"] == "ok"
        thread._thread.join(timeout=30)
        assert not thread._thread.is_alive()
        # And its store write landed before the drain finished.
        assert ResultStore(str(tmp_path)).disk_stats()["entries"] == 1
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)

    def test_bind_failure_exits_unavailable(self):
        from repro.exitcodes import EXIT_UNAVAILABLE

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            port = blocker.getsockname()[1]
            code = run_gateway(workers=0, port=port, announce=False)
            assert code == EXIT_UNAVAILABLE
        finally:
            blocker.close()


class TestValidation:
    def test_timeout_requires_workers(self):
        with pytest.raises(ValueError):
            AnalysisGateway(workers=0, timeout=1.0)

    def test_queue_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AnalysisGateway(queue_limit=0)


class TestStdioGracefulShutdown:
    """The stdio ``repro serve`` loop drains on SIGINT/SIGTERM (exit 0)."""

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_while_idle_exits_zero(self, signum):
        env = {**os.environ, "PYTHONPATH": _SRC_DIR}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--no-cache"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        try:
            # Prove the loop is up before signalling it.
            process.stdin.write('{"op": "ping"}\n')
            process.stdin.flush()
            assert json.loads(process.stdout.readline())["ok"] is True
            process.send_signal(signum)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
