"""End-to-end tests of the serve application over real sockets.

The service runs in a background thread with its own event loop, on
port 0, with the ``thread`` worker backend (no multiprocessing inside
pytest) and a per-test state directory.  The client is the real
:class:`repro.serve.ServeClient` over :mod:`http.client`, so the whole
wire format is exercised.
"""

import asyncio
import gc
import threading
import time
import weakref

import pytest

from repro.ced import run_ced_flow
from repro.lab.tasks import load_circuit
from repro.network import write_blif
from repro.serve import CedService, ServeClient, ServeConfig, ServeError

TINY = write_blif(load_circuit("tiny", 2))


class ServiceThread:
    """Run one CedService on a private event loop in a thread."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.service = None
        self.error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.service = CedService(self.config)
            try:
                await self.service.start()
            finally:
                self._ready.set()
            await self.service.stopped.wait()
        try:
            asyncio.run(main())
        except Exception as exc:       # surfaced by stop()
            self.error = exc
            self._ready.set()

    def start(self) -> ServeClient:
        self._thread.start()
        assert self._ready.wait(30), "service did not start"
        if self.error is not None:
            raise self.error
        return ServeClient(port=self.service.port, timeout=60.0)

    def stop(self, timeout: float = 60.0) -> None:
        if self.service is not None and self._thread.is_alive():
            self.service.request_drain()
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "service did not drain"
        if self.error is not None:
            raise self.error


@pytest.fixture
def service(tmp_path):
    """A started service; yields (thread-handle, client)."""
    handle = ServiceThread(ServeConfig(
        port=0, workers=2, backend="thread",
        state_dir=str(tmp_path / "state"), default_words=1,
        max_queue=8, tenant_rate=1000.0, tenant_burst=1000.0))
    client = handle.start()
    yield handle, client
    handle.stop()


class TestSubmitAndResult:
    def test_flow_matches_direct_run_bit_identically(self, service):
        _, client = service
        doc = client.run(TINY, words=1, seed=2008)
        direct = run_ced_flow(load_circuit("tiny", 2),
                              reliability_words=1, coverage_words=1,
                              seed=2008)
        assert doc["result"]["summary"] == direct.summary()

    def test_second_submission_is_warm(self, service):
        _, client = service
        first = client.run(TINY, words=1)
        second = client.run(TINY, words=1)
        assert first["stats"]["warm"] is False
        assert second["stats"]["warm"] is True
        assert second["stats"]["resumed_passes"] > 0
        assert first["result"]["summary"] == \
            second["result"]["summary"]
        # Same content routes to the same warm shard.
        assert first["shard"] == second["shard"]

    def test_result_endpoint_before_completion_conflicts(self, service):
        _, client = service
        accepted = client.submit(TINY, words=1)
        try:
            client.result(accepted["job_id"])
        except ServeError as err:
            assert err.status == 409
        else:          # the flow may already be done — equally fine
            pass
        client.wait(accepted["job_id"])

    def test_unknown_job_is_404(self, service):
        _, client = service
        with pytest.raises(ServeError) as err:
            client.job("j999999-deadbeef")
        assert err.value.status == 404

    def test_invalid_blif_is_400(self, service):
        _, client = service
        with pytest.raises(ServeError) as err:
            client.submit("this is not a circuit")
        assert err.value.status == 400
        assert "blif" in err.value.doc["message"].lower()

    def test_blif_without_outputs_is_400(self, service):
        _, client = service
        with pytest.raises(ServeError) as err:
            client.submit(".model m\n.inputs a b\n.outputs\n"
                          ".names a b y\n11 1\n.end\n")
        assert err.value.status == 400
        assert "no primary outputs" in err.value.doc["message"]

    def test_worker_keeps_no_network_after_a_job(self, service,
                                                 monkeypatch):
        import repro.network as network_mod
        parsed = []
        real = network_mod.parse_blif

        def recording(*args, **kwargs):
            net = real(*args, **kwargs)
            parsed.append(weakref.ref(net))
            return net

        monkeypatch.setattr(network_mod, "parse_blif", recording)
        _, client = service
        doc = client.run(TINY, words=1)
        assert doc["state"] == "done"
        assert parsed
        # The done event goes out just before the worker's frame ends.
        deadline = time.monotonic() + 10.0
        while any(ref() is not None for ref in parsed) and \
                time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.05)
        assert all(ref() is None for ref in parsed)

    def test_raw_blif_body_with_query_params(self, service):
        _, client = service
        status, doc = client._request(
            "POST", "/v1/jobs?words=1&tenant=raw", TINY.encode(),
            content_type="text/plain")
        assert status == 202
        assert doc["tenant"] == "raw"
        state = client.wait(doc["job_id"])
        assert state["state"] == "done"
        assert state["params"]["words"] == 1

    def test_budget_deadline_zero_fails_structured(self, service):
        _, client = service
        accepted = client.submit(TINY, words=1,
                                 budget={"deadline_s": 0})
        state = client.wait(accepted["job_id"])
        assert state["state"] == "failed"
        assert state["error_type"] == "DeadlineExceeded"
        with pytest.raises(ServeError) as err:
            client.result(accepted["job_id"])
        assert err.value.status == 409


class TestEventsStream:
    def test_stream_has_passes_and_terminal_state(self, service):
        _, client = service
        accepted = client.submit(TINY, words=1)
        events = list(client.events(accepted["job_id"]))
        kinds = [e["kind"] for e in events]
        assert kinds.count("pass") >= 6       # the 7 flow passes
        assert kinds[-1] == "state"
        assert events[-1]["state"] == "done"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        passes = [e["pass"] for e in events if e["kind"] == "pass"]
        assert "map-original" in passes and "metrics" in passes

    def test_since_filters_already_seen_events(self, service):
        _, client = service
        accepted = client.submit(TINY, words=1)
        client.wait(accepted["job_id"])
        all_events = list(client.events(accepted["job_id"]))
        tail = list(client.events(accepted["job_id"],
                                  since=all_events[2]["seq"]))
        assert [e["seq"] for e in tail] == \
            [e["seq"] for e in all_events[2:]]


class TestBackpressureAndQuota:
    def test_saturated_queue_rejects_with_429(self, tmp_path):
        handle = ServiceThread(ServeConfig(
            port=0, workers=1, backend="thread",
            state_dir=str(tmp_path / "state"), default_words=1,
            max_queue=1, tenant_rate=1000.0, tenant_burst=1000.0))
        client = handle.start()
        try:
            # words=4 keeps the single worker busy long enough for
            # the queue (bound 1) to fill deterministically.
            client.submit(TINY, words=4)
            client.submit(TINY, words=4)
            with pytest.raises(ServeError) as err:
                client.submit(TINY, words=4)
            assert err.value.status == 429
            assert err.value.doc["error"] == "queue_full"
            assert "retry_after_s" in err.value.doc
            stats = client.stats()
            assert stats["counters"]["rejected_queue_full"] >= 1
        finally:
            handle.stop()

    def test_tenant_quota_rejects_and_peers_unaffected(self, tmp_path):
        handle = ServiceThread(ServeConfig(
            port=0, workers=1, backend="thread",
            state_dir=str(tmp_path / "state"), default_words=1,
            max_queue=64, tenant_rate=0.001, tenant_burst=2.0))
        client = handle.start()
        try:
            client.submit(TINY, words=1, tenant="hog")
            client.submit(TINY, words=1, tenant="hog")
            with pytest.raises(ServeError) as err:
                client.submit(TINY, words=1, tenant="hog")
            assert err.value.status == 429
            assert err.value.doc["error"] == "quota_exceeded"
            assert err.value.doc["retry_after_s"] > 0
            # A different tenant is not punished for the hog's storm.
            accepted = client.submit(TINY, words=1, tenant="other")
            assert client.wait(accepted["job_id"])["state"] == "done"
        finally:
            handle.stop()


class TestCancelAndDrain:
    def test_cancel_queued_job(self, tmp_path):
        handle = ServiceThread(ServeConfig(
            port=0, workers=1, backend="thread",
            state_dir=str(tmp_path / "state"), default_words=1,
            max_queue=8, tenant_rate=1000.0, tenant_burst=1000.0))
        client = handle.start()
        try:
            client.submit(TINY, words=4)       # occupies the worker
            queued = client.submit(TINY, words=4)
            doc = client.cancel(queued["job_id"])
            assert doc["state"] == "cancelled"
            state = client.job(queued["job_id"])
            assert state["state"] == "cancelled"
        finally:
            handle.stop()

    def test_drain_finishes_in_flight_work_then_stops(self, service):
        handle, client = service
        accepted = client.submit(TINY, words=2)
        handle.service.request_drain()
        # While draining: health reports it, submissions get 503.
        deadline_doc = None
        try:
            deadline_doc = client.submit(TINY, words=1)
        except ServeError as err:
            assert err.status == 503
            assert err.doc["error"] == "draining"
        except (ConnectionError, OSError):
            pass      # drain already completed and closed the socket
        else:
            pytest.fail(f"draining server accepted {deadline_doc}")
        handle.stop()
        # The in-flight job was finished, not killed.
        job = handle.service.registry.get(accepted["job_id"])
        assert job is not None and job.state == "done"

    def test_stats_document_shape(self, service):
        _, client = service
        client.run(TINY, words=1)
        stats = client.stats()
        assert stats["status"] == "ok"
        assert stats["workers"] == 2
        assert stats["backend"] == "thread"
        assert stats["counters"]["completed"] == 1
        assert stats["queue"]["capacity"] == 8
        assert stats["registry"]["done"] == 1
        # On-disk totals of both stores the finished job filled; the
        # per-process hit/miss counters are the workers' own.
        for store in ("proof_cache", "checkpoints"):
            assert stats[store]["entries"] > 0, store
            assert stats[store]["bytes"] > 0, store
            assert "hits" not in stats[store]
