"""Live-server tests for the HTTP gateway.

Every test that speaks HTTP boots a real :class:`~repro.gateway.Gateway`
on an ephemeral port (stdlib ``ThreadingHTTPServer``) and drives it with
stdlib ``urllib`` — the same path external clients use.  Covered
contracts:

* REST submit/list/status/cancel with reports identical to direct
  in-process ``OcelotService.submit()`` runs, including under
  concurrent HTTP submitters;
* structured error mapping — malformed specs 400 with machine-readable
  codes, unknown jobs/groups 404;
* plan groups validate every spec before admitting any;
* the SSE stream reproduces a job's full ``JobEvent`` timeline (live
  and after the fact) and resumes from ``Last-Event-ID``;
* the per-job event ``seq`` / ``events(since_seq=...)`` satellite and
  the CLI's gateway-aware ``jobs --url`` / failed-status exit code;
* push delivery — every emitted event is published exactly once with
  no scan of the retained jobs, whichever job a step, submit or cancel
  touched, and a reader of the job's feed woken by the bus loses none;
* keep-alive connections answer without the delayed-ACK stall, and
  oversized or malformed requests get typed 413/400 bodies.
"""

from __future__ import annotations

import http.client
import json
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.core import OcelotConfig
from repro.datasets import generate_application
from repro.errors import ConfigurationError, OrchestrationError
from repro.gateway import EventBus, GatewayDriver, create_gateway, spec_from_payload
from repro.gateway.app import MAX_BODY_BYTES, error_response
from repro.gateway import driver as driver_module
from repro.gateway.driver import UnknownGroupError, UnknownJobError
from repro.service import JobHandle, OcelotService, TransferSpec
from repro.service.events import JobEvent
from repro.service.scheduler import JobScheduler

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

RECIPE = {
    "application": "miranda",
    "snapshots": 1,
    "scale": 0.03,
    "seed": 4,
    "fields": ["density", "pressure"],
}
SPEC_JSON = {
    "dataset": RECIPE,
    "source": "anvil",
    "destination": "cori",
    "mode": "compressed",
}


def _config(**kwargs):
    """Compressed mode on two nodes a phase, no sentinel, default throughputs spelled out."""
    defaults = dict(
        error_bound=1e-3,
        compressor="sz3-fast",
        mode="compressed",
        sentinel_enabled=False,
        compression_nodes=2,
        decompression_nodes=2,
        size_scale=20_000.0,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=500.0,
    )
    defaults.update(kwargs)
    return OcelotConfig(**defaults)


@pytest.fixture()
def gateway():
    gw = create_gateway(config=_config()).start()
    yield gw
    gw.stop()


# --------------------------------------------------------------------- #
# Tiny stdlib HTTP client
# --------------------------------------------------------------------- #
def _get(base: str, path: str, timeout: float = 30.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return response.status, json.load(response)


def _post(base: str, path: str, payload=None, timeout: float = 60.0):
    data = b"" if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response)


def _expect_error(callable_, code: str, status: int):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_()
    assert excinfo.value.code == status
    payload = json.load(excinfo.value)
    assert payload["code"] == code
    return payload


def _sse(base: str, path: str, last_event_id=None, timeout: float = 30.0):
    """Read one SSE stream to completion; returns parsed frames."""
    headers = {}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    request = urllib.request.Request(base + path, headers=headers)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        body = response.read().decode()
    frames = []
    for chunk in body.split("\n\n"):
        lines = [ln for ln in chunk.split("\n") if ln and not ln.startswith(":")]
        if not lines:
            continue
        frame = {}
        for line in lines:
            key, _, value = line.partition(": ")
            frame[key] = value
        frames.append(frame)
    return frames


def _solo_report() -> dict:
    """Reference report of the same spec run directly in-process."""
    service = OcelotService(_config())
    handle = service.submit(spec_from_payload(SPEC_JSON))
    return handle.result().as_dict()


# --------------------------------------------------------------------- #
class TestRestJobControl:
    def test_healthz(self, gateway):
        status, payload = _get(gateway.url, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_submit_runs_to_completion_with_solo_identical_report(self, gateway):
        status, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        assert status == 201
        assert record["status"] in ("pending", "running", "completed")
        job_id = record["job_id"]
        status, record = _get(gateway.url, f"/v1/jobs/{job_id}/wait?timeout=60")
        assert status == 200
        assert record["status"] == "completed"
        status, full = _get(gateway.url, f"/v1/jobs/{job_id}")
        assert status == 200
        assert full["report"] == _solo_report()
        kinds = [event["kind"] for event in full["events"]]
        assert kinds[0] == "submitted" and kinds[-1] == "completed"

    def test_concurrent_http_submitters(self, gateway):
        n_jobs, results, errors = 8, [], []

        def submit_one():
            try:
                _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
                _, final = _get(
                    gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=120",
                    timeout=130.0,
                )
                results.append(final)
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                errors.append(exc)

        threads = [threading.Thread(target=submit_one) for _ in range(n_jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors
        assert len(results) == n_jobs
        assert all(record["status"] == "completed" for record in results)
        # Scheduling policy moves timelines, never results: every job's
        # report matches a solo in-process run of the same spec.
        solo = _solo_report()
        for record in results:
            _, full = _get(gateway.url, f"/v1/jobs/{record['job_id']}")
            assert full["report"] == solo

    def test_list_jobs_and_tenant_filter(self, gateway):
        _post(gateway.url, "/v1/jobs", {**SPEC_JSON, "tenant": "astro"})
        _post(gateway.url, "/v1/jobs", {**SPEC_JSON, "tenant": "climate"})
        status, payload = _get(gateway.url, "/v1/jobs")
        assert status == 200 and payload["count"] == 2
        assert all("events" not in record for record in payload["jobs"])
        status, payload = _get(gateway.url, "/v1/jobs?tenant=astro")
        assert payload["count"] == 1
        assert payload["jobs"][0]["tenant"] == "astro"

    def test_cancel_via_http(self, gateway):
        gateway.driver.pause()  # keep the job queued so cancel is deterministic
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        status, cancelled = _post(
            gateway.url, f"/v1/jobs/{record['job_id']}/cancel"
        )
        gateway.driver.resume()
        assert status == 200
        assert cancelled["cancelled"] is True
        assert cancelled["status"] == "cancelled"
        # Cancelling an already-terminal job reports cancelled=False.
        status, again = _post(gateway.url, f"/v1/jobs/{record['job_id']}/cancel")
        assert status == 200 and again["cancelled"] is False

    def test_wait_timeout_returns_408(self, gateway):
        gateway.driver.pause()
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=0.2")
        assert excinfo.value.code == 408
        assert json.load(excinfo.value)["timed_out"] is True
        gateway.driver.resume()

    def test_metricsz(self, gateway):
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        _get(gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=60")
        status, metrics = _get(gateway.url, "/metricsz")
        assert status == 200
        assert metrics["jobs"]["total"] == 1
        assert metrics["jobs"]["completed"] == 1
        assert metrics["jobs_per_sec"]["simulated"] > 0
        assert metrics["queue_depths"] == {"active": 0}
        assert "in_flight" in metrics["tenants"]
        assert metrics["bus"]["published"] > 0
        assert metrics["http"]["requests"]["POST /v1/jobs"] == 1

    def test_metricsz_counts_jobs_in_flight_while_paused(self, gateway):
        gateway.driver.pause()
        records = [_post(gateway.url, "/v1/jobs", {**SPEC_JSON, "tenant": tenant})[1]
                   for tenant in ("a", "b", "a")]
        _, metrics = _get(gateway.url, "/metricsz")
        assert metrics["queue_depths"] == {"active": 3}
        assert metrics["tenants"]["in_flight"] == {"a": 2, "b": 1}
        gateway.driver.resume()
        for record in records:
            _get(gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=60")
        _, metrics = _get(gateway.url, "/metricsz")
        assert metrics["queue_depths"] == {"active": 0}
        assert metrics["tenants"]["in_flight"] == {}


def _feed_lengths(driver, job_ids) -> int:
    """Events in the given jobs' feeds so far."""
    return sum(len(driver.events_since(job_id)) for job_id in job_ids)


class TestPushDelivery:
    """Events are published from ``TransferJob.emit``, not from a scan,
    and the job's own feed is what every reader reads."""

    def test_step_and_submit_never_visit_retained_jobs(self, monkeypatch):
        service = OcelotService(_config())
        dataset = generate_application(**RECIPE)
        spec = TransferSpec(dataset=dataset, source="anvil", destination="cori")
        for _ in range(500):
            service.submit(spec).cancel()
        assert len(service.jobs()) == 500
        assert list(service.scheduler.live_jobs()) == []

        calls = {"service.jobs": 0, "scheduler.jobs": 0, "handle.events": 0}

        def spy(owner, attr, key):
            real = getattr(owner, attr)

            def counted(self, *args, **kwargs):
                calls[key] += 1
                return real(self, *args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        spy(OcelotService, "jobs", "service.jobs")
        spy(JobScheduler, "jobs", "scheduler.jobs")
        spy(JobHandle, "events", "handle.events")

        driver = GatewayDriver(service)
        published = []
        real_publish = driver.bus.publish
        service.scheduler.on_event = lambda event: (published.append(event),
                                                    real_publish(event))
        try:
            first = driver.submit(spec)["job_id"]
            second = driver.submit(spec)["job_id"]
            assert driver.cancel(second)["cancelled"] is True
            driver.start()
            assert driver.wait(first, timeout=60) is True
            assert driver.record(first)["status"] == "completed"
        finally:
            driver.stop()
        assert calls == {"service.jobs": 0, "scheduler.jobs": 0, "handle.events": 0}
        # ... and nothing was missed for lack of the scan: every event of
        # both feeds was published once, in seq order.
        feeds = {job_id: service.job(job_id).events() for job_id in (first, second)}
        for job_id, feed in feeds.items():
            assert [e.seq for e in feed] == list(range(1, len(feed) + 1))
            assert [e for e in published if e.job_id == job_id] == feed
        assert driver.bus.published == len(published) == sum(
            len(feed) for feed in feeds.values())

    def test_seq_contiguous_exactly_once_under_concurrent_submitters(self, gateway):
        before = gateway.bus.published
        job_ids, errors = [], []

        def submitter():
            try:
                for _ in range(6):
                    _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
                    job_ids.append(record["job_id"])
                    _get(gateway.url,
                         f"/v1/jobs/{record['job_id']}/wait?timeout=120", 130.0)
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                errors.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(2)]
        for thread in threads:
            thread.start()
        _, doomed = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        _post(gateway.url, f"/v1/jobs/{doomed['job_id']}/cancel")
        for thread in threads:
            thread.join(timeout=180)
        assert not errors and not any(t.is_alive() for t in threads)
        _get(gateway.url, f"/v1/jobs/{doomed['job_id']}/wait?timeout=60")
        job_ids.append(doomed["job_id"])
        assert len(job_ids) == 13

        for job_id in job_ids:
            feed = gateway.driver.events_since(job_id)
            assert [event.seq for event in feed] == list(range(1, len(feed) + 1))
            assert feed[-1].is_terminal
            # The stream is the feed, each event once, in seq order.
            frames = _sse(gateway.url, f"/v1/jobs/{job_id}/events")
            assert [json.loads(frame["data"]) for frame in frames] == [
                event.as_dict() for event in feed]
        assert gateway.bus.published - before == _feed_lengths(gateway.driver, job_ids)
        assert gateway.bus.describe()["dropped"] == 0

    def test_metricsz_published_equals_sum_of_feed_lengths(self, gateway):
        job_ids = []
        for _ in range(3):
            _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
            job_ids.append(record["job_id"])
        _post(gateway.url, f"/v1/jobs/{job_ids[-1]}/cancel")
        feed_lengths = 0
        for job_id in job_ids:
            _get(gateway.url, f"/v1/jobs/{job_id}/wait?timeout=60")
            _, full = _get(gateway.url, f"/v1/jobs/{job_id}")
            feed_lengths += len(full["events"])
        _, metrics = _get(gateway.url, "/metricsz")
        assert metrics["bus"]["published"] == feed_lengths
        assert metrics["bus"]["dropped"] == 0

    def test_cancel_of_a_pending_job_releases_wait_and_publishes_once(self, gateway):
        """A cancel of a job that never started releases a waiter parked
        on it with the driver paused, and publishes exactly its one event."""
        gateway.driver.pause()
        _, doomed = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        assert doomed["status"] == "pending"
        base = gateway.bus.published
        released = []
        waiter = threading.Thread(target=lambda: released.append(_get(
            gateway.url, f"/v1/jobs/{doomed['job_id']}/wait?timeout=60", 70.0)))
        waiter.start()
        time.sleep(0.1)  # let the waiter park
        _post(gateway.url, f"/v1/jobs/{doomed['job_id']}/cancel")
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert released[0][0] == 200 and released[0][1]["status"] == "cancelled"
        assert gateway.bus.published == base + 1
        assert gateway.driver.events_since(doomed["job_id"])[-1].kind == "cancelled"
        gateway.driver.resume()

    def test_job_submitted_before_the_gateway_attached(self):
        service = OcelotService(_config())
        handle = service.submit(spec_from_payload(SPEC_JSON))
        gw = create_gateway(service=service)
        gw.start()
        try:
            status, final = _get(
                gw.url, f"/v1/jobs/{handle.job_id}/wait?timeout=60", 70.0)
            assert status == 200 and final["status"] == "completed"
            feed = handle.events()
            # `submitted` predates the listener: it is history, which the
            # SSE stream replays from the feed; the rest was published live.
            assert gw.bus.published == len(feed) - 1
            frames = _sse(gw.url, f"/v1/jobs/{handle.job_id}/events")
            assert [int(frame["id"]) for frame in frames] == [e.seq for e in feed]
        finally:
            gw.stop()
        # A stopped gateway no longer listens to the service it wrapped.
        assert service.scheduler.on_event is None


class TestEventBus:
    """The bus in isolation: a counter and one condition, no buffer."""

    @staticmethod
    def _event(seq=1):
        return JobEvent(time_s=0.0, job_id="j", kind="k", seq=seq)

    def test_a_stale_reader_returns_at_once(self):
        bus = EventBus()
        bus.publish(self._event())
        started = time.monotonic()
        assert bus.wait(0, timeout=30) == 1
        assert time.monotonic() - started < 1

    def test_wait_times_out_on_an_unchanged_counter(self):
        bus = EventBus()
        started = time.monotonic()
        assert bus.wait(0, timeout=0.05) == 0
        assert time.monotonic() - started >= 0.04

    def test_publish_wakes_a_parked_waiter(self):
        bus, woken = EventBus(), []
        waiter = threading.Thread(target=lambda: woken.append(bus.wait(0, timeout=30)))
        waiter.start()
        time.sleep(0.1)  # let it park
        started = time.monotonic()
        bus.publish(self._event())
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert woken == [1]
        assert time.monotonic() - started < 5

    def test_close_wakes_every_parked_waiter(self):
        bus, woken = EventBus(), []
        waiters = [threading.Thread(target=lambda: woken.append(bus.wait(0, timeout=30)))
                   for _ in range(4)]
        for waiter in waiters:
            waiter.start()
        time.sleep(0.1)
        started = time.monotonic()
        bus.close()
        for waiter in waiters:
            waiter.join(timeout=10)
        assert not any(waiter.is_alive() for waiter in waiters)
        assert bus.closed and woken == [0, 0, 0, 0]
        assert time.monotonic() - started < 5

    def test_publish_all_counts_every_event(self):
        bus = EventBus()
        bus.publish_all([self._event(seq) for seq in range(1, 6)])
        assert bus.published == 5
        assert bus.describe() == {"published": 5, "dropped": 0}

    def test_nothing_is_dropped_however_much_goes_unread(self):
        """The old per-subscriber queues dropped their oldest events here."""
        bus = EventBus()
        event = self._event()
        for _ in range(10_000):
            bus.publish(event)
        assert bus.describe() == {"published": 10_000, "dropped": 0}


class TestWakeSignal:
    """One counter wakes every reader; the feed is what they read."""

    def test_sleeping_sse_reader_gets_every_event_once_in_order(self, gateway):
        gateway.driver.pause()
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        job_id = record["job_id"]
        connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=60)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            assert response.status == 200
            # The reader sleeps while thousands of events are published
            # and its job runs to the end among them.
            noise = [JobEvent(time_s=0.0, job_id="noise", kind="noise", seq=i + 1)
                     for i in range(1000)]
            gateway.driver.resume()
            published = 0
            while published < 5000 or not gateway.driver.wait(job_id, timeout=0):
                gateway.bus.publish_all(noise)
                published += len(noise)
                assert published < 1_000_000
            body = response.read().decode()
        finally:
            connection.close()
        ids = [int(line[4:]) for line in body.splitlines() if line.startswith("id: ")]
        feed = gateway.driver.events_since(job_id)
        assert feed[-1].is_terminal
        assert ids == [event.seq for event in feed] == list(range(1, len(feed) + 1))

    def test_no_wake_up_is_lost_under_contention(self):
        """Readers that read the counter, then the feed, then wait, never
        sleep past an event, with more threads than cores switching often."""
        bus, feed, lock = EventBus(), [], threading.Lock()
        publishers, per_publisher = 4, 300
        total = publishers * per_publisher
        timed_out, reads = [], []

        def publish():
            for _ in range(per_publisher):
                with lock:  # the driver's lock around emit: append, then publish
                    feed.append(JobEvent(time_s=0.0, job_id="j", kind="k",
                                         seq=len(feed) + 1))
                    bus.publish(feed[-1])
                time.sleep(0.0002)  # let the readers park between events

        def read():
            seqs = []
            while True:
                seen = bus.published
                with lock:
                    seqs += [event.seq for event in feed[len(seqs):]]
                if len(seqs) == total:
                    reads.append(seqs)
                    return
                started = time.monotonic()
                bus.wait(seen, timeout=5)
                if time.monotonic() - started >= 5:  # slept past an event
                    timed_out.append(len(seqs))
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = ([threading.Thread(target=read) for _ in range(4)]
                       + [threading.Thread(target=publish) for _ in range(publishers)])
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert timed_out == []
        assert reads == [list(range(1, total + 1))] * 4
        assert bus.published == total

    def test_stop_releases_wait_and_stream(self):
        gw = create_gateway(config=_config()).start()
        gw.driver.pause()
        _, record = _post(gw.url, "/v1/jobs", SPEC_JSON)
        job_id = record["job_id"]
        codes, frames = [], []

        def waiter():
            try:
                _get(gw.url, f"/v1/jobs/{job_id}/wait?timeout=60", 70.0)
            except urllib.error.HTTPError as exc:
                codes.append(exc.code)

        readers = [threading.Thread(target=waiter), threading.Thread(
            target=lambda: frames.extend(_sse(gw.url, f"/v1/jobs/{job_id}/events",
                                              timeout=70.0)))]
        for reader in readers:
            reader.start()
        time.sleep(0.3)  # let both park
        started = time.monotonic()
        gw.stop()
        for reader in readers:
            reader.join(timeout=30)
        assert not any(reader.is_alive() for reader in readers)
        assert time.monotonic() - started < 10
        assert codes == [408]
        assert [frame["event"] for frame in frames] == ["submitted"]
        # After close nothing parks: a wait returns at once.
        started = time.monotonic()
        assert gw.driver.wait(job_id, timeout=30) is False
        assert gw.bus.wait(gw.bus.published, timeout=30) == gw.bus.published
        assert time.monotonic() - started < 1

    def test_submit_wakes_an_idle_driver(self, monkeypatch):
        monkeypatch.setattr(driver_module, "_IDLE_WAIT_S", 30)
        service = OcelotService(_config())
        spec = spec_from_payload(SPEC_JSON)
        driver = GatewayDriver(service).start()
        try:
            time.sleep(0.2)  # the stepper parks on its 30 s idle poll
            started = time.monotonic()
            job_id = driver.submit(spec)["job_id"]
            assert driver.wait(job_id, timeout=25) is True
            assert time.monotonic() - started < 25
        finally:
            started = time.monotonic()
            driver.stop()
        assert time.monotonic() - started < 5
        assert driver.record(job_id)["status"] == "completed"


class TestConnectionHandling:
    def test_keep_alive_round_trips_do_not_stall(self, gateway):
        """POST+wait over one reused connection: no delayed-ACK wait."""
        connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=60)
        body = json.dumps(SPEC_JSON)
        latencies = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("POST", "/v1/jobs", body=body,
                                   headers={"Content-Type": "application/json"})
                record = json.load(connection.getresponse())
                connection.request(
                    "GET", f"/v1/jobs/{record['job_id']}/wait?timeout=60")
                response = connection.getresponse()
                final = json.load(response)
                latencies.append(time.perf_counter() - start)
                assert response.status == 200 and final["status"] == "completed"
        finally:
            connection.close()
        # Two responses per job: one 40 ms delayed-ACK timer on either
        # would already put the median over the line.
        assert statistics.median(latencies) < 0.040

    def test_simultaneous_connects_do_not_wait_out_a_syn_retransmit(self, gateway):
        """48 clients connecting at once all fit the listen backlog."""
        clients = 48
        barrier = threading.Barrier(clients)
        walls, errors = [], []

        def connect():
            try:
                barrier.wait(timeout=30)
                start = time.perf_counter()
                status, _ = _get(gateway.url, "/healthz")
                walls.append(time.perf_counter() - start)
                assert status == 200
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                errors.append(exc)

        threads = [threading.Thread(target=connect) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors and len(walls) == clients
        # A SYN dropped by a full backlog is retransmitted after 1 s.
        assert max(walls) < 0.9

    def _raw_post(self, gateway, content_length: str, body: bytes = b""):
        connection = http.client.HTTPConnection(gateway.host, gateway.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", content_length)
            connection.endheaders(body)
            response = connection.getresponse()
            return response.status, response.getheader("Connection"), json.load(response)
        finally:
            connection.close()

    def test_oversized_body_is_413_without_reading_it(self, gateway):
        # Only the headers are sent: a server that tried to read the
        # declared body would block until the client's timeout.
        status, connection, payload = self._raw_post(gateway, str(MAX_BODY_BYTES + 1))
        assert status == 413 and payload["code"] == "payload_too_large"
        assert connection == "close"
        status, _, _ = self._raw_post(
            gateway, str(len(json.dumps(SPEC_JSON))), json.dumps(SPEC_JSON).encode())
        assert status == 201  # the limit is on size, not on POSTs

    @pytest.mark.parametrize("content_length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, gateway, content_length):
        status, connection, payload = self._raw_post(gateway, content_length)
        assert status == 400 and payload["code"] == "bad_request"
        assert connection == "close"

    @pytest.mark.parametrize("timeout", ["abc", "nan", "-1"])
    def test_bad_wait_timeout_is_400(self, gateway, timeout):
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        payload = _expect_error(
            lambda: _get(gateway.url,
                         f"/v1/jobs/{record['job_id']}/wait?timeout={timeout}"),
            code="bad_request", status=400,
        )
        assert "timeout" in payload["error"]


class TestErrorMapping:
    def test_malformed_specs_are_400(self, gateway):
        bad_specs = [
            ({}, "invalid_request"),  # no dataset
            ({**SPEC_JSON, "warp": 9}, "invalid_request"),  # unknown field
            ({**SPEC_JSON, "dataset": {"application": "doom"}}, "invalid_dataset"),
            ({**SPEC_JSON, "mode": "hyperspeed"}, "invalid_request"),
            ({**SPEC_JSON, "destination": "summit"}, "invalid_request"),
            ({**SPEC_JSON, "priority": "high"}, "invalid_request"),  # removed field
            ({**SPEC_JSON, "overrides": {"warp_factor": 9}}, "invalid_config"),
        ]
        for payload, code in bad_specs:
            _expect_error(
                lambda payload=payload: _post(gateway.url, "/v1/jobs", payload),
                code=code, status=400,
            )
        # A failed validation admits nothing.
        _, listing = _get(gateway.url, "/v1/jobs")
        assert listing["count"] == 0

    def test_removed_destination_prefix_override_is_400(self, gateway):
        """The knob failed every bulk run it was set on; it is gone, loudly."""
        spec = {**SPEC_JSON, "overrides": {"destination_prefix": "/x"}}
        _expect_error(lambda: _post(gateway.url, "/v1/jobs", spec),
                      code="invalid_config", status=400)

    @pytest.mark.parametrize(
        "override", [{"group_target_bytes": 4000}, {"sentinel_wait_threshold_s": 5.0},
                     {"sample_fraction": 0.01}, {"priority": "high"},
                     {"verify_error_bound": True}],
    )
    def test_removed_option_override_is_400(self, gateway, override):
        """Options only tests set are gone: naming one is a typed 400, not a
        500, and the driver thread then runs the next job."""
        spec = {**SPEC_JSON, "overrides": override}
        _expect_error(lambda: _post(gateway.url, "/v1/jobs", spec),
                      code="invalid_config", status=400)
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        _, record = _get(gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=60")
        assert record["status"] == "completed"

    def test_malformed_override_values_are_400_and_the_driver_runs_on(self, gateway):
        """A ``1.5`` node count, a NaN bound or scale and a string block size
        fail typed at the boundary; the driver thread then runs the next job."""
        for override in ({"compression_nodes": 1.5}, {"error_bound": float("nan")},
                         {"size_scale": float("nan")}, {"block_size": "16"}):
            spec = {**SPEC_JSON, "overrides": override}
            _expect_error(lambda: _post(gateway.url, "/v1/jobs", spec),
                          code="invalid_config", status=400)
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        _, record = _get(gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=60")
        assert record["status"] == "completed"

    def test_bad_json_body_is_400(self, gateway):
        request = urllib.request.Request(
            gateway.url + "/v1/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["code"] == "bad_json"

    @pytest.mark.parametrize("exc, status, code", [
        (UnknownJobError("job-9999"), 404, "unknown_job"),
        (UnknownGroupError("group-9999"), 404, "unknown_plan_group"),
        (OrchestrationError("bad route"), 400, "invalid_request"),
        (ConfigurationError("bad bound"), 400, "invalid_config"),
        (json.JSONDecodeError("Expecting value", "{", 1), 400, "bad_json"),
        (ValueError("not a number"), 400, "bad_request"),
        (RuntimeError("boom"), 500, "internal_error"),
    ], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
    def test_error_response_maps_each_exception_type(self, exc, status, code):
        got_status, payload = error_response(exc)
        assert (got_status, payload["code"]) == (status, code)
        assert payload["error"]

    def test_unknown_job_is_404(self, gateway):
        for call in (
            lambda: _get(gateway.url, "/v1/jobs/job-9999"),
            lambda: _post(gateway.url, "/v1/jobs/job-9999/cancel"),
            lambda: _sse(gateway.url, "/v1/jobs/job-9999/events"),
        ):
            _expect_error(call, code="unknown_job", status=404)
        _expect_error(
            lambda: _get(gateway.url, "/v1/plan-groups/pg-9999"),
            code="unknown_plan_group", status=404,
        )

    def test_unknown_route_is_404(self, gateway):
        _expect_error(lambda: _get(gateway.url, "/v2/nope"),
                      code="not_found", status=404)


class TestPlanGroups:
    def test_group_fans_out_and_completes(self, gateway):
        status, group = _post(
            gateway.url, "/v1/plan-groups",
            {"jobs": [SPEC_JSON] * 4, "label": "batch"},
        )
        assert status == 201
        assert group["total"] == 4
        for job_id in group["jobs"]:
            _get(gateway.url, f"/v1/jobs/{job_id}/wait?timeout=120", timeout=130.0)
        status, final = _get(gateway.url, f"/v1/plan-groups/{group['group_id']}")
        assert final["status"] == "completed"
        assert final["status_counts"] == {"completed": 4}
        solo = _solo_report()
        for job_id in group["jobs"]:
            _, full = _get(gateway.url, f"/v1/jobs/{job_id}")
            assert full["report"] == solo

    def test_group_validates_every_spec_before_admitting_any(self, gateway):
        bad_batch = [SPEC_JSON, SPEC_JSON,
                     {**SPEC_JSON, "destination": "summit"}]
        payload = _expect_error(
            lambda: _post(gateway.url, "/v1/plan-groups", {"jobs": bad_batch}),
            code="invalid_request", status=400,
        )
        assert "spec #2" in payload["error"]
        _, listing = _get(gateway.url, "/v1/jobs")
        assert listing["count"] == 0  # nothing admitted
        _, groups = _get(gateway.url, "/v1/plan-groups")
        assert groups["count"] == 0


    def test_group_validates_each_spec_once(self, monkeypatch):
        validated = []
        validate = TransferSpec.validate
        monkeypatch.setattr(
            TransferSpec, "validate",
            lambda spec, *args: validated.append(spec) or validate(spec, *args),
        )
        driver = GatewayDriver(OcelotService(_config()))
        specs = [spec_from_payload(SPEC_JSON) for _ in range(4)]
        group = driver.submit_group(specs, label="four")
        assert group["total"] == 4
        assert validated == specs

    def test_group_with_unknown_compressor_is_400_and_admits_nothing(self, gateway):
        bad = {**SPEC_JSON, "overrides": {"compressor": "no-such-compressor"}}
        payload = _expect_error(
            lambda: _post(gateway.url, "/v1/plan-groups", {"jobs": [SPEC_JSON, bad]}),
            code="unknown_compressor", status=400,
        )
        assert "spec #1" in payload["error"]
        _, listing = _get(gateway.url, "/v1/jobs")
        assert listing["count"] == 0
        _, groups = _get(gateway.url, "/v1/plan-groups")
        assert groups["count"] == 0


class TestServerSentEvents:
    def _completed_job(self, gateway):
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        _get(gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=60")
        return record["job_id"]

    def test_stream_of_completed_job_equals_event_feed(self, gateway):
        job_id = self._completed_job(gateway)
        frames = _sse(gateway.url, f"/v1/jobs/{job_id}/events")
        feed = gateway.driver.events_since(job_id)
        assert [json.loads(frame["data"]) for frame in frames] == [
            event.as_dict() for event in feed
        ]
        assert [int(frame["id"]) for frame in frames] == [e.seq for e in feed]
        assert frames[-1]["event"] == "completed"

    def test_last_event_id_resume(self, gateway):
        job_id = self._completed_job(gateway)
        full = _sse(gateway.url, f"/v1/jobs/{job_id}/events")
        middle = int(full[len(full) // 2]["id"])
        resumed = _sse(gateway.url, f"/v1/jobs/{job_id}/events",
                       last_event_id=middle)
        assert [frame["id"] for frame in resumed] == [
            frame["id"] for frame in full if int(frame["id"]) > middle
        ]
        # Prefix + resumed tail reproduces the entire timeline.
        prefix = [frame for frame in full if int(frame["id"]) <= middle]
        assert [f["data"] for f in prefix + resumed] == [f["data"] for f in full]
        # The ?since= query form behaves identically.
        assert resumed == _sse(gateway.url,
                               f"/v1/jobs/{job_id}/events?since={middle}")

    def test_live_stream_follows_running_job(self, gateway):
        gateway.driver.pause()
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        job_id = record["job_id"]
        frames, errors = [], []

        def stream():
            try:
                frames.extend(_sse(gateway.url, f"/v1/jobs/{job_id}/events",
                                   timeout=60))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        reader = threading.Thread(target=stream)
        reader.start()
        gateway.driver.resume()
        reader.join(timeout=120)
        assert not reader.is_alive() and not errors
        feed = gateway.driver.events_since(job_id)
        assert [json.loads(frame["data"]) for frame in frames] == [
            event.as_dict() for event in feed
        ]
        assert frames[-1]["event"] == "completed"


class TestEventSeqSatellite:
    """The per-job monotonic seq + events(since_seq=...) resume API."""

    def test_seq_is_contiguous_and_serialised(self):
        service = OcelotService(_config())
        dataset = generate_application(**RECIPE)
        handle = service.submit(TransferSpec(
            dataset=dataset, source="anvil", destination="cori"))
        handle.wait()
        feed = handle.events()
        assert [event.seq for event in feed] == list(range(1, len(feed) + 1))
        assert all(event.as_dict()["seq"] == event.seq for event in feed)

    def test_events_since_seq_slices_the_feed(self):
        service = OcelotService(_config())
        dataset = generate_application(**RECIPE)
        handle = service.submit(TransferSpec(
            dataset=dataset, source="anvil", destination="cori"))
        handle.wait()
        feed = handle.events()
        assert handle.events(since_seq=0) == feed
        assert handle.events(since_seq=feed[2].seq) == feed[3:]
        assert handle.events(since_seq=feed[-1].seq) == []

    def test_error_codes_are_machine_readable(self):
        assert OrchestrationError("x").code == "invalid_request"
        assert ConfigurationError("x").code == "invalid_config"
        payload = OrchestrationError("bad route").as_payload()
        assert payload == {"error": "bad route",
                           "code": "invalid_request",
                           "type": "OrchestrationError"}


class TestGatewayCLI:
    def test_jobs_url_lists_live_gateway(self, gateway, capsys):
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        _get(gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=60")
        assert cli_main(["jobs", "--url", gateway.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"][0]["job_id"] == record["job_id"]
        assert payload["jobs"][0]["status"] == "completed"

    def test_status_url_reads_live_gateway(self, gateway, capsys):
        _, record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
        _get(gateway.url, f"/v1/jobs/{record['job_id']}/wait?timeout=60")
        assert cli_main(
            ["status", record["job_id"], "--url", gateway.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "completed"
        assert payload["events"][0]["kind"] == "submitted"

    def test_status_exits_nonzero_for_failed_job(self, tmp_path, capsys):
        state = tmp_path / "jobs.jsonl"
        state.write_text("".join(json.dumps(line) + "\n" for line in [
            {"kind": "terminal", "job_id": "job-0001", "status": "failed", "error": "boom"},
            {"kind": "terminal", "job_id": "job-0002", "status": "completed"},
        ]))
        assert cli_main(["status", "job-0001", "--state", str(state)]) == 2
        assert cli_main(
            ["status", "job-0001", "--state", str(state), "--json"]) == 2
        assert cli_main(["status", "job-0002", "--state", str(state)]) == 0
        capsys.readouterr()

    def test_serve_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000"])
        assert args.command == "serve"
        assert args.port == 9000
