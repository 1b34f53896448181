"""Serving layer: bounded submission, NDJSON streaming, ETag revalidation.

Two levels, matching the package split:

* :class:`~repro.server.service.CampaignService` tests exercise the
  transport-independent core without sockets — validation, the in-flight
  bound, run addressing, cancellation, and content-hash ETags.
* HTTP tests run a real asyncio server on an ephemeral port and speak to it
  with ``urllib`` — wire-level status codes, ``If-None-Match`` → 304,
  chunked NDJSON streams, and the live-streaming contract (rows of a mixed
  hit/miss campaign arrive **before** the campaign finishes).

Streaming determinism trick: the campaign's cache-hit prefix streams
immediately, while the suffix keys are claimed by a "ghost" owner that never
commits — the session provably stays in ``running`` for its whole
``claim_wait_timeout``, giving the tests a wide, deterministic window to
observe rows before completion.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import Campaign, CampaignSession, strip_timing
from repro.server import (
    CampaignService,
    ServiceBusy,
    ServiceError,
    UnknownRun,
    serve,
)
from repro.store.backend import ResultStore
from repro.store.keys import trial_key
from repro.store.query import TrialFilter

GHOST = "ghost-session"


def _declaration(trials: int = 6, name: str = "srv", base_seed: int = 7) -> dict:
    """A grid declaration expanding to exactly ``trials`` specs."""
    return {
        "name": name,
        "grid": {
            "protocols": ["exact"],
            "dimensions": [1],
            "fault_bounds": [1],
            "repeats": trials,
            "base_seed": base_seed,
        },
    }


def _specs_of(declaration: dict) -> tuple:
    return Campaign.from_payload(declaration).specs


def _expected_rows(declaration: dict) -> list[str]:
    rows = CampaignSession(_specs_of(declaration)).rows()
    return strip_timing(result.to_row() for result in rows)


def _strip_lines(lines: list[str]) -> list[str]:
    return strip_timing(json.loads(line) for line in lines)


def _precache(store_path, specs) -> None:
    """Commit ``specs`` to the store so a later run serves them as hits."""
    session = CampaignSession(list(specs), store=store_path)
    assert len(list(session.rows())) == len(specs)


def _ghost_claim(store_path, specs) -> list[str]:
    """Claim the keys of ``specs`` under an owner that will never commit."""
    keys = [trial_key(spec) for spec in specs]
    with ResultStore(store_path) as store:
        granted = store.claim_keys(keys, GHOST)
    assert granted == set(keys)
    return keys


def _release_ghost(store_path, keys) -> None:
    with ResultStore(store_path) as store:
        store.release_claims(keys, GHOST)


def _stored_lines(store_path) -> list[str]:
    """Every stored row in key order, serialised as ``repro store export`` writes it."""
    with ResultStore(store_path) as store:
        return [json.dumps(entry.row, sort_keys=True) for entry in store.iter_entries()]


# ---------------------------------------------------------------------------
# Service level (no sockets)
# ---------------------------------------------------------------------------


class TestCampaignService:
    def test_submit_runs_streams_rows_and_reports_status(self, tmp_path):
        declaration = _declaration(5)
        service = CampaignService(tmp_path / "store.db", max_active=1)
        try:
            handle = service.submit({"campaign": declaration}, api_key="alice")
            assert handle.finished.wait(60)
            lines, done = handle.snapshot()
            assert done and len(lines) == 5
            assert _strip_lines(lines) == _expected_rows(declaration)
            status = handle.status_dict()
            assert status["state"] == "finished"
            assert status["emitted"] == status["ok"] == 5
            assert status["api_key"] == "alice"
            assert status["run_id"] == handle.run_id
        finally:
            service.shutdown()

    def test_snapshot_offset_replays_only_the_tail(self, tmp_path):
        service = CampaignService(tmp_path / "store.db")
        try:
            handle = service.submit({"campaign": _declaration(4)})
            assert handle.finished.wait(60)
            head, _ = handle.snapshot()
            tail, done = handle.snapshot(3)
            assert done and tail == head[3:]
        finally:
            service.shutdown()

    def test_submit_rejects_malformed_payloads(self, tmp_path):
        service = CampaignService(tmp_path / "store.db")
        try:
            with pytest.raises(ServiceError, match="JSON object"):
                service.submit(["not", "a", "mapping"])  # type: ignore[arg-type]
            with pytest.raises(ServiceError, match="'campaign'"):
                service.submit({"workers": 2})
            with pytest.raises(ServiceError, match="grid' or 'trials"):
                service.submit({"campaign": {}})
            with pytest.raises(ServiceError, match="workers"):
                service.submit({"campaign": _declaration(1), "workers": 0})
            with pytest.raises(ServiceError, match="workers' must be at most"):
                service.submit({"campaign": _declaration(1), "workers": 100000})
            with pytest.raises(ServiceError, match="engine"):
                service.submit({"campaign": _declaration(1), "engine": "quantum"})
            with pytest.raises(ServiceError, match="resume"):
                service.submit({"campaign": _declaration(1), "resume": "yes"})
        finally:
            service.shutdown()

    def test_workers_bound_is_the_larger_of_cores_and_default(self, tmp_path):
        default = (os.cpu_count() or 1) + 2
        service = CampaignService(tmp_path / "store.db", workers=default)
        try:
            with pytest.raises(ServiceError, match=f"at most {default}, got {default + 1}"):
                service.submit({"campaign": _declaration(1), "workers": default + 1})
            assert service.list_runs() == []
        finally:
            service.shutdown()

    def test_unknown_run_id_raises(self, tmp_path):
        service = CampaignService(tmp_path / "store.db")
        try:
            with pytest.raises(UnknownRun):
                service.status("deadbeef00000000")
            with pytest.raises(UnknownRun):
                service.cancel("deadbeef00000000")
        finally:
            service.shutdown()

    def test_in_flight_bound_refuses_then_recovers(self, tmp_path):
        """max_active + max_pending caps submissions; finishing a run frees a slot."""
        store_path = tmp_path / "store.db"
        declaration = _declaration(4, name="stalled")
        ghost_keys = _ghost_claim(store_path, _specs_of(declaration))
        service = CampaignService(
            store_path, max_active=1, max_pending=0, claim_wait_timeout=30.0
        )
        try:
            stalled = service.submit({"campaign": declaration})
            with pytest.raises(ServiceBusy, match="in flight"):
                service.submit({"campaign": _declaration(2, name="refused")})
            service.cancel(stalled.run_id)
            assert stalled.finished.wait(30)
            assert stalled.session.state == "cancelled"
            accepted = service.submit({"campaign": _declaration(2, name="after", base_seed=9)})
            assert accepted.finished.wait(60)
            assert accepted.session.state == "finished"
        finally:
            _release_ghost(store_path, ghost_keys)
            service.shutdown()

    def test_cancel_interrupts_a_deferred_wait_promptly(self, tmp_path):
        """Cancellation, not the 60s claim timeout, must end a stalled run."""
        store_path = tmp_path / "store.db"
        declaration = _declaration(3, name="blocked")
        ghost_keys = _ghost_claim(store_path, _specs_of(declaration))
        service = CampaignService(store_path, claim_wait_timeout=60.0)
        try:
            handle = service.submit({"campaign": declaration})
            deadline = time.monotonic() + 10
            while handle.session.state == "pending" and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.monotonic()
            service.cancel(handle.run_id)
            assert handle.finished.wait(15)
            assert time.monotonic() - started < 15
            assert handle.session.state == "cancelled"
        finally:
            _release_ghost(store_path, ghost_keys)
            service.shutdown()

    def test_rows_stream_before_completion(self, tmp_path):
        """Cached prefix rows are observable while the suffix is still deferred."""
        store_path = tmp_path / "store.db"
        declaration = _declaration(6, name="mixed")
        specs = _specs_of(declaration)
        _precache(store_path, specs[:3])
        ghost_keys = _ghost_claim(store_path, specs[3:])
        service = CampaignService(store_path, claim_wait_timeout=3.0)
        try:
            handle = service.submit({"campaign": declaration})
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                lines, done = handle.snapshot()
                if len(lines) >= 3:
                    break
                time.sleep(0.01)
            lines, done = handle.snapshot()
            assert len(lines) >= 3
            assert not done, "prefix rows must arrive before the campaign finishes"
            assert handle.session.state == "running"
            assert handle.finished.wait(60)
            lines, done = handle.snapshot()
            assert done and len(lines) == 6
            assert _strip_lines(lines) == _expected_rows(declaration)
        finally:
            _release_ghost(store_path, ghost_keys)
            service.shutdown()

    def test_etag_tracks_store_content(self, tmp_path):
        store_path = tmp_path / "store.db"
        service = CampaignService(store_path)
        try:
            empty = service.etag_for()
            assert empty.startswith('"') and empty.endswith('"')
            assert service.etag_for() == empty
            handle = service.submit({"campaign": _declaration(3)})
            assert handle.finished.wait(60)
            warm = service.etag_for()
            assert warm != empty
            assert service.etag_for() == warm
            assert service.etag_for({"protocol": "exact"}) == service.etag_for(
                {"protocol": "exact"}
            )
            assert service.etag_for({"protocol": "fpa"}) == empty  # both empty sets
        finally:
            service.shutdown()

    def test_etag_revalidation_skips_row_scan_when_generation_unchanged(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: warm revalidation is O(1) — the cached path must not
        touch ``iter_entries``/``iter_keys`` at all, just the generation."""
        service = CampaignService(tmp_path / "store.db")
        try:
            handle = service.submit({"campaign": _declaration(3)})
            assert handle.finished.wait(60)
            warm = service.etag_for()
            filtered = service.etag_for({"protocol": "exact"})

            def _no_scan(self, *args, **kwargs):
                raise AssertionError("cached ETag path must not scan rows")

            monkeypatch.setattr(ResultStore, "iter_entries", _no_scan)
            monkeypatch.setattr(ResultStore, "iter_keys", _no_scan)
            assert service.etag_for() == warm
            assert service.etag_for({"protocol": "exact"}) == filtered
        finally:
            service.shutdown()

    def test_response_cache_serves_repeats_and_rolls_on_generation_bump(
        self, tmp_path, monkeypatch
    ):
        """Query/aggregate bodies come from the generation-keyed LRU on
        repeats, and a ``put_rows`` commit makes the stale entries
        unreachable (no explicit invalidation needed)."""
        store_path = tmp_path / "store.db"
        _precache(store_path, _specs_of(_declaration(3)))
        service = CampaignService(store_path)
        try:
            first = service.query_rows(TrialFilter(protocol="exact"))
            groups = service.aggregate(("protocol",), TrialFilter())
            assert len(first) == 3 and groups[0]["trials"] == 3

            import repro.server.service as service_module

            def _no_recompute(*args, **kwargs):
                raise AssertionError("repeat read must be served from cache")

            monkeypatch.setattr(service_module, "query_store", _no_recompute)
            monkeypatch.setattr(service_module, "aggregate_store", _no_recompute)
            assert service.query_rows(TrialFilter(protocol="exact")) == first
            assert service.aggregate(("protocol",), TrialFilter()) == groups
            monkeypatch.undo()

            # New rows bump the store generation: the next read recomputes
            # against live data instead of resurrecting the cached body.
            _precache(store_path, _specs_of(_declaration(5, base_seed=11)))
            assert len(service.query_rows(TrialFilter(protocol="exact"))) == 8
            assert service.aggregate(("protocol",), TrialFilter())[0]["trials"] == 8
        finally:
            service.shutdown()

    def test_export_batch_paginates_in_key_order(self, tmp_path):
        service = CampaignService(tmp_path / "store.db")
        try:
            handle = service.submit({"campaign": _declaration(5)})
            assert handle.finished.wait(60)
            paged: list[str] = []
            after = None
            pages = 0
            while True:
                lines, after = service.export_batch(after_key=after, batch_size=2)
                if not lines:
                    break
                assert len(lines) <= 2
                paged.extend(lines)
                pages += 1
            assert pages == 3  # 2 + 2 + 1
            # Page-by-page reassembly matches the one-shot key-ordered export.
            assert paged == _stored_lines(tmp_path / "store.db")
        finally:
            service.shutdown()

    def test_store_reads_query_aggregate_export(self, tmp_path):
        service = CampaignService(tmp_path / "store.db")
        try:
            handle = service.submit({"campaign": _declaration(4)})
            assert handle.finished.wait(60)
            rows = service.query_rows(TrialFilter(protocol="exact"))
            assert len(rows) == 4 and all(row["protocol"] == "exact" for row in rows)
            assert service.query_rows(TrialFilter(protocol="exact"), limit=2)
            groups = service.aggregate(("protocol",), TrialFilter())
            assert len(groups) == 1 and groups[0]["trials"] == 4
            lines, _ = service.export_batch(after_key=None, batch_size=10)
            assert lines == _stored_lines(tmp_path / "store.db") and len(lines) == 4
            stats = service.store_stats()
            assert stats["trials"] == 4
            assert stats["claims_live"] == 0
            assert service.store_claims() == []
        finally:
            service.shutdown()

    def test_metrics_accounts_per_key_and_run_states(self, tmp_path):
        service = CampaignService(tmp_path / "store.db")
        try:
            service.record_request("alice", campaigns=1)
            service.record_request("alice")
            service.record_rows("alice", 7)
            service.record_request("bob")
            handle = service.submit({"campaign": _declaration(2)}, api_key="alice")
            assert handle.finished.wait(60)
            metrics = service.metrics()
            assert metrics["api_keys"]["alice"] == {
                "requests": 2,
                "campaigns": 1,
                "rows_streamed": 7,
            }
            assert metrics["api_keys"]["bob"]["requests"] == 1
            assert metrics["runs"] == {"finished": 1}
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# HTTP level (real asyncio server on an ephemeral port)
# ---------------------------------------------------------------------------


class _Server:
    """Run ``serve()`` on an ephemeral port in a background thread."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service
        self.port: int | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(15), "server did not come up"

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        task = asyncio.create_task(
            serve(self.service, host="127.0.0.1", port=0, ready=self._on_ready)
        )
        await self._stop.wait()
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task

    def _on_ready(self, _host: str, port: int) -> None:
        self.port = port
        self._ready.set()

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


@contextlib.contextmanager
def _serving(store_path, **kwargs):
    server = _Server(CampaignService(store_path, **kwargs))
    try:
        yield server
    finally:
        server.close()


def _http(method: str, url: str, payload=None, headers=None):
    """Returns (status, headers, body-bytes); HTTP errors are data, not raises."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        with error:
            return error.code, dict(error.headers), error.read()


def _get_json(url: str, headers=None):
    status, response_headers, body = _http("GET", url, headers=headers)
    return status, response_headers, json.loads(body) if body else None


class TestHttpServer:
    def test_healthz_metrics_and_store_resources(self, tmp_path):
        store_path = tmp_path / "store.db"
        _precache(store_path, _specs_of(_declaration(3)))
        with _serving(store_path) as server:
            status, _, payload = _get_json(server.url("/healthz"))
            assert status == 200 and payload["status"] == "ok"
            assert payload["max_active"] == 2

            status, _, payload = _get_json(server.url("/store/stats"))
            assert status == 200 and payload["trials"] == 3
            assert payload["claims_live"] == 0

            status, _, payload = _get_json(server.url("/store/claims"))
            assert status == 200 and payload == {"claims": [], "count": 0}

            status, _, payload = _get_json(
                server.url("/metrics"), headers={"X-Api-Key": "carol"}
            )
            assert status == 200 and payload["api_keys"]["carol"]["requests"] == 1

    def test_metrics_surfaces_pool_state_and_telemetry(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            status, headers, payload = _get_json(server.url("/metrics"))
            assert status == 200
            assert headers["content-type"] == "application/json"
            assert "pool" not in payload  # one source: the registry families
            for family in (
                "repro_pool_crash_recoveries_total", "repro_pool_busy_seats",
                "repro_pool_cost_model_probes_total", "repro_http_requests_total",
            ):
                assert family in payload["telemetry"]

    @staticmethod
    def _scrape_counter(text: str, sample: str) -> float:
        for line in text.splitlines():
            if line.startswith(sample + " "):
                return float(line.rpartition(" ")[2])
        raise AssertionError(f"{sample} not found in exposition")

    def test_metrics_prometheus_variant(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            status, headers, body = _http(
                "GET", server.url("/metrics?format=prometheus")
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain; version=0.0.4")
            text = body.decode("utf-8")
            assert "# TYPE repro_http_requests_total counter" in text
            assert "# TYPE repro_http_request_seconds histogram" in text
            first = self._scrape_counter(
                text, 'repro_http_requests_total{route="/metrics"}'
            )

            # Accept-header negotiation reaches the same exposition, and the
            # request counter is monotonic across the two scrapes.
            status, headers, body = _http(
                "GET",
                server.url("/metrics"),
                headers={"Accept": "application/openmetrics-text"},
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain; version=0.0.4")
            second = self._scrape_counter(
                body.decode("utf-8"), 'repro_http_requests_total{route="/metrics"}'
            )
            assert second >= first + 1

            # An explicit JSON ask still wins over the Accept header.
            status, headers, _ = _http(
                "GET",
                server.url("/metrics?format=json"),
                headers={"Accept": "text/plain"},
            )
            assert status == 200
            assert headers["content-type"] == "application/json"

    def test_query_with_etag_revalidation(self, tmp_path):
        store_path = tmp_path / "store.db"
        declaration = _declaration(3)
        _precache(store_path, _specs_of(declaration))
        with _serving(store_path) as server:
            url = server.url("/store/query?protocol=exact")
            status, headers, payload = _get_json(url)
            assert status == 200 and payload["count"] == 3
            etag = headers["etag"]

            status, headers, body = _http("GET", url, headers={"If-None-Match": etag})
            assert status == 304 and body == b""
            assert headers["etag"] == etag

            # New commits change the matching set -> the old tag no longer
            # validates and the fresh response carries a different tag.
            _precache(store_path, _specs_of(_declaration(5, base_seed=11)))
            status, headers, payload = _get_json(url, headers={"If-None-Match": etag})
            assert status == 200 and payload["count"] == 8
            assert headers["etag"] != etag

    def test_aggregate_and_export_endpoints(self, tmp_path):
        store_path = tmp_path / "store.db"
        _precache(store_path, _specs_of(_declaration(4)))
        with _serving(store_path) as server:
            status, _, payload = _get_json(server.url("/store/aggregate?group_by=protocol"))
            assert status == 200
            assert payload["rows"][0]["protocol"] == "exact"
            assert payload["rows"][0]["trials"] == 4

            status, headers, body = _http("GET", server.url("/store/export"))
            assert status == 200
            assert headers["content-type"] == "application/x-ndjson"
            lines = body.decode("utf-8").splitlines()
            assert len(lines) == 4
            assert all(json.loads(line)["spec_protocol"] == "exact" for line in lines)

            status, _, body = _http(
                "GET", server.url("/store/export"), headers={"If-None-Match": headers["etag"]}
            )
            assert status == 304 and body == b""

    def test_submit_then_stream_rows_arrive_before_completion(self, tmp_path):
        """The acceptance path: mixed hit/miss campaign over HTTP, NDJSON rows
        observable while the run is still provably in ``running``."""
        store_path = tmp_path / "store.db"
        declaration = _declaration(6, name="over-http")
        specs = _specs_of(declaration)
        _precache(store_path, specs[:3])
        ghost_keys = _ghost_claim(store_path, specs[3:])
        try:
            with _serving(store_path, claim_wait_timeout=3.0) as server:
                status, _, accepted = _get_json_from_post(
                    server.url("/campaigns"), {"campaign": declaration}
                )
                assert status == 202
                assert accepted["trials"] == 6
                run_id = accepted["run_id"]
                assert accepted["rows_url"] == f"/campaigns/{run_id}/rows"

                stream = urllib.request.urlopen(
                    server.url(accepted["rows_url"]), timeout=60
                )
                with stream:
                    assert stream.headers["x-run-id"] == run_id
                    prefix = [stream.readline() for _ in range(3)]
                    assert all(line.endswith(b"\n") for line in prefix)

                    # The suffix is ghost-deferred for ~3s: the run cannot
                    # have finished yet, rows demonstrably stream early.
                    status, _, snapshot = _get_json(server.url(accepted["status_url"]))
                    assert status == 200
                    assert snapshot["state"] == "running"
                    assert snapshot["rows_available"] >= 3

                    remainder = stream.read().decode("utf-8").splitlines()
                all_lines = [line.decode("utf-8").rstrip("\n") for line in prefix] + remainder
                assert len(all_lines) == 6
                assert _strip_lines(all_lines) == _expected_rows(declaration)

                status, _, final = _get_json(server.url(accepted["status_url"]))
                assert status == 200 and final["state"] == "finished"
                assert final["cache_hits"] == 3
        finally:
            _release_ghost(store_path, ghost_keys)

    def test_busy_and_cancel_over_http(self, tmp_path):
        store_path = tmp_path / "store.db"
        declaration = _declaration(3, name="stalled")
        ghost_keys = _ghost_claim(store_path, _specs_of(declaration))
        try:
            with _serving(
                store_path, max_active=1, max_pending=0, claim_wait_timeout=60.0
            ) as server:
                status, _, accepted = _get_json_from_post(
                    server.url("/campaigns"), {"campaign": declaration}
                )
                assert status == 202

                status, _, refused = _get_json_from_post(
                    server.url("/campaigns"), {"campaign": _declaration(2, name="extra")}
                )
                assert status == 429 and "in flight" in refused["error"]

                status, _, cancelled = _get_json_from_post(
                    server.url(accepted["cancel_url"]), {}
                )
                assert status == 200
                deadline = time.monotonic() + 15
                state = cancelled["state"]
                while state != "cancelled" and time.monotonic() < deadline:
                    time.sleep(0.05)
                    _, _, snapshot = _get_json(server.url(accepted["status_url"]))
                    state = snapshot["state"]
                assert state == "cancelled"

                status, _, listing = _get_json(server.url("/campaigns"))
                assert status == 200 and len(listing["runs"]) == 1
                assert listing["runs"][0]["state"] == "cancelled"
        finally:
            _release_ghost(store_path, ghost_keys)

    def test_error_statuses_are_json(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            status, _, payload = _get_json(server.url("/campaigns/nope"))
            assert status == 404 and "unknown run_id" in payload["error"]

            status, _, payload = _get_json(server.url("/no/such/resource"))
            assert status == 404 and "no resource" in payload["error"]

            status, _, payload = _get_json_from_post(
                server.url("/campaigns"), {"campaign": {"grid": {"bogus_axis": [1]}}}
            )
            assert status == 400 and "bogus_axis" in payload["error"]

            status, _, body = _http(
                "POST",
                server.url("/campaigns"),
                headers={"Content-Type": "application/json"},
            )
            assert status == 400

            bound = os.cpu_count() or 1
            status, _, payload = _get_json_from_post(
                server.url("/campaigns"), {"campaign": _declaration(1), "workers": 100000}
            )
            assert status == 400 and f"at most {bound}" in payload["error"]

            status, _, payload = _get_json(server.url("/store/query?dimension=abc"))
            assert status == 400 and "dimension" in payload["error"]


def _get_json_from_post(url: str, payload):
    status, headers, body = _http(
        "POST", url, payload=payload, headers={"Content-Type": "application/json"}
    )
    return status, headers, json.loads(body) if body else None
