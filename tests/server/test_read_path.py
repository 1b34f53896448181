"""The cached read path: wire bytes, the stats cache, and per-read work.

A store read over HTTP (``/store/query``, ``/store/aggregate``,
``/store/stats``) is one executor call into :class:`CampaignService` that
returns the ETag and the encoded body.  These tests pin:

* the bytes: every body equals ``json.dumps(payload, sort_keys=True) + "\\n"``
  of the payload API (``query_rows``, ``aggregate``, ``store_stats``), every
  ETag equals ``etag_for``, before and after a commit, and a matching
  ``If-None-Match`` still answers a bodyless 304;
* the stats cache: trial counts come from the generation-keyed cache, claims
  are read fresh (a claim does not bump the generation), a commit moves the
  counts;
* the work per read, counted, not timed: one ``asyncio.to_thread`` hop per
  read, and no JSON encode when a query or aggregate repeats at an unchanged
  generation;
* integer query parameters outside SQLite's signed 64-bit range answer 400.
"""

from __future__ import annotations

import asyncio
import http.client
import json

import pytest

from repro.engine import Campaign, CampaignSession
from repro.obs.registry import get_registry
from repro.server import CampaignService
from repro.server.http import RequestHandler
from repro.store.backend import ResultStore
from repro.store.keys import trial_key
from repro.store.query import TrialFilter

from test_http_keepalive import _get, _RecordingWriter, _serving

QUERY = "/store/query?protocol=exact&limit=50"
AGGREGATE = "/store/aggregate?group_by=protocol,dimension"
STATS = "/store/stats"


def _specs(trials: int, base_seed: int) -> tuple:
    return Campaign.from_grid(
        "read-path",
        protocols=("exact",),
        adversaries=("crash", "outside_hull"),
        dimensions=(1, 2),
        repeats=trials,
        base_seed=base_seed,
    ).specs


def _commit(store_path, specs) -> None:
    assert len(list(CampaignSession(list(specs), store=store_path).rows())) == len(specs)


def _wire(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _rows_payload(rows) -> dict:
    return {"rows": rows, "count": len(rows)}


class TestWireBytes:
    #: path -> (payload API call, ETag filter); ``None`` filter: no ETag.
    @staticmethod
    def _expected(service: CampaignService):
        return {
            "/store/query": (
                lambda: _rows_payload(service.query_rows(TrialFilter())),
                {},
            ),
            "/store/query?protocol=exact&dimension=2&limit=3": (
                lambda: _rows_payload(
                    service.query_rows(TrialFilter(protocol="exact", dimension=2), 3)
                ),
                {"protocol": "exact", "dimension": 2},
            ),
            "/store/aggregate?group_by=protocol": (
                lambda: _rows_payload(service.aggregate(("protocol",), TrialFilter())),
                {},
            ),
            "/store/aggregate?group_by=adversary,dimension&status=ok": (
                lambda: _rows_payload(
                    service.aggregate(("adversary", "dimension"), TrialFilter(status="ok"))
                ),
                {"status": "ok"},
            ),
            STATS: (service.store_stats, None),
        }

    def test_bodies_and_etags_equal_the_payload_api_across_a_commit(self, tmp_path):
        store_path = tmp_path / "store.db"
        _commit(store_path, _specs(3, base_seed=7))
        with _serving(store_path) as server:
            service = server.service
            expected = self._expected(service)
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                tags: dict[str, dict[str, str]] = {"before": {}, "after": {}}
                for phase in tags:
                    if phase == "after":
                        _commit(store_path, _specs(2, base_seed=11))
                    for path, (payload, where) in expected.items():
                        for _ in range(2):  # the second read is a cache hit
                            status, headers, body = _get(conn, path)
                            assert status == 200
                            assert headers["content-type"] == "application/json"
                            assert body == _wire(payload()), (phase, path)
                        if where is None:
                            assert "etag" not in headers
                            continue
                        etag = tags[phase][path] = headers["etag"]
                        assert etag == service.etag_for(where), (phase, path)
                        status, headers, body = _get(conn, path, {"If-None-Match": etag})
                        assert (status, headers["etag"], body) == (304, etag, b"")
                for path, etag in tags["before"].items():
                    assert tags["after"][path] != etag, f"{path}: the commit did not move the tag"
            finally:
                conn.close()


class TestStatsCache:
    def test_claims_are_live_while_trial_counts_come_from_the_cache(
        self, tmp_path, monkeypatch
    ):
        store_path = tmp_path / "store.db"
        specs = _specs(3, base_seed=7)
        _commit(store_path, specs[:8])
        with _serving(store_path) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                status, _, body = _get(conn, STATS)
                first = json.loads(body)
                assert status == 200 and first["trials"] == 8 and first["claims_live"] == 0

                def _no_count(self):
                    raise AssertionError("cached stats must not re-count trials")

                monkeypatch.setattr(ResultStore, "stats", _no_count)
                with ResultStore(store_path) as store:
                    generation = store.generation()
                    keys = [trial_key(spec) for spec in specs[8:11]]
                    assert store.claim_keys(keys, "other-session") == set(keys)
                    assert store.generation() == generation  # claims do not bump it
                status, _, body = _get(conn, STATS)
                claimed = json.loads(body)
                assert status == 200 and claimed["claims_live"] == 3
                assert claimed == {**first, "claims_live": 3}
                assert server.service.store_stats() == claimed
                monkeypatch.undo()

                with ResultStore(store_path) as store:
                    store.release_claims(keys, "other-session")
                _commit(store_path, specs[8:])  # bumps the generation
                status, _, body = _get(conn, STATS)
                moved = json.loads(body)
                assert moved["trials"] == len(specs) and moved["claims_live"] == 0
                assert moved["statuses"] == {"ok": len(specs)}
            finally:
                conn.close()


class TestWorkPerRead:
    """Executor hops and JSON encodes per read: counts, no timing."""

    #: The ledger's quiet cycle: route -> path (``revalidate`` sends the query's ETag).
    ROUTES = {"query": QUERY, "aggregate": AGGREGATE, "stats": STATS, "revalidate": QUERY}

    @staticmethod
    def _count_calls(monkeypatch, module, name: str) -> list[int]:
        calls = [0]
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def _counts(self, tmp_path, monkeypatch, cycles: int) -> dict[str, list[tuple[int, int]]]:
        """Serve ``cycles`` rounds of the four reads on one handler, in process."""
        store_path = tmp_path / "store.db"
        _commit(store_path, _specs(3, base_seed=7))
        service = CampaignService(store_path)
        handler = RequestHandler(service)
        hops = self._count_calls(monkeypatch, asyncio, "to_thread")
        encodes = self._count_calls(monkeypatch, json, "dumps")
        seen: dict[str, list[tuple[int, int]]] = {route: [] for route in self.ROUTES}

        async def exchange(path: str, etag: str | None = None) -> bytes:
            head = f"GET {path} HTTP/1.1\r\nhost: x\r\n"
            if etag is not None:
                head += f"if-none-match: {etag}\r\n"
            reader = asyncio.StreamReader()
            reader.feed_data((head + "\r\n").encode("latin-1"))
            reader.feed_eof()
            writer = _RecordingWriter()
            await handler.handle_connection(reader, writer)
            return b"".join(writer.writes)

        async def main() -> None:
            etag = None
            for _ in range(cycles):
                for route, path in self.ROUTES.items():
                    before = hops[0], encodes[0]
                    raw = await exchange(path, etag if route == "revalidate" else None)
                    seen[route].append((hops[0] - before[0], encodes[0] - before[1]))
                    status = 304 if route == "revalidate" else 200
                    assert raw.startswith(f"HTTP/1.1 {status}".encode()), raw[:40]
                    if route == "query":
                        head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1")
                        etag = head.split("etag: ", 1)[1].split("\r\n", 1)[0]

        try:
            asyncio.run(main())
        finally:
            service.shutdown()
        return seen

    def test_one_hop_per_read_and_no_encode_on_a_repeat(self, tmp_path, monkeypatch):
        seen = self._counts(tmp_path, monkeypatch, cycles=3)
        # (executor hops, JSON encodes) per read, first cycle then repeats.
        assert seen["query"] == [(1, 1), (1, 0), (1, 0)]
        assert seen["aggregate"] == [(1, 1), (1, 0), (1, 0)]
        assert seen["stats"] == [(1, 1), (1, 1), (1, 1)]  # claims are read fresh
        assert seen["revalidate"] == [(1, 0), (1, 0), (1, 0)]

    def test_read_cache_counter_splits_hits_from_misses(self, tmp_path, monkeypatch):
        family = get_registry().snapshot(collect=False)["repro_service_read_cache_total"]
        before = dict(family["samples"])
        self._counts(tmp_path, monkeypatch, cycles=3)
        after = get_registry().snapshot(collect=False)["repro_service_read_cache_total"]
        moved = {
            label: value - before.get(label, 0) for label, value in after["samples"].items()
        }
        for route in ("query", "aggregate", "stats"):
            assert moved[(route, "miss")] == 1
            assert moved[(route, "hit")] == 2


class TestIntegerParameters:
    @pytest.mark.parametrize(
        "path",
        [
            "/store/query?limit={}",
            "/store/query?dimension={}",
            "/store/aggregate?fault_bound={}",
            "/store/export?process_count={}",
        ],
    )
    def test_sqlite_integer_range(self, tmp_path, path):
        store_path = tmp_path / "store.db"
        _commit(store_path, _specs(1, base_seed=7))
        with _serving(store_path) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                for value in (2**63, -(2**63) - 1, 10**20):
                    status, _, body = _get(conn, path.format(value))
                    assert status == 400, (value, body)
                    assert "signed 64-bit" in json.loads(body)["error"]
                status, _, _ = _get(conn, path.format(2**63 - 1))
                assert status == 200
            finally:
                conn.close()
