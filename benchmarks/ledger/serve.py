"""The ``serve_mixed`` workload: ``repro serve`` as users run it, one client.

The server is a subprocess (``python -m repro.cli serve``): with an in-thread
server the client shares the interpreter lock and quiet p50 reads 2.4-2.8 ms
instead of 0.75-0.96 ms.  The client is a **closed loop** of one reader and
one submitter, each of which waits for its reply before sending the next
request — two client threads, never more than the cores the process may use.

*busy* (main): the submitter POSTs 100-trial ``exact`` d=1 campaigns back to
back and streams each ``/campaigns/{id}/rows`` to completion while the reader
keeps cycling its four routes.  Commits roll the store's generation counter
under the reader and compete for the server's interpreter lock.  The
end-to-end numbers of this phase are the submitter's (rows per second, POST to
row); the reader's latencies beside it are per-layer metrics, because ten runs
of one commit spread them by 30% (p50) and 76% (p99) — no bound could hold.

*quiet* (contrast): the reader alone, on one keep-alive connection, cycles
``/store/query``, ``/store/aggregate``, ``/store/stats`` and an
``If-None-Match`` revalidation.  No commit happens, so every cacheable route
is served from the service's generation-keyed caches.

Each run serves a fresh copy of a store it built from ``--seed``, and submits
a fixed number of campaigns, so the store grows the same way on every run.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro.engine import Campaign, run_campaign, shutdown_pools

from catalog import READ_ROUTES
from checks import ACCEPTED_STATUS
from workloads import INDEPENDENT_ADVERSARIES, Context, Phase, Workload, percentile

#: route name -> (path, sends If-None-Match)
ROUTES: dict[str, tuple[str, bool]] = {
    "query": ("/store/query?protocol=exact&limit=50", False),
    "aggregate": ("/store/aggregate?group_by=protocol,dimension", False),
    "stats": ("/store/stats", False),
    "revalidate": ("/store/query?protocol=exact&limit=50", True),
}
assert tuple(ROUTES) == READ_ROUTES

CAMPAIGN_TRIALS = 100
#: Quiet reads per block (~0.5 s); a block's p99 has five samples beyond it.
READ_BLOCK = 500
SOURCE_ROOT = Path(__file__).resolve().parents[2] / "src"


class Reader:
    """One keep-alive connection cycling the four read routes, checking each reply."""

    def __init__(self, context: Context, port: int) -> None:
        self.context = context
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.etag: str | None = None
        self.turn = 0
        #: route -> latencies in ms, in request order
        self.by_route: dict[str, list[float]] = {route: [] for route in ROUTES}
        self.not_modified = 0
        self.revalidations = 0

    def read_once(self) -> float:
        """Send the next request of the cycle; returns its latency in ms."""
        route = READ_ROUTES[self.turn % len(READ_ROUTES)]
        self.turn += 1
        path, conditional = ROUTES[route]
        sent_tag = self.etag if conditional else None
        headers = {"If-None-Match": sent_tag} if sent_tag is not None else {}
        start = time.perf_counter()
        self.connection.request("GET", path, headers=headers)
        response = self.connection.getresponse()
        body = response.read()
        latency_ms = (time.perf_counter() - start) * 1e3
        self.by_route[route].append(latency_ms)
        self._check(route, response, body, sent_tag)
        return latency_ms

    def _check(
        self, route: str, response: http.client.HTTPResponse, body: bytes, sent_tag: str | None
    ) -> None:
        verifier = self.context.verifier
        status = response.status
        if not verifier.check(status in ACCEPTED_STATUS, f"GET {route}: HTTP {status}"):
            return
        tag = response.getheader("etag")
        if sent_tag is not None:
            self.revalidations += 1
        if status == 304:
            self.not_modified += 1
            verifier.check(
                sent_tag is not None and body == b"" and tag == sent_tag,
                f"GET {route}: 304 must answer a matching If-None-Match with an empty body",
            )
            return
        if sent_tag is not None:
            # A 200 to a conditional request is legitimate only when the
            # matching rows changed under the reader (busy phase).
            verifier.check(tag != sent_tag, f"GET {route}: 200 although the ETag still matches")
        try:
            payload = json.loads(body)
        except ValueError:
            verifier.check(False, f"GET {route}: body is not JSON")
            return
        if route == "stats":
            verifier.check(
                isinstance(payload, dict) and payload.get("trials", 0) > 0, "GET stats: no trials"
            )
            return
        rows = payload.get("rows")
        well_formed = isinstance(rows, list) and payload.get("count") == len(rows)
        if route in ("query", "revalidate"):
            well_formed = well_formed and 0 < len(rows) <= 50 and tag is not None
            if tag is not None:
                self.etag = tag
        verifier.check(well_formed, f"GET {route}: malformed body")

    def close(self) -> None:
        self.connection.close()


class ServeMixed(Workload):
    name = "serve_mixed"
    workers = 2  # the server process and the client process
    PREWARM_REPEATS = 10  # x 3 dimensions x 4 adversaries = 120 rows per block

    def __init__(self, context: Context) -> None:
        super().__init__(context)
        self.prewarm_blocks = 3
        self.quiet_blocks = context.blocks(0.6)  # ~0.5 s each
        self.campaigns = context.blocks(0.75)  # ~0.55 s each
        self.prewarmed = context.inputs / "prewarmed.db"
        self.store_path = context.scratch / "served.db"
        self.server: subprocess.Popen[str] | None = None
        self.port = 0
        self.reader: Reader | None = None
        self.busy_reads: dict[str, list[float]] = {}
        self.quiet_by_route: dict[str, list[float]] = {}
        self.scrapes: dict[str, dict[str, Any]] = {}
        self.input_build_s = 0.0

    def sizes(self) -> dict[str, Any]:
        return {
            "prewarmed_rows": self.prewarm_blocks * self.PREWARM_REPEATS * 12,
            "quiet": {"reads": self.quiet_blocks * READ_BLOCK, "routes": list(READ_ROUTES)},
            "busy": {"campaigns": self.campaigns, "trials_per_campaign": CAMPAIGN_TRIALS},
            "client": "closed loop: 1 reader + 1 submitter",
            "input_build_s": round(self.input_build_s, 3),
        }

    def build_inputs(self) -> None:
        """The store the server will serve: real ``exact`` rows from ``--seed``."""
        if self.prewarmed.exists():
            return  # an earlier process of this run built it
        start = time.perf_counter()
        building = self.prewarmed.with_suffix(".building")
        for index in range(self.prewarm_blocks):
            campaign = Campaign.from_grid(
                f"prewarm-{index}",
                protocols=("exact",),
                adversaries=INDEPENDENT_ADVERSARIES,
                dimensions=(1, 2, 3),
                fault_bounds=(1,),
                repeats=self.PREWARM_REPEATS,
                base_seed=self.context.seed_for("prewarm", index),
            )
            _, results = run_campaign(campaign, workers=2, store=building, collect=True)
            self.context.verifier.check_results(results, "prewarm")
        shutdown_pools()
        building.rename(self.prewarmed)
        self.input_build_s = time.perf_counter() - start

    def setup(self) -> None:
        shutil.copyfile(self.prewarmed, self.store_path)
        environment = dict(os.environ, PYTHONPATH=str(SOURCE_ROOT))
        # A parent that ignores SIGINT (a shell's background job does) hands
        # that down through exec, and the server would sit out close()'s
        # interrupt until it is killed; a handler of our own is reset to the
        # default on exec.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(self.store_path),
             "--port", "0", "--max-active", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=environment,
        )
        ready = self.server.stdout.readline()  # "serving <store> on http://host:port"
        if "http://" not in ready:
            raise RuntimeError(f"server did not come up: {ready!r}")
        self.port = int(ready.rsplit(":", 1)[1])
        self.reader = Reader(self.context, self.port)
        for _ in READ_ROUTES:  # first touch fills the service caches
            self.reader.read_once()
        self._move_reads({})  # the cache-filling reads are not samples
        self.reader.not_modified = self.reader.revalidations = 0

    # -- timed phases --------------------------------------------------------

    def measure(self) -> tuple[Phase, Phase]:
        reader = self.reader
        assert reader is not None
        traced = self.context.tracer is not None
        if traced:
            self.scrapes["start"] = self._scrape()

        quiet = Phase("quiet", "reads")
        busy = Phase("busy", "rows")
        pace = self.context.pace
        # Alternate the phases' blocks, so both sample the whole run.  Reads
        # after a campaign see a larger store, by the same amount on every
        # run, and are served from the generation-keyed caches as before.
        for index in range(max(self.quiet_blocks, self.campaigns)):
            if index < self.quiet_blocks:
                with pace.around() as bracket:
                    start = time.perf_counter()
                    latencies = [reader.read_once() for _ in range(READ_BLOCK)]
                    wall = time.perf_counter() - start
                quiet.add_block(READ_BLOCK, wall, latencies, bracket.lap_s)
                self._move_reads(self.quiet_by_route)
            if index < self.campaigns:
                self._busy_block(busy, index)
                self._move_reads(self.busy_reads)
        if traced:
            self.scrapes["end"] = self._scrape()
        return busy, quiet

    def _move_reads(self, into: dict[str, list[float]]) -> None:
        """Hand the reader's latencies since the last call to ``into``, by route."""
        for route, samples in self.reader.by_route.items():
            into.setdefault(route, []).extend(samples)
        self.reader.by_route = {route: [] for route in ROUTES}

    def _busy_block(self, busy: Phase, index: int) -> None:
        """Submit and stream campaign ``index`` while the reader keeps reading."""
        reader = self.reader
        done = threading.Event()
        outcome: list[Any] = []  # what the submitter returned, or the exception it met

        def submit() -> None:
            try:
                outcome.append(self._submit_and_stream(index))
            except BaseException as error:  # noqa: BLE001 — re-raised on the main thread
                outcome.append(error)
            finally:
                done.set()

        submitter = threading.Thread(target=submit, name="ledger-submitter")
        with self.context.pace.around() as bracket:
            submitter.start()
            try:
                while not done.is_set():
                    reader.read_once()
            finally:
                submitter.join()
        (block,) = outcome
        if isinstance(block, BaseException):
            raise block
        if block:
            busy.add_block(*block, bracket.lap_s)

    def _submit_and_stream(self, index: int) -> tuple[Any, ...]:
        """POST one campaign and read its row stream to the end.

        Returns the block's ``Phase.add_block`` arguments up to the lap time,
        or nothing when the server refused the campaign.
        """
        verifier = self.context.verifier
        body = json.dumps({
            "campaign": {
                "name": f"busy-{index}",
                "grid": {
                    "protocols": ["exact"],
                    "dimensions": [1],
                    "fault_bounds": [1],
                    "repeats": CAMPAIGN_TRIALS,
                    "base_seed": self.context.seed_for("busy", index),
                },
            }
        })
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            start = time.perf_counter()
            connection.request(
                "POST", "/campaigns", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            accepted = json.loads(response.read())
            if not verifier.check(response.status == 202, f"POST /campaigns: HTTP {response.status}"):
                return ()
            connection.request("GET", accepted["rows_url"])
            stream = connection.getresponse()
            verifier.check(stream.status == 200, f"GET rows: HTTP {stream.status}")
            arrivals, lines = [], []
            for line in stream:
                if line.strip():
                    arrivals.append(time.perf_counter())
                    lines.append(line)
            wall = time.perf_counter() - start
        finally:
            connection.close()
        for line in lines:
            verifier.check_row(json.loads(line), f"busy-{index} stream")
        verifier.check(
            len(lines) == CAMPAIGN_TRIALS, f"busy-{index}: stream delivered {len(lines)} rows"
        )
        return len(lines), wall, [(arrival - start) * 1e3 for arrival in arrivals]

    # -- traced run: counters scraped from outside, service timed directly ---

    def _scrape(self) -> dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())["telemetry"]
        finally:
            connection.close()

    def layer_extras(self) -> dict[str, float]:
        extras: dict[str, float] = {}
        reads = {
            route: self.quiet_by_route[route] + self.busy_reads[route] for route in READ_ROUTES
        }
        for route, samples in reads.items():
            extras[f"server.route_ms_p50.{route}"] = percentile(samples, 50)
            extras[f"server.route_ms_p99.{route}"] = percentile(samples, 99)
        quiet_reads = [latency for samples in self.quiet_by_route.values() for latency in samples]
        busy_reads = [latency for samples in self.busy_reads.values() for latency in samples]
        extras["server.quiet_read_ms_p99"] = percentile(quiet_reads, 99)
        extras["server.busy_read_ms_p50"] = percentile(busy_reads, 50)
        extras["server.busy_read_ms_p99"] = percentile(busy_reads, 99)
        extras["server.busy_reads"] = len(busy_reads)
        first, last = self.scrapes["start"], self.scrapes["end"]

        def moved(family: str, label: str) -> float:
            def value(scrape: dict[str, Any]) -> Any:
                return scrape.get(family, {}).get("samples", {}).get(label, 0)
            before, after = value(first), value(last)
            if isinstance(after, dict):  # histogram: seconds summed
                return after["sum"] - (before["sum"] if before else 0.0)
            return after - before

        def moved_all(family: str) -> float:
            """``moved`` summed over every label the family has."""
            return sum(moved(family, label) for label in last.get(family, {}).get("samples", {}))

        handler_seconds = 0.0
        for route, server_route in (
            ("query", "/store/query"), ("aggregate", "/store/aggregate"), ("stats", "/store/stats"),
        ):
            seconds = moved("repro_http_request_seconds", f"route={server_route}")
            handler_seconds += seconds
            extras[f"server.handler_s.{route}"] = seconds
        # query and revalidate share the server-side route label; split by request share
        query_like = len(reads["query"]) + len(reads["revalidate"])
        query_seconds = extras["server.handler_s.query"]
        extras["server.handler_s.revalidate"] = query_seconds * len(reads["revalidate"]) / query_like
        extras["server.handler_s.query"] = query_seconds * len(reads["query"]) / query_like
        total_reads = sum(len(samples) for samples in reads.values())
        client_seconds = sum(sum(samples) for samples in reads.values()) / 1e3
        extras["server.framing_ms"] = (client_seconds - handler_seconds) / total_reads * 1e3
        requests = moved_all("repro_http_requests_total")
        extras["server.keepalive_reuse_ratio"] = (
            moved("repro_http_keepalive_reuse_total", "_") / requests if requests else 0.0
        )
        reader = self.reader
        extras["server.not_modified_share"] = (
            reader.not_modified / reader.revalidations if reader.revalidations else 0.0
        )
        # what the submitted campaigns cost inside the server process
        extras["geometry.lp_solves"] = moved("repro_kernel_events_total", "kind=lp_solves")
        extras["engine.session.fallbacks"] = moved_all("repro_plan_fallbacks_total")
        extras["store.rows_written"] = moved("repro_store_rows_written_total", "backend=sqlite")
        extras["store.generation_bumps"] = moved("repro_store_generation_bumps_total", "backend=sqlite")
        extras.update(self._time_service())
        return extras

    def _time_service(self) -> dict[str, float]:
        """Direct ``CampaignService`` calls on a copy of the served store, no HTTP.

        Each round commits one row first (as a busy-phase campaign does), so
        the first call of each kind recomputes and the repeats hit the cache.
        """
        from repro.server.service import CampaignService
        from repro.store.backend import open_store
        from repro.store.query import TrialFilter

        tracer = self.context.tracer
        copy = self.context.scratch / "service-copy.db"
        shutil.copyfile(self.prewarmed, copy)
        service = CampaignService(copy)
        trial_filter = TrialFilter(protocol="exact")
        rounds, repeats = 20, 4
        try:
            with open_store(copy) as writer:
                spare = list(writer.iter_entries(limit=rounds))
                tracer.reset()
                for entry in spare:
                    writer.put_rows([(entry.key, entry.row)])  # same row: bumps the generation
                    for _ in range(repeats):
                        service.etag_for(trial_filter.to_where())
                        service.query_rows(trial_filter, 50)
                        service.aggregate(("protocol", "dimension"), trial_filter)
        finally:
            service.shutdown()
        totals = tracer.totals
        calls = rounds * repeats
        computed = totals["service.compute.query_store"][0] + totals["service.compute.aggregate_store"][0]
        return {
            "service.query_rows_s": totals["service.query_rows"][1] / rounds,
            "service.aggregate_s": totals["service.aggregate"][1] / rounds,
            "service.etag_s": totals["service.etag_for"][1] / rounds,
            "service.cache_hit_ratio": 1.0 - computed / (2 * calls),
        }

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
        if self.server is not None:
            self.server.send_signal(signal.SIGINT)  # run_server shuts the service down
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
        super().close()
