"""Asyncio HTTP/1.1 front end for :class:`~repro.server.service.CampaignService`.

Stdlib-only by design (``asyncio.start_server`` + hand-rolled HTTP/1.1):
the reproduction must stay installable with numpy/scipy alone, so the serving
layer cannot take a framework dependency.  The protocol support is scoped to
what the resources need — ``GET``/``POST``, JSON bodies, query strings,
``If-None-Match`` revalidation, and chunked NDJSON streaming — with
**keep-alive** connection semantics: each connection serves a loop of
requests until the client sends ``Connection: close`` (or speaks HTTP/1.0
without ``keep-alive``), the idle timeout expires between requests, the
per-connection request cap is reached, or an error leaves the stream in an
unknown framing state.  Chunked responses are self-delimiting, so even
NDJSON streams hand the socket back for the next request when they finish
cleanly.

Resources::

    GET  /healthz                     liveness + service bounds
    GET  /metrics                     accounting + run states + pool/telemetry
                                      (``?format=prometheus`` or an Accept
                                      header naming text exposition switches
                                      to the Prometheus v0.0.4 text format)
    GET  /store/stats                 store row/claim counters
    GET  /store/claims                outstanding claims (age, owner)
    GET  /store/query?...             filtered trial rows (ETag)
    GET  /store/aggregate?group_by=.. grouped outcome counters (ETag)
    GET  /store/export?...            NDJSON row export (ETag, streamed)
    POST /campaigns                   submit a campaign -> 202 {run_id, ...}
    GET  /campaigns                   status of every run this process knows
    GET  /campaigns/{run_id}          one run's status snapshot
    GET  /campaigns/{run_id}/rows     NDJSON row stream (replay + live tail)
    POST /campaigns/{run_id}/cancel   cooperative cancellation

Identity is the ``X-Api-Key`` header (default ``"anonymous"``) — accounting,
not authentication.  Store-read endpoints honour ``If-None-Match`` against
an ETag derived from the matching rows' content keys; the service caches the
digest per store generation, so an unchanged store answers repeated polls
with bodyless 304s in O(1).  Blocking store and service calls run in the
default executor (on pooled per-thread store handles), keeping the event
loop free to accept traffic while sessions compute; ``/store/query``,
``/store/aggregate`` and ``/store/stats`` make one executor call each, which
returns the ETag and the encoded body, so a cached read does no JSON work on
the loop.  The accounting counters are a plain in-memory lock and are bumped
inline on the loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ConfigurationError
from repro.obs.registry import get_registry
from repro.server.service import CampaignService, ServiceError, encode_json
from repro.store.keys import ENGINE_VERSION
from repro.store.query import TrialFilter

__all__ = ["HttpError", "RequestHandler", "serve", "run_server"]

#: Seconds a keep-alive connection may sit idle between requests before the
#: server closes it.
IDLE_TIMEOUT_SECONDS = 30.0

#: Requests served on one connection before the server closes it (bounds how
#: long one client can pin a connection's resources).
MAX_REQUESTS_PER_CONNECTION = 1000

#: Fallback wakeup for live row streams.  Streams are push-notified on every
#: committed row (``RunHandle`` waiters via ``loop.call_soon_threadsafe``),
#: so this only bounds the stall after a lost wakeup — it is a safety net,
#: not a poll interval.
STREAM_WAIT_FALLBACK_SECONDS = 5.0

_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Integer query parameters reach SQLite, whose INTEGER is a signed 64-bit.
_SQLITE_INT_MIN, _SQLITE_INT_MAX = -(2**63), 2**63 - 1
_MAX_HEADER_LINES = 100

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Prometheus text exposition content type (v0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Routes the latency histogram may label.  Unknown paths collapse to
# "other" so a scanner probing random URLs cannot explode label cardinality.
_KNOWN_ROUTES = frozenset(
    {
        "/",
        "/healthz",
        "/metrics",
        "/store/stats",
        "/store/claims",
        "/store/query",
        "/store/aggregate",
        "/store/export",
        "/campaigns",
    }
)

_HTTP_REQUESTS = get_registry().counter(
    "repro_http_requests_total",
    "HTTP requests dispatched, by normalised route.",
    labelnames=("route",),
)
_HTTP_LATENCY = get_registry().histogram(
    "repro_http_request_seconds",
    "Request handling latency (parse excluded, streaming included), by route.",
    labelnames=("route",),
)
_HTTP_KEEPALIVE_REUSE = get_registry().counter(
    "repro_http_keepalive_reuse_total",
    "Requests served on an already-used keep-alive connection.",
)
_HTTP_NOT_MODIFIED = get_registry().counter(
    "repro_http_not_modified_total",
    "Conditional requests answered with a bodyless 304, by route.",
    labelnames=("route",),
)
_HTTP_STREAMS = get_registry().counter(
    "repro_http_ndjson_streams_total",
    "Chunked NDJSON streaming responses started, by route.",
    labelnames=("route",),
)


def _wants_prometheus(request: "Request") -> bool:
    """Content negotiation for ``/metrics``: query param wins, then Accept.

    ``?format=prometheus`` (or ``json``) is explicit; otherwise an Accept
    header naming a text exposition type selects Prometheus, and the JSON
    payload remains the default for untyped clients.
    """
    explicit = request.param("format")
    if explicit is not None:
        return explicit == "prometheus"
    accept = request.headers.get("accept", "")
    return "application/openmetrics-text" in accept or "text/plain" in accept


def _route_label(path: str) -> str:
    """Normalise a request path to a bounded-cardinality route label."""
    path = path.rstrip("/") or "/"
    if path.startswith("/campaigns/"):
        tail = path.split("/")[3:]
        suffix = tail[0] if tail else ""
        if suffix in ("rows", "cancel"):
            return f"/campaigns/{{run_id}}/{suffix}"
        return "/campaigns/{run_id}" if not tail else "other"
    return path if path in _KNOWN_ROUTES else "other"


class HttpError(Exception):
    """Request failure carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _ConnectionState:
    """Per-request connection bookkeeping shared with response writers.

    ``keep_alive`` is the decision for *this* response's ``Connection:``
    header; ``response_started`` flips once any bytes of a (possibly
    streaming) response hit the socket, after which an error can no longer
    be answered in-band — the connection must close instead.
    """

    def __init__(self, keep_alive: bool) -> None:
        self.keep_alive = keep_alive
        self.response_started = False

    @property
    def close(self) -> bool:
        return not self.keep_alive


class Request:
    """One parsed HTTP request (method, path, query, headers, JSON body)."""

    def __init__(
        self,
        method: str,
        path: str,
        query: Mapping[str, list[str]],
        headers: Mapping[str, str],
        body: bytes,
        http_version: str = "HTTP/1.1",
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.http_version = http_version

    @property
    def api_key(self) -> str:
        return self.headers.get("x-api-key", "anonymous") or "anonymous"

    @property
    def keep_alive(self) -> bool:
        """The client's connection-persistence preference (RFC 9112 §9.3)."""
        connection = self.headers.get("connection", "").lower()
        tokens = {token.strip() for token in connection.split(",") if token.strip()}
        if "close" in tokens:
            return False
        if self.http_version == "HTTP/1.0":
            return "keep-alive" in tokens
        return True

    def param(self, name: str, default: str | None = None) -> str | None:
        values = self.query.get(name)
        return values[0] if values else default

    def int_param(self, name: str) -> int | None:
        raw = self.param(name)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name!r} must be an integer, got {raw!r}")
        if not _SQLITE_INT_MIN <= value <= _SQLITE_INT_MAX:
            raise HttpError(
                400, f"query parameter {name!r} must fit in a signed 64-bit integer, got {raw!r}"
            )
        return value

    def json_body(self) -> Any:
        if not self.body:
            raise HttpError(400, "request body must be JSON (got an empty body)")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as error:
            raise HttpError(400, f"request body is not valid JSON: {error}")


async def _read_request(
    reader: asyncio.StreamReader, idle_timeout: float | None = None
) -> Request | None:
    """Parse one request; ``None`` on EOF or idle timeout (close quietly)."""
    try:
        if idle_timeout is None:
            request_line = await reader.readline()
        else:
            request_line = await asyncio.wait_for(reader.readline(), idle_timeout)
    except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many request headers")
    if "transfer-encoding" in headers:
        # The parser only frames Content-Length bodies; silently ignoring a
        # chunked body would desynchronise the connection on the next read.
        raise HttpError(
            400,
            "Transfer-Encoding request bodies are not supported; "
            "send a Content-Length body",
        )
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise HttpError(400, f"malformed Content-Length: {length!r}")
        if size < 0:
            raise HttpError(400, f"Content-Length must be non-negative, got {size}")
        if size > _MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {_MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(size)
    split = urlsplit(target)
    return Request(
        method=method.upper(),
        path=split.path,
        query=parse_qs(split.query),
        headers=headers,
        body=body,
        http_version=version.upper(),
    )


def _response_head(status: int, headers: Mapping[str, str], close: bool) -> bytes:
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    lines.append("connection: close" if close else "connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    close: bool = True,
) -> None:
    await _send_json_body(writer, status, encode_json(payload), close=close)


async def _send_json_body(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    extra_headers: Mapping[str, str] | None = None,
    close: bool = True,
) -> None:
    """Write an already-encoded JSON body (see :func:`encode_json`)."""
    headers = {
        "content-type": "application/json",
        "content-length": str(len(body)),
        **(extra_headers or {}),
    }
    writer.write(_response_head(status, headers, close) + body)
    await writer.drain()


async def _send_tagged(
    writer: asyncio.StreamWriter, route: str, etag: str, body: bytes | None, close: bool
) -> None:
    """A tagged read's reply: a bodyless 304 when ``body`` is ``None``, else 200."""
    if body is None:
        _HTTP_NOT_MODIFIED.labels(route=route).inc()
        await _send_empty(writer, 304, {"etag": etag}, close=close)
        return
    await _send_json_body(writer, 200, body, {"etag": etag}, close=close)


async def _send_empty(
    writer: asyncio.StreamWriter,
    status: int,
    extra_headers: Mapping[str, str] | None = None,
    close: bool = True,
) -> None:
    headers = {"content-length": "0", **(extra_headers or {})}
    writer.write(_response_head(status, headers, close))
    await writer.drain()


async def _send_text(
    writer: asyncio.StreamWriter,
    status: int,
    text: str,
    content_type: str = "text/plain; charset=utf-8",
    close: bool = True,
) -> None:
    body = text.encode("utf-8")
    headers = {"content-type": content_type, "content-length": str(len(body))}
    writer.write(_response_head(status, headers, close) + body)
    await writer.drain()


class _ChunkedWriter:
    """Chunked transfer encoding over a StreamWriter (for NDJSON streams).

    Chunked framing is self-delimiting (the ``0\\r\\n\\r\\n`` trailer marks
    the end), so a cleanly-finished stream keeps the connection reusable;
    the shared :class:`_ConnectionState` records that the response started,
    which is what forces a close if the stream dies midway instead.
    """

    def __init__(self, writer: asyncio.StreamWriter, state: _ConnectionState) -> None:
        self._writer = writer
        self._state = state

    async def start(self, extra_headers: Mapping[str, str] | None = None) -> None:
        headers = {
            "content-type": "application/x-ndjson",
            "transfer-encoding": "chunked",
            **(extra_headers or {}),
        }
        self._state.response_started = True
        self._writer.write(_response_head(200, headers, self._state.close))
        await self._writer.drain()

    async def send_line(self, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        self._writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
        await self._writer.drain()

    async def finish(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()


class RequestHandler:
    """Routes parsed requests onto a :class:`CampaignService`.

    One :meth:`handle_connection` call serves a whole keep-alive session:
    requests are read and dispatched in a loop until the client opts out,
    the idle timeout fires, the request cap is reached, or framing is lost.
    """

    def __init__(
        self, service: CampaignService, idle_timeout: float = IDLE_TIMEOUT_SECONDS
    ) -> None:
        self.service = service
        self.idle_timeout = idle_timeout

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            served = 0
            while served < MAX_REQUESTS_PER_CONNECTION:
                try:
                    request = await _read_request(reader, self.idle_timeout)
                except HttpError as error:
                    # Parse failure: the read offset is unknowable, so this
                    # response is the connection's last.
                    with contextlib.suppress(ConnectionError, RuntimeError):
                        await _send_json(
                            writer, error.status, {"error": str(error)}, close=True
                        )
                    return
                if request is None:
                    return  # EOF or idle timeout — close quietly
                served += 1
                if served > 1:
                    _HTTP_KEEPALIVE_REUSE.inc()
                state = _ConnectionState(
                    keep_alive=request.keep_alive
                    and served < MAX_REQUESTS_PER_CONNECTION
                )
                try:
                    await self.dispatch(request, writer, state)
                except (HttpError, ServiceError) as error:
                    if state.response_started:
                        return  # mid-stream failure: framing lost, close
                    # The request was fully read and the response is complete
                    # JSON — framing is intact, keep-alive may continue.
                    await _send_json(
                        writer, error.status, {"error": str(error)}, close=state.close
                    )
                except (ConnectionError, asyncio.IncompleteReadError):
                    return  # client went away mid-exchange; nothing to answer
                except Exception as error:  # noqa: BLE001 — last-resort 500
                    with contextlib.suppress(ConnectionError, RuntimeError):
                        if not state.response_started:
                            await _send_json(
                                writer,
                                500,
                                {"error": f"{type(error).__name__}: {error}"},
                                close=True,
                            )
                    return
                if state.close:
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def dispatch(
        self, request: Request, writer: asyncio.StreamWriter, state: _ConnectionState
    ) -> None:
        """Route one request, timing it under the per-route histogram.

        The timer covers handler work including streamed bodies; failures are
        observed too (the finally), so error latency is not invisible.
        """
        route = _route_label(request.path)
        _HTTP_REQUESTS.labels(route=route).inc()
        started = time.perf_counter()
        try:
            await self._route(request, writer, state)
        finally:
            _HTTP_LATENCY.labels(route=route).observe(time.perf_counter() - started)

    async def _route(
        self, request: Request, writer: asyncio.StreamWriter, state: _ConnectionState
    ) -> None:
        service = self.service
        # Plain-lock counter bump: cheap enough to run inline on the loop
        # (no executor round trip per request).
        service.record_request(request.api_key)
        method, path = request.method, request.path.rstrip("/") or "/"

        if method == "GET" and path == "/healthz":
            await _send_json(
                writer,
                200,
                {
                    "status": "ok",
                    "store": str(service.store_path),
                    "max_active": service.max_active,
                    "max_pending": service.max_pending,
                },
                close=state.close,
            )
            return
        if method == "GET" and path == "/metrics":
            if _wants_prometheus(request):
                text = await asyncio.to_thread(service.prometheus_metrics)
                await _send_text(
                    writer, 200, text, PROMETHEUS_CONTENT_TYPE, close=state.close
                )
                return
            await _send_json(
                writer, 200, await asyncio.to_thread(service.metrics), close=state.close
            )
            return
        if method == "GET" and path == "/store/stats":
            body = await asyncio.to_thread(service.read_stats)
            await _send_json_body(writer, 200, body, close=state.close)
            return
        if method == "GET" and path == "/store/claims":
            claims = await asyncio.to_thread(service.store_claims)
            await _send_json(
                writer,
                200,
                {"claims": claims, "count": len(claims)},
                close=state.close,
            )
            return
        if method == "GET" and path == "/store/query":
            await self._handle_query(request, writer, state)
            return
        if method == "GET" and path == "/store/aggregate":
            await self._handle_aggregate(request, writer, state)
            return
        if method == "GET" and path == "/store/export":
            await self._handle_export(request, writer, state)
            return
        if path == "/campaigns":
            if method == "POST":
                await self._handle_submit(request, writer, state)
                return
            if method == "GET":
                runs = await asyncio.to_thread(service.list_runs)
                await _send_json(writer, 200, {"runs": runs}, close=state.close)
                return
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/campaigns/"):
            await self._dispatch_run(request, writer, path, state)
            return
        raise HttpError(404, f"no resource at {path}")

    # -- store reads ---------------------------------------------------------

    def _trial_filter(self, request: Request) -> TrialFilter:
        try:
            return TrialFilter(
                protocol=request.param("protocol"),
                workload=request.param("workload"),
                adversary=request.param("adversary"),
                scheduler=request.param("scheduler"),
                status=request.param("status"),
                dimension=request.int_param("dimension"),
                fault_bound=request.int_param("fault_bound"),
                process_count=request.int_param("process_count"),
            )
        except ConfigurationError as error:
            raise HttpError(400, str(error))

    async def _handle_query(
        self, request: Request, writer: asyncio.StreamWriter, state: _ConnectionState
    ) -> None:
        trial_filter = self._trial_filter(request)
        limit = request.int_param("limit")
        if limit is not None and limit < 1:
            raise HttpError(400, "limit must be a positive integer")
        etag, body = await asyncio.to_thread(
            self.service.read_query, trial_filter, limit, request.headers.get("if-none-match")
        )
        await _send_tagged(writer, "/store/query", etag, body, state.close)

    async def _handle_aggregate(
        self, request: Request, writer: asyncio.StreamWriter, state: _ConnectionState
    ) -> None:
        raw_group = request.param("group_by", "protocol")
        group_by = tuple(column for column in raw_group.split(",") if column)
        if not group_by:
            raise HttpError(400, "group_by must name at least one column")
        trial_filter = self._trial_filter(request)
        try:
            etag, body = await asyncio.to_thread(
                self.service.read_aggregate,
                group_by,
                trial_filter,
                request.headers.get("if-none-match"),
            )
        except ConfigurationError as error:
            raise HttpError(400, str(error))
        await _send_tagged(writer, "/store/aggregate", etag, body, state.close)

    async def _handle_export(
        self, request: Request, writer: asyncio.StreamWriter, state: _ConnectionState
    ) -> None:
        """Stream the export in bounded pages: constant memory, immediate
        time-to-first-byte, no store cursor held across socket writes."""
        where = self._trial_filter(request).to_where()
        where["engine_version"] = request.param("engine_version", ENGINE_VERSION)
        etag = await asyncio.to_thread(self.service.etag_for, where)
        if request.headers.get("if-none-match") == etag:
            await _send_tagged(writer, "/store/export", etag, None, state.close)
            return
        stream = _ChunkedWriter(writer, state)
        await stream.start({"etag": etag})
        _HTTP_STREAMS.labels(route="/store/export").inc()
        sent = 0
        after_key: str | None = None
        while True:
            lines, after_key = await asyncio.to_thread(
                self.service.export_batch, where, after_key
            )
            if not lines:
                break
            for line in lines:
                await stream.send_line(line)
            sent += len(lines)
        await stream.finish()
        self.service.record_rows(request.api_key, sent)

    # -- campaign resources --------------------------------------------------

    async def _handle_submit(
        self, request: Request, writer: asyncio.StreamWriter, state: _ConnectionState
    ) -> None:
        payload = request.json_body()
        handle = await asyncio.to_thread(self.service.submit, payload, request.api_key)
        self.service.record_campaigns(request.api_key)
        await _send_json(
            writer,
            202,
            {
                "run_id": handle.run_id,
                "name": handle.session.name,
                "trials": len(handle.session.specs),
                "status_url": f"/campaigns/{handle.run_id}",
                "rows_url": f"/campaigns/{handle.run_id}/rows",
                "cancel_url": f"/campaigns/{handle.run_id}/cancel",
            },
            close=state.close,
        )

    async def _dispatch_run(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        path: str,
        state: _ConnectionState,
    ) -> None:
        parts = path.split("/")[2:]  # ["<run_id>"] or ["<run_id>", "rows"|"cancel"]
        run_id = parts[0]
        tail = parts[1] if len(parts) > 1 else ""
        if len(parts) > 2 or tail not in ("", "rows", "cancel"):
            raise HttpError(404, f"no resource at {path}")
        if tail == "" and request.method == "GET":
            await _send_json(
                writer,
                200,
                await asyncio.to_thread(self.service.status, run_id),
                close=state.close,
            )
            return
        if tail == "cancel" and request.method == "POST":
            await _send_json(
                writer,
                200,
                await asyncio.to_thread(self.service.cancel, run_id),
                close=state.close,
            )
            return
        if tail == "rows" and request.method == "GET":
            await self._stream_rows(request, writer, run_id, state)
            return
        raise HttpError(405, f"{request.method} not allowed on {path}")

    async def _stream_rows(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        run_id: str,
        state: _ConnectionState,
    ) -> None:
        """NDJSON row stream: replay the buffered rows, then follow live.

        Rows are written as the session commits them, so a client watching a
        mixed hit/miss campaign sees the cached prefix immediately and
        executed rows arrive unit by unit — well before the campaign
        finishes.  The live tail is **event-driven**: a waiter registered on
        the :class:`~repro.server.service.RunHandle` is woken through
        ``loop.call_soon_threadsafe`` the moment the session commits a row,
        so there is no poll interval between a commit and the bytes leaving
        the socket (a bounded fallback timeout guards against lost wakeups).
        ``?cancel_on_disconnect=1`` ties the session's lifetime to this
        stream: if the client goes away, the run is cancelled (claims
        released, store left resumable).
        """
        handle = self.service.get(run_id)
        cancel_on_disconnect = request.param("cancel_on_disconnect") in ("1", "true", "yes")
        stream = _ChunkedWriter(writer, state)
        sent = 0
        loop = asyncio.get_running_loop()
        try:
            await stream.start({"x-run-id": run_id})
            _HTTP_STREAMS.labels(route="/campaigns/{run_id}/rows").inc()
            while True:
                # Register the waiter *before* snapshotting: a row appended
                # after the snapshot wakes the event, so nothing is missed.
                event = asyncio.Event()
                handle.add_waiter(loop, event)
                try:
                    lines, done = handle.snapshot(sent)
                    for line in lines:
                        await stream.send_line(line)
                    sent += len(lines)
                    if done and not lines:
                        break
                    if not lines:
                        with contextlib.suppress(asyncio.TimeoutError):
                            await asyncio.wait_for(
                                event.wait(), STREAM_WAIT_FALLBACK_SECONDS
                            )
                finally:
                    handle.discard_waiter(loop, event)
            await stream.finish()
        except (ConnectionError, asyncio.CancelledError):
            if cancel_on_disconnect:
                handle.session.cancel()
            raise
        finally:
            self.service.record_rows(request.api_key, sent)


async def serve(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 8321,
    ready: Callable[[str, int], None] | None = None,
    idle_timeout: float = IDLE_TIMEOUT_SECONDS,
) -> None:
    """Serve until cancelled.  ``ready`` is called with the bound address."""
    handler = RequestHandler(service, idle_timeout=idle_timeout)
    server = await asyncio.start_server(handler.handle_connection, host=host, port=port)
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    try:
        async with server:
            await server.serve_forever()
    finally:
        service.shutdown()


def run_server(
    store_path: str,
    host: str = "127.0.0.1",
    port: int = 8321,
    workers: int = 1,
    max_active: int = 2,
    max_pending: int = 8,
    ready: Callable[[str, int], None] | None = None,
    idle_timeout: float = IDLE_TIMEOUT_SECONDS,
    trace_dir: str | None = None,
) -> None:
    """Blocking convenience entry point (the CLI's ``repro serve``)."""
    service = CampaignService(
        store_path,
        workers=workers,
        max_active=max_active,
        max_pending=max_pending,
        trace_dir=trace_dir,
    )
    try:
        asyncio.run(serve(service, host=host, port=port, ready=ready, idle_timeout=idle_timeout))
    except KeyboardInterrupt:
        pass
