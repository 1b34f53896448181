"""HTTP/1.1 conformance: keep-alive sessions, timeouts, request framing.

The serving fast path (ROADMAP item 2) replaced the one-request-per-socket
``Connection: close`` model with real HTTP/1.1 persistence.  This suite
pins the wire-level contract:

* N sequential requests reuse **one** socket (verified by socket object
  identity on a ``http.client.HTTPConnection``, which never reconnects
  silently unless the old socket died);
* the idle timeout closes a quiet connection, and ``Connection: close`` /
  HTTP/1.0 opt out of persistence;
* 304 revalidation and chunked NDJSON streams hand the socket back for the
  next request (self-delimiting framing);
* malformed framing — negative or garbage ``Content-Length``,
  ``Transfer-Encoding`` request bodies — answers 400, not a 500, and closes;
* ETags are stable across reconnects and roll exactly on a ``put_rows``
  generation bump.

Raw sockets are used where connection *lifetime* is the assertion (idle
timeout, opt-out, framing errors) because ``http.client`` transparently
reopens dead connections; ``http.client`` is used where request *content*
is the assertion.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import Campaign, CampaignSession
from repro.server import CampaignService, serve
from repro.server import http as http_module
from repro.store.backend import ResultStore

KEEPALIVE_REQUESTS = 120  # acceptance floor is 100 sequential requests


def _declaration(trials: int = 3, name: str = "ka", base_seed: int = 7) -> dict:
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


def _precache(store_path, declaration: dict) -> None:
    specs = Campaign.from_payload(declaration).specs
    session = CampaignSession(list(specs), store=store_path)
    assert len(list(session.rows())) == len(specs)


class _Server:
    """Run ``serve()`` on an ephemeral port in a background thread."""

    def __init__(self, service: CampaignService, idle_timeout: float = 30.0) -> None:
        self.service = service
        self.idle_timeout = idle_timeout
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
            serve(
                self.service,
                host="127.0.0.1",
                port=0,
                ready=self._on_ready,
                idle_timeout=self.idle_timeout,
            )
        )
        await self._stop.wait()
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task

    def _on_ready(self, _host: str, port: int) -> None:
        self.port = port
        self._ready.set()

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


@contextlib.contextmanager
def _serving(store_path, idle_timeout: float = 30.0, **kwargs):
    server = _Server(CampaignService(store_path, **kwargs), idle_timeout=idle_timeout)
    try:
        yield server
    finally:
        server.close()


def _get(conn: http.client.HTTPConnection, path: str, headers=None):
    """One GET on a persistent connection: (status, headers-dict, body-bytes)."""
    conn.request("GET", path, headers=headers or {})
    response = conn.getresponse()
    body = response.read()
    return response.status, {k.lower(): v for k, v in response.getheaders()}, body


def _raw_exchange(port: int, payload: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes, read until the server closes; returns everything read."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


class TestKeepAlive:
    def test_sequential_requests_reuse_one_socket(self, tmp_path):
        store_path = tmp_path / "store.db"
        _precache(store_path, _declaration(3))
        with _serving(store_path) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                status, headers, _ = _get(conn, "/healthz")
                assert status == 200
                assert headers["connection"] == "keep-alive"
                sock = conn.sock
                assert sock is not None
                for _ in range(KEEPALIVE_REQUESTS - 1):
                    status, headers, _ = _get(conn, "/store/stats")
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                # http.client only reconnects after observing a closed socket;
                # identity proves every request rode the original connection.
                assert conn.sock is sock
            finally:
                conn.close()

    def test_export_streams_then_socket_is_reusable(self, tmp_path):
        """Chunked NDJSON is self-delimiting: a finished stream keeps the
        connection alive, and its bytes match the in-process CLI export."""
        store_path = tmp_path / "store.db"
        declaration = _declaration(4)
        _precache(store_path, declaration)
        with _serving(store_path) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                status, headers, body = _get(conn, "/store/export")
                assert status == 200
                assert headers["transfer-encoding"] == "chunked"
                assert headers["connection"] == "keep-alive"
                sock = conn.sock
                with ResultStore(store_path) as store:
                    expected = "".join(
                        json.dumps(entry.row, sort_keys=True) + "\n"
                        for entry in store.iter_entries()
                    ).encode("utf-8")
                assert body == expected and len(body.splitlines()) == 4

                status, _, payload = _get(conn, "/healthz")
                assert status == 200 and json.loads(payload)["status"] == "ok"
                assert conn.sock is sock
            finally:
                conn.close()

    def test_revalidation_304_interleaves_with_keep_alive(self, tmp_path):
        store_path = tmp_path / "store.db"
        _precache(store_path, _declaration(3))
        with _serving(store_path) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                status, headers, _ = _get(conn, "/store/query?protocol=exact")
                assert status == 200
                etag = headers["etag"]
                sock = conn.sock
                for _ in range(5):
                    status, headers, body = _get(
                        conn, "/store/query?protocol=exact", {"If-None-Match": etag}
                    )
                    assert status == 304 and body == b""
                    assert headers["etag"] == etag
                    assert headers["connection"] == "keep-alive"
                status, _, _ = _get(conn, "/store/aggregate?group_by=protocol")
                assert status == 200
                assert conn.sock is sock
            finally:
                conn.close()

    def test_error_responses_keep_the_connection_alive(self, tmp_path):
        """Dispatch-level errors (404/400) leave framing intact — no close."""
        with _serving(tmp_path / "store.db") as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                status, headers, body = _get(conn, "/no/such/resource")
                assert status == 404
                assert headers["connection"] == "keep-alive"
                assert "no resource" in json.loads(body)["error"]
                sock = conn.sock
                status, _, _ = _get(conn, "/store/query?dimension=abc")
                assert status == 400
                status, _, _ = _get(conn, "/healthz")
                assert status == 200
                assert conn.sock is sock
            finally:
                conn.close()

    def test_connection_close_header_opts_out(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            raw = _raw_exchange(
                server.port,
                b"GET /healthz HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n",
            )
            head = raw.split(b"\r\n\r\n", 1)[0].lower()
            assert raw.startswith(b"HTTP/1.1 200")
            assert b"connection: close" in head
            # _raw_exchange returning at all proves the server closed the
            # socket after the response instead of waiting for more requests.

    def test_http_10_defaults_to_close(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            raw = _raw_exchange(server.port, b"GET /healthz HTTP/1.0\r\nhost: x\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 200")
            assert b"connection: close" in raw.split(b"\r\n\r\n", 1)[0].lower()

    def test_idle_timeout_closes_a_quiet_connection(self, tmp_path):
        with _serving(tmp_path / "store.db", idle_timeout=0.3) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
                first = sock.recv(65536)
                assert first.startswith(b"HTTP/1.1 200")
                # Stay quiet past the idle timeout: the server must close
                # (EOF), not hold the socket open indefinitely.
                sock.settimeout(10)
                assert sock.recv(1) == b""

    def test_etag_stable_across_reconnects_and_rolls_on_generation_bump(self, tmp_path):
        store_path = tmp_path / "store.db"
        _precache(store_path, _declaration(3))
        with _serving(store_path) as server:
            def fresh_etag() -> str:
                conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
                try:
                    status, headers, _ = _get(conn, "/store/query?protocol=exact")
                    assert status == 200
                    return headers["etag"]
                finally:
                    conn.close()

            first = fresh_etag()
            assert fresh_etag() == first  # brand-new socket, same tag

            # A put_rows commit bumps the store generation: the old tag must
            # stop validating and the new tag must differ.
            _precache(store_path, _declaration(4, base_seed=11))
            rolled = fresh_etag()
            assert rolled != first
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                status, headers, _ = _get(
                    conn, "/store/query?protocol=exact", {"If-None-Match": first}
                )
                assert status == 200 and headers["etag"] == rolled
                status, _, body = _get(
                    conn, "/store/query?protocol=exact", {"If-None-Match": rolled}
                )
                assert status == 304 and body == b""
            finally:
                conn.close()


@contextlib.contextmanager
def _serve_child(store_path):
    """``repro serve`` as a child process, and the port it bound."""
    repository = Path(__file__).resolve().parents[2]
    server = subprocess.Popen(
        # An idle timeout past every wait below: shutdown must end each
        # connection itself, not wait for it to time out.
        [sys.executable, "-m", "repro.cli", "serve", "--store", str(store_path),
         "--port", "0", "--idle-timeout", "300"],
        env={**os.environ, "PYTHONPATH": str(repository / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        # A parent started in the background may ignore SIGINT; the
        # server must see it.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        yield server, int(server.stdout.readline().rsplit(":", 1)[1])
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()


def _interrupt(server) -> None:
    """SIGINT the child and wait for a quiet, successful exit."""
    server.send_signal(signal.SIGINT)
    _, stderr = server.communicate(timeout=60)
    assert server.returncode == 0
    assert "Traceback" not in stderr and "Exception in callback" not in stderr, stderr


class TestShutdown:
    def test_sigint_with_an_idle_keep_alive_connection_is_quiet(self, tmp_path):
        with _serve_child(tmp_path / "store.db") as (server, port):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")
                # The connection now sits idle, waiting for its next request.
                _interrupt(server)
                assert sock.recv(1) == b""

    def test_sigint_ends_a_live_rows_stream(self, tmp_path):
        # The object engine streams row by row, about a thousand a second:
        # the stream ends short of the run only if shutdown cancels it.
        trials = 20_000
        payload = {"campaign": _declaration(trials=trials, name="long"), "engine": "object"}
        with _serve_child(tmp_path / "store.db") as (server, port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            conn.request("POST", "/campaigns", body=json.dumps(payload).encode())
            submitted = conn.getresponse()
            assert submitted.status == 202
            run_id = json.loads(submitted.read())["run_id"]
            conn.request("GET", f"/campaigns/{run_id}/rows")
            stream = conn.getresponse()
            assert stream.status == 200
            assert json.loads(stream.readline())  # the run is live
            _interrupt(server)
            # The stream ends with its terminating chunk, short of the run.
            assert len(stream.read().splitlines()) < trials - 1
            conn.close()

    def test_sigint_cuts_a_columnar_batch_short(self, tmp_path):
        # Under the default engine the grid is one columnar unit of about 4 s,
        # whose rows all arrive when it ends: shutdown must stop the unit
        # between trials, not wait it out.
        payload = {"campaign": _declaration(trials=20_000, name="long")}
        with _serve_child(tmp_path / "store.db") as (server, port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            conn.request("POST", "/campaigns", body=json.dumps(payload).encode())
            submitted = conn.getresponse()
            assert submitted.status == 202
            run_id = json.loads(submitted.read())["run_id"]
            state = "pending"
            while state == "pending":
                conn.request("GET", f"/campaigns/{run_id}")
                state = json.loads(conn.getresponse().read())["state"]
            assert state == "running"
            time.sleep(1.0)  # past the census and the claims: the unit runs
            conn.request("GET", f"/campaigns/{run_id}/rows")
            stream = conn.getresponse()
            assert stream.status == 200
            interrupted = time.perf_counter()
            _interrupt(server)
            assert time.perf_counter() - interrupted < 2.0
            assert stream.read() == b""  # ended before its first row
            conn.close()

    def test_a_connection_open_past_the_grace_is_dropped_quietly(
        self, tmp_path, monkeypatch, caplog
    ):
        # With no grace, shutdown drops a live stream at once, as it drops
        # one whose client stopped reading after SHUTDOWN_GRACE_SECONDS.
        monkeypatch.setattr(http_module, "SHUTDOWN_GRACE_SECONDS", 0.0)
        payload = {"campaign": _declaration(trials=20_000, name="long"), "engine": "object"}
        server = _Server(CampaignService(tmp_path / "store.db"))
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("POST", "/campaigns", body=json.dumps(payload).encode())
            run_id = json.loads(conn.getresponse().read())["run_id"]
            conn.request("GET", f"/campaigns/{run_id}/rows")
            stream = conn.getresponse()
            assert json.loads(stream.readline())  # the run is live
        finally:
            server.close()
        assert not server._thread.is_alive()
        with pytest.raises(http.client.IncompleteRead):
            stream.read()  # cut off: no terminating chunk
        conn.close()
        assert not [r for r in caplog.records if r.name == "asyncio"], caplog.text


class _RecordingWriter:
    """The writer half of a connection: records every write and drain."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []
        self.drains = 0

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        self.drains += 1

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _dechunk(body: bytes) -> bytes:
    """A chunked body's payload; the body must end with the terminating chunk."""
    payload = bytearray()
    while True:
        size_line, body = body.split(b"\r\n", 1)
        size = int(size_line, 16)
        if size == 0:
            assert body == b"\r\n"
            return bytes(payload)
        assert body[size : size + 2] == b"\r\n"
        payload += body[:size]
        body = body[size + 2 :]


class TestRowStreamChunks:
    def test_a_replay_is_one_chunk_and_one_drain(self, tmp_path):
        service = CampaignService(tmp_path / "store.db")
        try:
            handle = service.submit({"campaign": _declaration(trials=100, name="replay")})
            assert handle.finished.wait(60)
            lines, done = handle.snapshot()
            assert done and len(lines) == 100
            reader = asyncio.StreamReader()
            reader.feed_data(
                f"GET /campaigns/{handle.run_id}/rows HTTP/1.1\r\nhost: x\r\n\r\n".encode()
            )
            reader.feed_eof()
            writer = _RecordingWriter()
            asyncio.run(http_module.RequestHandler(service).handle_connection(reader, writer))
        finally:
            service.shutdown()
        head, rows, end = writer.writes
        assert head.startswith(b"HTTP/1.1 200") and b"transfer-encoding: chunked" in head
        assert end == b"0\r\n\r\n"
        assert writer.drains == 3  # the head, the rows, the end
        assert _dechunk(rows + end) == "".join(line + "\n" for line in lines).encode()


class TestRequestFraming:
    def test_negative_content_length_is_a_400(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            raw = _raw_exchange(
                server.port,
                b"POST /campaigns HTTP/1.1\r\nhost: x\r\ncontent-length: -5\r\n\r\n",
            )
            assert raw.startswith(b"HTTP/1.1 400")
            assert b"non-negative" in raw

    def test_garbage_content_length_is_a_400(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            raw = _raw_exchange(
                server.port,
                b"POST /campaigns HTTP/1.1\r\nhost: x\r\ncontent-length: banana\r\n\r\n",
            )
            assert raw.startswith(b"HTTP/1.1 400")
            assert b"Content-Length" in raw

    def test_transfer_encoding_request_body_is_rejected(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            raw = _raw_exchange(
                server.port,
                b"POST /campaigns HTTP/1.1\r\nhost: x\r\n"
                b"transfer-encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n",
            )
            assert raw.startswith(b"HTTP/1.1 400")
            assert b"Transfer-Encoding" in raw

    def test_malformed_request_line_is_a_400(self, tmp_path):
        with _serving(tmp_path / "store.db") as server:
            raw = _raw_exchange(server.port, b"NONSENSE\r\n\r\n")
            assert raw.startswith(b"HTTP/1.1 400")
