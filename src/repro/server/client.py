"""maya-client: the thin front end for a running mayad.

One connection per request keeps the failure model simple: any
transport error leaves no half-open protocol state to resynchronize.
Compiles are idempotent (the daemon's artifact cache is
content-addressed), so the client retries *transient* failures —
connection refused/reset, and ``overloaded``/``shutting-down``
responses — with jittered exponential backoff; everything else
(compile errors, deadline hits, crashes) is surfaced to the caller
immediately.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Optional

from repro.obs import log as obs_log
from repro.obs.metrics import REGISTRY
from repro.server import protocol

RETRIES = REGISTRY.counter(
    "maya_client_retries_total", "Client-side retries by trigger.",
    labelnames=("reason",))

#: Default TCP port ("MAYA" on a phone keypad, truncated).
DEFAULT_PORT = 7463


def parse_address(address: str):
    """``host:port`` -> (host, port); anything with a ``/`` is a Unix
    socket path."""
    if "/" in address:
        return address
    host, sep, port = address.rpartition(":")
    if not sep:
        return address, DEFAULT_PORT
    try:
        return (host or "127.0.0.1"), int(port)
    except ValueError:
        raise ValueError(f"bad daemon address {address!r} "
                         f"(expected host:port or a socket path)") from None


class DaemonError(Exception):
    """A non-OK daemon response, or the daemon being unreachable."""

    def __init__(self, message: str, status: str = "unreachable",
                 response: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.response = response or {}

    def rendered(self) -> str:
        """Caret-style text for every diagnostic in the response."""
        parts = [d.get("rendered") or d.get("message", "")
                 for d in self.response.get("diagnostics", ())]
        return "\n".join(p for p in parts if p) or str(self)


class MayaClient:
    """A client for one mayad address, with transient-failure retry."""

    def __init__(self, address: str, retries: int = 4,
                 backoff_s: float = 0.05, backoff_cap_s: float = 2.0,
                 timeout_s: float = 60.0,
                 rng: Optional[random.Random] = None):
        self.address = parse_address(address)
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s
        self._rng = rng if rng is not None else random.Random()

    # -- transport ---------------------------------------------------------

    def _connect(self) -> socket.socket:
        if isinstance(self.address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            sock.connect(self.address)
        else:
            sock = socket.create_connection(self.address,
                                            timeout=self.timeout_s)
        return sock

    def _once(self, payload: dict) -> dict:
        sock = self._connect()
        try:
            protocol.send_frame(sock, payload)
            response = protocol.recv_frame(sock)
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if response is None:
            raise protocol.ProtocolError(
                "daemon closed the connection without answering")
        return response

    def request(self, op: str, **payload) -> dict:
        """Send one request, retrying transient failures with jittered
        exponential backoff.  Returns the (possibly non-OK) response.

        The client mints the ``trace_id`` — one per *logical* request,
        minted before the first attempt, so every retry (and the
        daemon-side degraded re-run of any attempt) shares it.  A
        caller already inside a request scope propagates that scope's
        trace instead.
        """
        payload = {"op": op, **payload}
        if "trace_id" not in payload:
            context = obs_log.current_request()
            payload["trace_id"] = (context.trace_id if context is not None
                                   else obs_log.mint_trace_id())
        attempt = 0
        while True:
            reason = None
            try:
                response = self._once(payload)
                if response.get("status") \
                        not in protocol.RETRYABLE_STATUSES:
                    return response
                reason = str(response.get("status"))
            except (ConnectionError, socket.timeout,
                    protocol.ProtocolError, OSError) as error:
                reason = "connection"
                if attempt >= self.retries:
                    raise DaemonError(
                        f"daemon at {self.address} unreachable after "
                        f"{attempt + 1} attempts: {error}") from error
            if attempt >= self.retries:
                return response
            RETRIES.labels(reason=reason).inc()
            obs_log.emit("client.retry", level="warn", op=op,
                         reason=reason, attempt=attempt + 1,
                         trace_id=payload["trace_id"])
            time.sleep(self._backoff(attempt, response
                                     if reason != "connection" else None))
            attempt += 1

    def _backoff(self, attempt: int, response: Optional[dict]) -> float:
        """Exponential backoff with full jitter; an explicit
        ``retry_after_ms`` hint from admission control sets the floor."""
        delay = min(self.backoff_cap_s, self.backoff_s * (2 ** attempt))
        delay *= 0.5 + self._rng.random() / 2.0
        if response is not None:
            hint = response.get("retry_after_ms")
            if isinstance(hint, (int, float)):
                delay = max(delay, float(hint) / 1000.0)
        return delay

    # -- operations --------------------------------------------------------

    def compile(self, source: str, filename: str = "<client>",
                **options) -> dict:
        deadline_ms = options.pop("deadline_ms", None)
        if deadline_ms is not None:
            options["deadline_ms"] = deadline_ms
        return self.request("compile", source=source, filename=filename,
                            options=options)

    def compile_modules(self, sources: dict, roots, **options) -> dict:
        """Compile a multi-file program: ``sources`` maps module names
        to source text, ``roots`` lists the entry modules.  The daemon
        builds the modules serially; concurrent requests overlap
        across its workers."""
        return self.request("compile", sources=dict(sources),
                            roots=list(roots), options=options)

    def ping(self) -> dict:
        return self.request("ping")

    def stats(self) -> dict:
        """The daemon's live introspection snapshot (``stats`` op)."""
        response = self.request("stats")
        if response.get("status") != protocol.STATUS_OK:
            raise DaemonError("stats request failed",
                              status=str(response.get("status")),
                              response=response)
        return response

    def metrics(self) -> dict:
        response = self.request("metrics")
        if response.get("status") != protocol.STATUS_OK:
            raise DaemonError("metrics request failed",
                              status=str(response.get("status")),
                              response=response)
        return response["metrics"]

    def shutdown(self) -> dict:
        return self.request("shutdown")
