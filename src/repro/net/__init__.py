"""Network access to a StegFS volume: wire protocol, server, clients.

This package is the first front end that serves clients *outside* the
server's Python process, the step the service layer's transport-neutral
design (:mod:`repro.service`) was shaped for:

* :mod:`repro.net.protocol` — the length-prefixed binary frame codec:
  typed values, correlation ids, and ``ERROR`` frames that round-trip the
  :mod:`repro.errors` hierarchy class-for-class.
* :mod:`repro.net.server` — an asyncio TCP server that routes decoded
  requests through the shared service op registry, executes them on the
  service's worker pool, enforces per-connection backpressure and frame
  limits, and authenticates users with an HMAC challenge–response
  handshake (the UAK never crosses the wire).
* :mod:`repro.net.client` — an :class:`AsyncStegFSClient` with
  pipelined request ids over a small connection pool, and
  :class:`StegFSClient`, a thread-safe blocking facade that drives one
  from a private event loop thread.

Quickstart (server side)::

    from repro.net import start_in_thread
    handle = start_in_thread(service, credentials={"alice": uak})
    host, port = handle.address

and client side::

    from repro.net import StegFSClient
    with StegFSClient(host, port) as client:
        client.login("alice", uak)          # HMAC handshake, token comes back
        client.steg_create("secret", data=b"deniable")
        assert client.steg_read("secret") == b"deniable"

stegbench's ``plain_wire`` and ``extent_wire`` workloads
(``benchmarks/stegbench``) measure this tier.
"""

from repro.net.client import AsyncStegFSClient, StegFSClient, fetch_hidden
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    ErrorFrame,
    Request,
    Response,
    auth_proof,
    decode_frame,
    encode_frame,
    error_to_exception,
    exception_to_frame,
)
from repro.net.server import ServerHandle, ServerStats, StegFSServer, start_in_thread

__all__ = [
    "AsyncStegFSClient",
    "DEFAULT_MAX_FRAME",
    "ErrorFrame",
    "Request",
    "Response",
    "ServerHandle",
    "ServerStats",
    "StegFSClient",
    "StegFSServer",
    "auth_proof",
    "decode_frame",
    "encode_frame",
    "error_to_exception",
    "exception_to_frame",
    "fetch_hidden",
    "start_in_thread",
]
