"""Concurrent multi-client service layer over a mounted StegFS volume.

The paper evaluates StegFS under 1–32 concurrent users (§5.3) and designs
for many agents with independent access keys (§4); this package is the
piece that serves them.  It follows the protocol-agnostic
service-over-storage shape: everything here is transport-neutral, and the
:mod:`repro.net` TCP front end routes its wire format into these calls
through the shared op registry (:mod:`repro.service.registry`).

* :class:`StegFSService` — the thread-safe operation surface: one
  reader–writer volume lock that every op takes once (shared for reads,
  exclusive for mutations), atomic read–modify–write
  (``steg_update``'s ``fn`` runs under the exclusive lock and must not
  call back into the service), a worker pool with a futures API, and
  per-operation statistics.
* :class:`SessionManager` / :class:`ServiceSession` — authenticated
  ``steg_connect``/``steg_disconnect`` lifecycles with idle eviction.
* :class:`~repro.service.locks.RWLock` — the writer-preferring
  reader–writer lock behind the volume lock.

Pair the service with a :class:`~repro.storage.cache.CachedDevice` under
the volume so hot blocks skip the disk; stegbench's ``hidden_small``
workload (``benchmarks/stegbench``) measures this tier, lock wait and
executor queue included.
"""

from repro.service.aio import AsyncServiceFront
from repro.service.locks import RWLock
from repro.service.registry import OpSpec, build_registry, service_op
from repro.service.service import OpStats, ServiceStats, StegFSService
from repro.service.sessions import ServiceSession, SessionManager

__all__ = [
    "AsyncServiceFront",
    "OpSpec",
    "OpStats",
    "RWLock",
    "ServiceSession",
    "ServiceStats",
    "SessionManager",
    "StegFSService",
    "build_registry",
    "service_op",
]
