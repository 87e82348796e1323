"""What "the shard is down" means to the cluster tier.

A **shard** is an ordinary StegFS volume that happens to hold fragments
for the cluster; the coordinator reaches it through the adapters in
:mod:`repro.cluster.aio`.  :data:`SHARD_FAILURES` is the transport-error
family the coordinator (and the dummy-churn scheduler) converts into
health events and failover; every other exception is a *logical* answer
from a live shard and propagates to the caller.
"""

from __future__ import annotations

from repro.errors import DeviceClosedError, NetworkError, ServiceClosedError

__all__ = ["SHARD_FAILURES"]

#: Exceptions that mean "the shard is unreachable or down", not "the shard
#: answered no".  OSError covers raw socket deaths; NetworkError covers the
#: typed wire failures; Service/DeviceClosedError cover an embedded volume
#: shut down underneath the coordinator.
SHARD_FAILURES = (OSError, NetworkError, ServiceClosedError, DeviceClosedError)
