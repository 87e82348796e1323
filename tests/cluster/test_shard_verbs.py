"""Drift guard: the shard verbs are written once, against ``AsyncShardBackend``.

Both adapters inherit their verbs and the two upsert ladders from one
base; each adapter adds only its hook, its liveness check and its
teardown.  This pins the base to the protocol the coordinator codes
against, and each verb to the one service op it names.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.cluster.aio import (
    AsyncRemoteShard,
    AsyncServiceShard,
    AsyncShardBackend,
    _ShardVerbs,
)
from repro.errors import (
    FileExistsError_,
    FileNotFoundError_,
    HiddenObjectExistsError,
    HiddenObjectNotFoundError,
)

UAK = b"C" * 32

#: What really differs per adapter (a closed service vs a wire round trip).
ADAPTER_OWN = {"ping", "close"}
#: Beyond the backend protocol: the telemetry collector's scrape hooks.
SCRAPE_HOOKS = {"obs_snapshot", "obs_trace"}
#: Verbs that are a sequence of ops rather than one.
LADDERS = {"put": ("write", "create"), "steg_put": ("steg_write", "steg_create")}


def _public(cls: type) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("_")}


class Recorder(_ShardVerbs):
    """Records every hook call; ``failures`` are raised in order first."""

    def __init__(self, *failures: Exception) -> None:
        self.calls: list[tuple] = []
        self.failures = list(failures)

    async def _call(self, op, uak=None, **kwargs):
        self.calls.append((op, uak, kwargs))
        if self.failures:
            raise self.failures.pop(0)


def test_the_base_is_the_backend_protocol_the_adapters_share():
    backend = {
        name
        for name, member in vars(AsyncShardBackend).items()
        if inspect.iscoroutinefunction(member)
    }
    assert _public(_ShardVerbs) == (backend - ADAPTER_OWN) | SCRAPE_HOOKS
    for name in backend - ADAPTER_OWN:
        assert inspect.signature(getattr(_ShardVerbs, name)) == inspect.signature(
            getattr(AsyncShardBackend, name)
        ), name
    for adapter in (AsyncServiceShard, AsyncRemoteShard):
        assert issubclass(adapter, _ShardVerbs)
        assert not _public(adapter) & _public(_ShardVerbs)
        assert ADAPTER_OWN <= _public(adapter)


@pytest.mark.parametrize("name", sorted(_public(_ShardVerbs) - set(LADDERS)))
def test_each_verb_is_one_op_with_the_key_beside_it(name):
    shard = Recorder()
    params = list(inspect.signature(getattr(shard, name)).parameters)
    values = {param: object() for param in params}
    asyncio.run(getattr(shard, name)(**values))
    uak = values.pop("uak", None)
    assert shard.calls == [(name, uak, values)]


@pytest.mark.parametrize(
    "verb, args, missing, exists",
    [
        ("put", {"path": "/f", "data": b"x"}, FileNotFoundError_, FileExistsError_),
        (
            "steg_put",
            {"objname": "o", "uak": UAK, "data": b"x"},
            HiddenObjectNotFoundError,
            HiddenObjectExistsError,
        ),
    ],
)
def test_upsert_ladder_is_write_create_write(verb, args, missing, exists):
    write, create = LADDERS[verb]
    kwargs = dict(args)
    uak = kwargs.pop("uak", None)
    for failures, ops in [
        ((), [write]),
        ((missing("x"),), [write, create]),
        ((missing("x"), exists("x")), [write, create, write]),
    ]:
        shard = Recorder(*failures)
        asyncio.run(getattr(shard, verb)(**args))
        assert shard.calls == [(op, uak, kwargs) for op in ops]
