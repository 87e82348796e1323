"""Drift guard: the client's verbs are the service registry's remote ops.

The verbs are hand-written (their signatures and docstrings are what
readers and tools see), so this is what keeps them honest against
``StegFSService.OPS``: same names, the session token first exactly where
the op injects a credential, then the wire arguments in registry order —
the public order may differ (``steg_create`` takes ``data`` before
``objtype``), the wire order may not.
"""

from __future__ import annotations

import inspect

import pytest

from repro.net.client import AsyncStegFSClient, StegFSClient, _WireVerbs
from repro.service.service import StegFSService

TOKEN = b"T" * 32
REMOTE_OPS = {name: spec for name, spec in StegFSService.OPS.items() if spec.remote}


def _public(cls: type) -> set[str]:
    return {
        name
        for klass in cls.__mro__[:-1]
        for name in vars(klass)
        if not name.startswith("_")
    }


def test_the_mixin_is_exactly_the_remote_ops():
    assert {n for n in vars(_WireVerbs) if not n.startswith("_")} == set(REMOTE_OPS)


@pytest.mark.parametrize("client_class", [StegFSClient, AsyncStegFSClient])
def test_every_verb_sends_its_op_in_registry_order(client_class, monkeypatch):
    client = client_class("127.0.0.1", 1)  # dials nothing until first use
    client._token = TOKEN
    sent = []
    monkeypatch.setattr(client, "_call", lambda op, *args: sent.append((op, args)))
    for name, spec in REMOTE_OPS.items():
        verb = getattr(client, name)
        assert set(inspect.signature(verb).parameters) == set(spec.params), name
        values = {param: object() for param in spec.params}
        verb(**values)
        expected = tuple(values[param] for param in spec.params)
        if spec.injects is not None:
            expected = (TOKEN, *expected)
        assert sent.pop() == (name, expected)
    assert sent == []


def test_steg_read_stream_is_the_one_blocking_only_verb():
    assert _public(StegFSClient) - _public(AsyncStegFSClient) == {"steg_read_stream"}
    assert "blocking-only" in StegFSClient.steg_read_stream.__doc__
