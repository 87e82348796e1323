"""The observability hard invariant: no disk effect, no secrets exported.

Two proofs:

* **Byte-identity** — the same seeded workload, run once with
  observability fully on (tracing, slowlog, metrics) and once with the
  kill switch off, must leave *byte-identical* device images.  The
  snapshot adversary of the paper holds the raw disk: telemetry that
  perturbed a single allocation or wrote a single block would be a
  distinguisher.
* **Scrubbing** — after a hidden-file workload, no exported surface
  (metric names, text exposition, span records, slowlog records,
  events) contains the UAK or a hidden object name in any spelling.
"""

from __future__ import annotations

import json
import random

from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.obs import set_enabled
from repro.obs.metrics import get_registry
from repro.obs.slowlog import get_events, get_slowlog
from repro.obs.trace import get_tracer, root_span
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

UAK = b"\xaa" * 32
HIDDEN_NAME = "deeply-secret-object"


def _run_workload(traced: bool) -> bytes:
    """One seeded service workload; returns the final raw device image."""
    device = RamDevice(block_size=512, total_blocks=4096)
    steg = StegFS.mkfs(
        device,
        params=StegFSParams.for_tests(),
        inode_count=64,
        rng=random.Random(99),
        auto_flush=False,
    )
    service = StegFSService(steg, max_workers=2)
    try:
        def ops() -> None:
            service.create("/plain.txt", b"public " * 100)
            service.steg_create(HIDDEN_NAME, UAK, data=b"hidden " * 200)
            service.write("/plain.txt", b"public v2 " * 120)
            assert service.steg_read(HIDDEN_NAME, UAK) == b"hidden " * 200
            service.steg_delete(HIDDEN_NAME, UAK)
            service.flush()

        if traced:
            with root_span("workload"):
                ops()
        else:
            ops()
        return device.image()
    finally:
        if not service.closed:
            service.close()


def test_device_image_is_byte_identical_with_obs_on_and_off():
    set_enabled(True)
    get_slowlog().set_threshold_ms(0.0)  # keep EVERY op record
    try:
        image_on = _run_workload(traced=True)
        assert get_tracer().spans(), "sanity: the traced run really recorded"
        assert get_slowlog().records(), "sanity: the slowlog really recorded"
    finally:
        get_slowlog().set_threshold_ms(100.0)
    set_enabled(False)
    try:
        image_off = _run_workload(traced=False)
    finally:
        set_enabled(True)
    assert image_on == image_off


def _run_plain_workload(traced: bool) -> tuple[bytes, int]:
    """A seeded plain workload over a warm name cache: (image, lookups counted)."""
    counted = get_registry().counter("fs.names.hits").value
    device = RamDevice(block_size=512, total_blocks=4096)
    steg = StegFS.mkfs(
        device, params=StegFSParams.for_tests(), inode_count=64, rng=random.Random(17)
    )
    rng = random.Random(18)

    def ops() -> None:
        steg.mkdir("/d")
        for i in range(12):
            steg.create(f"/d/f{i}", rng.randbytes(rng.randrange(1, 9000)))
        for _ in range(60):
            path = f"/d/f{rng.randrange(12)}"
            size = steg.stat(path).size
            # Same size half the time: the write that skips inode and pointer blocks.
            steg.write(path, rng.randbytes(size if rng.random() < 0.5 else rng.randrange(1, 9000)))
            assert steg.exists(path) and len(steg.listdir("/d")) == 12
            steg.read(f"/d/f{rng.randrange(12)}")
        steg.unlink("/d/f3")
        steg.device.flush()

    if traced:
        with root_span("workload"):
            ops()
    else:
        ops()
    return device.image(), get_registry().counter("fs.names.hits").value - counted


def test_plain_workload_image_is_byte_identical_with_obs_on_and_off():
    image_on, counted_on = _run_plain_workload(traced=True)
    set_enabled(False)
    try:
        image_off, counted_off = _run_plain_workload(traced=False)
    finally:
        set_enabled(True)
    assert counted_on > 100 and counted_off == 0  # sanity: the counters saw one run only
    assert image_on == image_off


def test_no_secret_appears_on_any_exported_surface():
    get_slowlog().set_threshold_ms(0.0)
    try:
        _run_workload(traced=True)
    finally:
        get_slowlog().set_threshold_ms(100.0)

    surfaces = [
        get_registry().render_text(),
        json.dumps(get_registry().snapshot(), default=str),
        json.dumps(get_tracer().spans()),
        json.dumps(get_slowlog().records()),
        json.dumps(get_events().events()),
        "\n".join(get_registry().names()),
    ]
    spellings = [
        UAK.hex(),
        UAK.hex().upper(),
        UAK[::-1].hex(),
        repr(UAK),
        HIDDEN_NAME,
        HIDDEN_NAME.upper(),
        HIDDEN_NAME[::-1],
    ]
    for surface in surfaces:
        for secret in spellings:
            assert secret not in surface, f"secret {secret[:16]!r} leaked"


_JOURNAL_COUNTS = ("writeback.sweeps", "writeback.blocks", "overlay.read_hits", "checkpoints")


def _journal_counts() -> dict[str, int]:
    return {name: get_registry().counter(f"journal.{name}").value for name in _JOURNAL_COUNTS}


def _run_across_a_sweep() -> tuple[bytes, bytes, dict[str, int]]:
    """Durable writes past one write-back sweep: the raw image with the
    sweep landed and the rest still in the overlay, the image after
    ``flush()``, and what the journal counted in between."""
    device = RamDevice(block_size=512, total_blocks=4096)
    steg = StegFS.mkfs(
        device,
        params=StegFSParams.for_tests(),
        inode_count=128,
        rng=random.Random(99),
        journal_blocks=800,  # no log fill in between
    )
    service = StegFSService(steg, max_workers=2)
    try:
        before = _journal_counts()
        service.steg_create(HIDDEN_NAME, UAK, data=b"hidden " * 200)
        for n in range(40):
            service.create(f"/plain-{n}", bytes([n]) * 1800)
        service.steg_write(HIDDEN_NAME, UAK, b"hidden v2 " * 300)
        assert service.read("/plain-3") == b"\x03" * 1800
        moved = {name: count - before[name] for name, count in _journal_counts().items()}
        swept = device.image()
        service.flush()
        return swept, device.image(), moved
    finally:
        service.close()


def test_device_image_is_byte_identical_across_a_write_back_sweep():
    with root_span("workload"):
        *images_on, moved = _run_across_a_sweep()
    # Sanity: the sweep ran at the bound, not in a checkpoint, reads were
    # served from the overlay, and the first image has writes still pending.
    assert moved["checkpoints"] == 0 and moved["writeback.sweeps"] >= 1
    assert moved["writeback.blocks"] >= 128 and moved["overlay.read_hits"] > 0
    assert images_on[0] != images_on[1]
    assert any(span["name"] == "journal.writeback" for span in get_tracer().spans())
    set_enabled(False)
    try:
        *images_off, unmoved = _run_across_a_sweep()
    finally:
        set_enabled(True)
    assert not any(unmoved.values())
    assert images_on == images_off
