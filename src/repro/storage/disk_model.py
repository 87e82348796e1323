"""Disk service-time model standing in for the paper's Ultra ATA/100 drive.

Every performance result in §5 is a function of *which blocks are touched in
which order*; this module prices such an access sequence.  The model has
three ingredients:

1. **Mechanical costs** — a √distance seek curve between ``seek_min_ms`` and
   ``seek_max_ms``, average rotational latency of half a revolution, and a
   linear transfer time per byte.
2. **Per-request overhead** — controller + syscall + FS path cost paid by
   every block request.  The paper's own calibration point (§5.1: a 2 MB
   file's "I/Os take at least 2 seconds" at 1 KB blocks even though raw
   sequential transfer would need ~50 ms) shows this term dominated their
   stack at small block sizes, so it is modelled explicitly.
3. **A segment-limited read-ahead / write-behind cache** — circa-2003 drives
   kept a handful of cache segments, each tracking one sequential stream.
   A request that continues a tracked stream is a *cache hit* (overhead +
   transfer only); anything else pays the mechanical costs and claims a
   segment (LRU replacement).  The segment limit is what reproduces
   Figure 7's signature: under round-robin interleave, LRU keeps every
   stream hitting while streams ≤ segments and thrashes completely beyond
   — so the native file system loses its sequential advantage and
   converges to StegFS exactly where the paper observes it (equality from
   16 users for reads and 8 for writes), calibrating ``read_segments=12``
   / ``write_segments=6``.

The model is deterministic given its RNG seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

__all__ = ["DiskParameters", "DiskModel"]


@dataclass(frozen=True)
class DiskParameters:
    """Calibration constants (the Table 2 stand-in; the module docstring
    says what each was calibrated against)."""

    seek_min_ms: float = 0.8
    seek_max_ms: float = 10.0
    rpm: float = 7200.0
    transfer_mb_per_s: float = 40.0
    overhead_ms: float = 1.5
    read_segments: int = 12
    write_segments: int = 6
    readahead_blocks: int = 128

    @property
    def rotation_avg_ms(self) -> float:
        """Average rotational latency: half a revolution."""
        return 0.5 * 60_000.0 / self.rpm

    def transfer_ms(self, n_bytes: int) -> float:
        """Media transfer time for ``n_bytes``."""
        return n_bytes / (self.transfer_mb_per_s * 1024 * 1024) * 1000.0

    def seek_ms(self, distance_blocks: int, total_blocks: int) -> float:
        """Seek time for a head move of ``distance_blocks`` (√distance law)."""
        if distance_blocks <= 0:
            return 0.0
        frac = min(1.0, distance_blocks / max(total_blocks, 1))
        return self.seek_min_ms + (self.seek_max_ms - self.seek_min_ms) * math.sqrt(frac)


@dataclass
class _Segment:
    """One cache segment tracking a sequential stream."""

    next_block: int
    remaining: int
    is_write: bool = False


@dataclass
class DiskModel:
    """Stateful service-time calculator for a stream of block requests.

    Use one instance per simulated disk; call :meth:`service` for every
    request in arrival order and accumulate the returned milliseconds.
    """

    block_size: int
    total_blocks: int
    params: DiskParameters = field(default_factory=DiskParameters)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.total_blocks <= 0:
            raise ValueError(f"total_blocks must be positive, got {self.total_blocks}")
        self._rng = random.Random(self.seed)
        self._head = 0
        self._read_segments: list[_Segment] = []
        self._write_segments: list[_Segment] = []
        self._busy_ms = 0.0

    @classmethod
    def ultra_ata_100(cls, block_size: int, total_blocks: int, seed: int = 0) -> "DiskModel":
        """Model calibrated for the paper's testbed (see the module docstring)."""
        return cls(block_size=block_size, total_blocks=total_blocks, seed=seed)

    @property
    def busy_ms(self) -> float:
        """Total service time accumulated so far."""
        return self._busy_ms

    def reset(self) -> None:
        """Forget head position, cache state and accumulated time."""
        self._rng = random.Random(self.seed)
        self._head = 0
        self._read_segments.clear()
        self._write_segments.clear()
        self._busy_ms = 0.0

    # ------------------------------------------------------------------
    # service-time computation
    # ------------------------------------------------------------------

    def service(self, op: str, block: int, count: int = 1) -> float:
        """Price a request for ``count`` consecutive blocks starting at ``block``.

        ``op`` is ``"r"`` or ``"w"``.  Returns the service time in
        milliseconds and updates head/cache state.
        """
        if op not in ("r", "w"):
            raise ValueError(f"op must be 'r' or 'w', got {op!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        p = self.params
        transfer = p.transfer_ms(self.block_size * count)
        cost = p.overhead_ms + transfer

        segments = self._write_segments if op == "w" else self._read_segments
        limit = p.write_segments if op == "w" else p.read_segments

        hit = self._find_hit(segments, block)
        if hit is not None:
            hit.next_block = block + count
            hit.remaining -= count
            segments.remove(hit)  # refresh LRU position
            if hit.remaining > 0:
                segments.append(hit)
        else:
            cost += p.seek_ms(abs(block - self._head), self.total_blocks)
            cost += p.rotation_avg_ms
            self._claim_segment(segments, limit, block + count, op == "w")

        self._head = block + count - 1
        self._busy_ms += cost
        return cost

    @staticmethod
    def _find_hit(segments: list[_Segment], block: int) -> _Segment | None:
        for segment in segments:
            if segment.next_block == block:
                return segment
        return None

    def _claim_segment(
        self, segments: list[_Segment], limit: int, next_block: int, is_write: bool
    ) -> None:
        segment = _Segment(
            next_block=next_block,
            remaining=self.params.readahead_blocks,
            is_write=is_write,
        )
        if len(segments) >= limit:
            # LRU eviction: under round-robin this thrashes completely once
            # concurrent streams exceed the segment count — the sharp
            # convergence the paper reports at 16 (read) / 8 (write) users.
            segments.pop(0)
        segments.append(segment)

    def sequential_ms_per_block(self) -> float:
        """Steady-state cost of a cache-hit (sequential) block request."""
        return self.params.overhead_ms + self.params.transfer_ms(self.block_size)

    def random_ms_per_block(self, span_blocks: int | None = None) -> float:
        """Expected cost of an isolated random block request.

        ``span_blocks`` bounds the seek span (e.g. a volume occupying part
        of the disk); defaults to the whole device.  The expected seek uses
        E[√|U−V|] = 8/15 ≈ 0.533 for independent uniform positions.
        """
        p = self.params
        span = self.total_blocks if span_blocks is None else span_blocks
        frac = min(1.0, span / self.total_blocks)
        expected_seek = p.seek_min_ms + (p.seek_max_ms - p.seek_min_ms) * math.sqrt(frac) * (
            8.0 / 15.0
        )
        return p.overhead_ms + expected_seek + p.rotation_avg_ms + p.transfer_ms(self.block_size)
