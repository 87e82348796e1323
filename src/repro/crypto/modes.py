"""The bit-balance check tests hold sealed blocks to.

StegFS encrypts whole disk blocks, and every encrypted block must be
indistinguishable from random bits — the core steganographic property of
§3.1 (hidden blocks must look exactly like the random fill written at
mkfs time).  Sealing itself lives in :mod:`repro.core.blockio`, over the
bulk AES-CTR of :mod:`repro.crypto.vector_aes`; what remains here is the
statistic a block-level observer could compute.
"""

from __future__ import annotations

import numpy as np

__all__ = ["random_looking"]


def random_looking(data: bytes) -> bool:
    """Cheap sanity check that ``data`` passes a bit-balance test.

    Used by tests to confirm sealed blocks are indistinguishable from the
    random mkfs fill at the statistics available to a block-level observer.
    """
    if not data:
        return False
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    ones = int(bits.sum())
    n = bits.size
    # 4.9σ two-sided bound on a fair-coin bit count.
    slack = 4.9 * (n ** 0.5) / 2
    return abs(ones - n / 2) <= slack
