"""StegFS — a steganographic file system (Pang, Tan & Zhou, ICDE 2003).

Full Python reproduction: the StegFS construction itself plus every
substrate (from-scratch crypto, block storage, an ext2-like plain file
system, a calibrated disk timing model) and every baseline the paper's
evaluation compares against (StegCover, StegRand, CleanDisk, FragDisk).

Quick tour::

    from repro import StegFS, StegFSParams, RamDevice, derive_key

    steg = StegFS.mkfs(RamDevice(block_size=1024, total_blocks=65536))
    steg.create("/plain.txt", b"visible to everyone")

    uak = derive_key("passphrase")
    steg.steg_create("secret.txt", uak, data=b"deniable")
    steg.steg_read("secret.txt", uak)

See README.md for the architecture overview and the package inventory,
``python -m repro.bench`` for the paper's tables and figures, and
``benchmarks/stegbench`` for the benchmark every change is judged by.
"""

from repro import errors
from repro.analysis import (
    SnapshotMonitor,
    census_unaccounted,
    detection_report,
    scan_volume,
)
from repro.baselines import (
    StegCoverStore,
    StegFSStore,
    StegRandStore,
    clean_disk,
    frag_disk,
)
from repro.cluster import (
    AsyncClusterClient,
    AsyncRemoteShard,
    AsyncServiceShard,
    BlockingClusterClient,
)
from repro.core import (
    HiddenDirEntry,
    HiddenDirectory,
    HiddenFile,
    ObjectKeys,
    Session,
    StegFS,
    StegFSParams,
)
from repro.crypto import derive_key, generate_keypair, level_keys
from repro.fs import FileSystem
from repro.net import AsyncStegFSClient, StegFSClient, StegFSServer
from repro.obs import MetricRegistry, SlowLog, Tracer, get_registry, get_tracer
from repro.service import AsyncServiceFront, SessionManager, StegFSService
from repro.storage import (
    Bitmap,
    CachedDevice,
    CacheStats,
    DiskModel,
    DiskParameters,
    FileDevice,
    RamDevice,
    SparseDevice,
    TraceRecordingDevice,
)
from repro.workload import WorkloadSpec, generate_jobs, replay_interleaved

__version__ = "1.0.0"

__all__ = [
    "AsyncClusterClient",
    "AsyncRemoteShard",
    "AsyncServiceFront",
    "AsyncServiceShard",
    "AsyncStegFSClient",
    "Bitmap",
    "BlockingClusterClient",
    "CacheStats",
    "CachedDevice",
    "DiskModel",
    "DiskParameters",
    "FileDevice",
    "FileSystem",
    "HiddenDirEntry",
    "HiddenDirectory",
    "HiddenFile",
    "MetricRegistry",
    "ObjectKeys",
    "RamDevice",
    "Session",
    "SessionManager",
    "SlowLog",
    "SnapshotMonitor",
    "SparseDevice",
    "StegCoverStore",
    "StegFS",
    "StegFSClient",
    "StegFSParams",
    "StegFSServer",
    "StegFSService",
    "StegFSStore",
    "StegRandStore",
    "TraceRecordingDevice",
    "Tracer",
    "WorkloadSpec",
    "census_unaccounted",
    "clean_disk",
    "derive_key",
    "detection_report",
    "errors",
    "frag_disk",
    "generate_jobs",
    "generate_keypair",
    "get_registry",
    "get_tracer",
    "level_keys",
    "replay_interleaved",
    "scan_volume",
]
