"""repro.checkpoint: verified, async, replicated checkpointing.

Layers, bottom up:

- :mod:`repro.checkpoint.format` — bytes: magic + CRC32 trailer over an
  ordinary ``.npz`` payload, backward-compatible with legacy files, and
  :class:`ChecksumError` raised before any torn byte is interpreted.
- :mod:`repro.checkpoint.manifest` — commits: per-generation manifests
  written last as the atomic multi-file commit record, audit via
  :func:`verify_generation`, generation-numbered retention.
- :mod:`repro.checkpoint.payload` — the one training payload codec
  (``state/ opt/ meta/ extra/``), its single-file container, and the
  install routine every restore goes through.
- :mod:`repro.checkpoint.engine` — orchestration:
  :class:`CheckpointEngine` does snapshot-then-write async saves, buddy
  replication over the transport hub, and newest-recoverable restore
  with replica fallback and cross-world resharding.

See ``docs/checkpointing.md`` for the full design.
"""

from repro.checkpoint.format import (
    MAGIC,
    TRAILER_SIZE,
    ChecksumError,
    append_trailer,
    crc_of,
    load_verified_npz,
    npz_bytes,
    parse_npz,
    read_verified,
    split_trailer,
    verify_bytes,
    write_verified,
)
from repro.checkpoint.manifest import (
    Manifest,
    ManifestFile,
    apply_retention,
    generation_dirname,
    list_generations,
    load_generation_manifest,
    manifest_filename,
    read_manifest,
    verify_generation,
    write_manifest,
)
from repro.checkpoint.payload import (
    install_training_payload,
    load_training_checkpoint,
    parse_training_payload,
    save_training_checkpoint,
    training_payload,
)
from repro.checkpoint.engine import (
    ASYNC_ENV,
    REPLICATION_ENV,
    CheckpointEngine,
    default_async_write,
    default_replication_factor,
    stats_for,
)

__all__ = [
    "MAGIC",
    "TRAILER_SIZE",
    "ChecksumError",
    "append_trailer",
    "crc_of",
    "load_verified_npz",
    "npz_bytes",
    "parse_npz",
    "read_verified",
    "split_trailer",
    "verify_bytes",
    "write_verified",
    "Manifest",
    "ManifestFile",
    "apply_retention",
    "generation_dirname",
    "list_generations",
    "load_generation_manifest",
    "manifest_filename",
    "read_manifest",
    "verify_generation",
    "write_manifest",
    "install_training_payload",
    "load_training_checkpoint",
    "parse_training_payload",
    "save_training_checkpoint",
    "training_payload",
    "ASYNC_ENV",
    "REPLICATION_ENV",
    "CheckpointEngine",
    "default_async_write",
    "default_replication_factor",
    "stats_for",
]
