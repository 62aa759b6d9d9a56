"""Async, verified, replicated checkpointing: the engine.

The training thread pays only for a **snapshot** — an in-memory copy of
model/optimizer arrays taken at a safe iteration boundary.  A background
writer thread serializes the snapshot to verified npz bytes
(:mod:`repro.checkpoint.format`), writes the files, commits them with a
manifest (:mod:`repro.checkpoint.manifest`), pushes replicas to buddy
ranks, and applies retention — all overlapped with the next training
iterations.  ``stats()["snapshot_s"]`` is the cumulative training-thread
blocked time; ``benchmarks/bench_checkpoint.py`` gates it against a
synchronous save.

Replication: with ``replication_factor = k``, rank ``r``'s files are
also pushed — over the ordinary
:class:`~repro.comm.transport.TransportHub` wire, so chaos plans and
transport accounting apply — to buddies ``(r+1) % world .. (r+k-1) %
world``.  Each buddy persists them under
``rank{buddy}/replica/rank{r}/`` in the exact owner layout (manifest
included), so losing any single rank's local directory leaves every
shard of the newest generation recoverable from a surviving buddy.

Both commit modes hold one payload (:mod:`repro.checkpoint.payload`):
a full commit carries it verbatim in rank 0's ``full.npz``; a sharded
commit spreads it over every rank's ``shard.npz`` and decodes back into
it (:func:`~repro.sharded.checkpoint.payload_from_shards`).  Restore
(:meth:`CheckpointEngine.load_latest`) walks committed generations
newest-first and, per source, prefers the owner's local files but
silently falls back to any CRC-valid replica; a generation with an
unrecoverable shard is skipped entirely (atomic multi-file semantics: a
commit restores whole or not at all).  The recovered payload goes
through the one install routine, so either mode restores into a plain,
DDP, or ZeRO-1/2/3 target at any world size.

Generation numbers are the save's iteration count, so every rank of a
collective save agrees on the commit id without communication, and
numbers stay monotonic across elastic re-rendezvous generations.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.checkpoint.format import (
    ChecksumError,
    TRAILER_SIZE,
    append_trailer,
    crc_of,
    load_verified_npz,
    npz_bytes,
    parse_npz,
    read_verified,
    verify_bytes,
)
from repro.checkpoint.manifest import (
    Manifest,
    ManifestFile,
    apply_retention,
    generation_dirname,
    list_generations,
    load_generation_manifest,
    manifest_filename,
)
from repro.checkpoint.payload import install_training_payload, training_payload
from repro.telemetry.spans import TRACER
from repro.utils.logging import logger

#: Env knob: default replication factor for engines that are not given
#: one explicitly (1 = no replication).
REPLICATION_ENV = "REPRO_CKPT_REPLICATION"
#: Env knob: set to ``0`` to force synchronous (write-on-training-thread)
#: saves even where the engine would default to async.
ASYNC_ENV = "REPRO_CKPT_ASYNC"

_ENGINES: "weakref.WeakValueDictionary[int, CheckpointEngine]" = (
    weakref.WeakValueDictionary()
)


def default_replication_factor() -> int:
    """Replication factor from ``REPRO_CKPT_REPLICATION`` (default 1)."""
    try:
        return max(1, int(os.environ.get(REPLICATION_ENV, "1")))
    except ValueError:
        return 1


def default_async_write() -> bool:
    """Async-save default from ``REPRO_CKPT_ASYNC`` (default on)."""
    return os.environ.get(ASYNC_ENV, "1") != "0"


def stats_for(rank: int) -> Optional[dict]:
    """Live stats of the newest engine registered for ``rank`` (the
    ``ddp_stats()["checkpoint"]`` section), or None."""
    engine = _ENGINES.get(rank)
    return engine.stats() if engine is not None else None


def _record_span(name: str, t_start: float, t_end: float, rank: int, **args) -> None:
    if TRACER.enabled:
        TRACER.record(
            name, t_start, t_end, cat="checkpoint", stream="checkpoint",
            rank=rank, args=args or None,
        )


class _SaveJob:
    """One snapshot queued for background serialization + commit."""

    __slots__ = ("generation", "files", "manifest", "snapshot_t")

    def __init__(self, generation: int, files: Dict[str, Dict[str, np.ndarray]],
                 manifest: Manifest, snapshot_t: float):
        self.generation = generation
        self.files = files
        self.manifest = manifest
        self.snapshot_t = snapshot_t


class CheckpointEngine:
    """Per-rank async checkpoint engine with manifests and replication.

    Parameters
    ----------
    directory:
        Shared checkpoint root; this rank writes under
        ``directory/rank{rank}/``.
    rank / world:
        This rank's coordinates at save time (recorded in manifests so
        restores can reshard across world sizes).
    hub:
        Optional :class:`~repro.comm.transport.TransportHub` carrying
        replica pushes; required when ``replication_factor > 1``.
    replication_factor:
        Total copies of each rank's files (1 = local only); clamped to
        ``world``.  Defaults to ``REPRO_CKPT_REPLICATION``.
    keep:
        Committed generations retained per rank directory.
    async_write:
        Serialize + write on a background thread (default, overridable
        via ``REPRO_CKPT_ASYNC=0``); False runs the full save inline.
    fault_plan:
        Checkpoint-I/O chaos hook (defaults to the hub's installed
        plan): consulted per written file via ``on_checkpoint_write``.

    Thread-safety: ``save_*`` must be called from the owning rank's
    thread; stats/wait/close may be called from any thread.
    """

    def __init__(
        self,
        directory: str,
        rank: int,
        world: int,
        hub=None,
        replication_factor: Optional[int] = None,
        keep: int = 2,
        async_write: Optional[bool] = None,
        fault_plan=None,
        recv_slice_s: float = 0.05,
    ):
        if world < 1:
            raise ValueError("world must be >= 1")
        if not 0 <= rank < world:
            raise ValueError(f"rank {rank} out of range for world {world}")
        self.directory = directory
        self.rank = rank
        self.world = world
        self.hub = hub
        if replication_factor is None:
            replication_factor = default_replication_factor()
        self.replication_factor = max(1, min(int(replication_factor), world))
        if self.replication_factor > 1 and hub is None:
            raise ValueError("replication_factor > 1 requires a transport hub")
        self.keep = int(keep)
        self.async_write = (
            default_async_write() if async_write is None else bool(async_write)
        )
        self.fault_plan = fault_plan if fault_plan is not None else (
            getattr(hub, "fault_plan", None)
        )
        self.recv_slice_s = recv_slice_s
        self.rank_dir = os.path.join(directory, f"rank{rank}")
        os.makedirs(self.rank_dir, exist_ok=True)

        self._lock = threading.Lock()
        self._stats = {
            "saves": 0,
            "snapshot_s": 0.0,
            "serialize_s": 0.0,
            "write_s": 0.0,
            "bytes_written": 0,
            "replicas_sent": 0,
            "replica_bytes_sent": 0,
            "replicas_received": 0,
            "replication_lag_max_s": 0.0,
            "retention_deleted": 0,
            "verify_failures": 0,
            "write_errors": 0,
            "last_generation": None,
        }
        self._queue: "queue.Queue[Optional[_SaveJob]]" = queue.Queue()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self._writer: Optional[threading.Thread] = None
        if self.async_write:
            self._writer = threading.Thread(
                target=self._writer_loop,
                name=f"ckpt-writer-rank{rank}",
                daemon=True,
            )
            self._writer.start()
        self._receivers: List[threading.Thread] = []
        for owner in self._replica_owners():
            thread = threading.Thread(
                target=self._receiver_loop,
                args=(owner,),
                name=f"ckpt-replica-rank{rank}-from{owner}",
                daemon=True,
            )
            thread.start()
            self._receivers.append(thread)
        _ENGINES[rank] = self

    # -- topology --------------------------------------------------------
    def buddies(self) -> List[int]:
        """Ranks that hold replicas of this rank's files."""
        return [
            (self.rank + i) % self.world
            for i in range(1, self.replication_factor)
        ]

    def _replica_owners(self) -> List[int]:
        """Ranks whose replicas this rank is responsible for storing."""
        return [
            (self.rank - i) % self.world
            for i in range(1, self.replication_factor)
            if (self.rank - i) % self.world != self.rank
        ]

    def replica_dir(self, owner: int) -> str:
        """Where this rank persists replicas of ``owner``'s files."""
        return os.path.join(self.rank_dir, "replica", f"rank{owner}")

    # -- saving ----------------------------------------------------------
    def save_full(self, module, optimizer=None, iteration: int = 0,
                  extra: Optional[Dict] = None) -> int:
        """Snapshot a replicated (DDP/plain) training state and enqueue
        the write; returns the committed generation number.

        Every rank calls this at the same boundary; only rank 0's
        manifest carries payload (state is replicated, one copy on disk
        suffices) but every rank commits a manifest, so restores can
        tell "rank never saved" from "rank's files were lost".
        """
        t0 = time.perf_counter()
        files: Dict[str, Dict[str, np.ndarray]] = {}
        if self.rank == 0:
            files["full.npz"] = training_payload(
                module, optimizer, iteration=iteration, extra=extra, copy=True
            )
        manifest = Manifest(
            generation=int(iteration),
            rank=self.rank,
            world_size=self.world,
            iteration=int(iteration),
            mode="full",
        )
        return self._submit(files, manifest, t0)

    def save_sharded(self, model, iteration: int = 0,
                     extra: Optional[Dict] = None) -> int:
        """Snapshot one rank's shard of a ``repro.sharded`` wrapper.

        Every rank calls this at the same boundary (no collectives —
        each rank persists only its own spans and ``extra``; rank 0
        adds the replicated buffers).  The manifest's span table and
        bucket entries are what let :meth:`load_latest` decode the
        shards back into the positional payload.
        """
        from repro.sharded.checkpoint import shard_payload

        t0 = time.perf_counter()
        arrays, meta = shard_payload(model, include_buffers=self.rank == 0)
        for key, value in (extra or {}).items():
            arrays[f"extra/{key}"] = np.asarray(value)
        manifest = Manifest(
            generation=int(iteration),
            rank=self.rank,
            world_size=self.world,
            iteration=int(iteration),
            mode="sharded",
            meta=meta,
        )
        return self._submit({"shard.npz": arrays}, manifest, t0)

    def _submit(self, files, manifest: Manifest, t0: float) -> int:
        if self._closed:
            raise RuntimeError("checkpoint engine is closed")
        job = _SaveJob(manifest.generation, files, manifest, t0)
        self._idle.clear()
        if self.async_write:
            self._queue.put(job)
        else:
            try:
                self._run_job(job)
            finally:
                if self._queue.empty():
                    self._idle.set()
        t1 = time.perf_counter()
        with self._lock:
            self._stats["saves"] += 1
            self._stats["snapshot_s"] += t1 - t0
            self._stats["last_generation"] = manifest.generation
        _record_span(
            "checkpoint.snapshot", t0, t1, self.rank,
            generation=manifest.generation, mode=manifest.mode,
        )
        return manifest.generation

    # -- background writer ----------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                break
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - async context, report
                with self._lock:
                    self._stats["write_errors"] += 1
                logger.warning(
                    "checkpoint: rank %d background save of generation %d "
                    "failed: %s", self.rank, job.generation, exc,
                )
            finally:
                self._queue.task_done()
                if self._queue.empty():
                    self._idle.set()

    def _run_job(self, job: _SaveJob) -> None:
        gen_dir = os.path.join(self.rank_dir, generation_dirname(job.generation))
        entries: List[ManifestFile] = []
        wire_files: Dict[str, bytes] = {}
        hook = (
            self.fault_plan.on_checkpoint_write
            if self.fault_plan is not None
            and hasattr(self.fault_plan, "on_checkpoint_write")
            else None
        )
        t_ser = time.perf_counter()
        blobs = {name: npz_bytes(arrays) for name, arrays in job.files.items()}
        t_wr = time.perf_counter()
        written = 0
        for name, payload in blobs.items():
            data = append_trailer(payload)
            if hook is not None:
                data = hook(self.rank, os.path.join(gen_dir, name), data)
            os.makedirs(gen_dir, exist_ok=True)
            tmp = os.path.join(gen_dir, f".{name}.tmp.{os.getpid()}")
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, os.path.join(gen_dir, name))
            # Manifest records the *intended* bytes: a fault-injected
            # torn write is then caught by size/CRC at verify time.
            entries.append(
                ManifestFile(name, len(payload) + TRAILER_SIZE, crc_of(payload))
            )
            wire_files[name] = append_trailer(payload)
            written += len(data)
        job.manifest.files = entries
        from repro.checkpoint.manifest import write_manifest

        write_manifest(self.rank_dir, job.manifest)
        t_done = time.perf_counter()
        with self._lock:
            self._stats["serialize_s"] += t_wr - t_ser
            self._stats["write_s"] += t_done - t_wr
            self._stats["bytes_written"] += written
        _record_span(
            "checkpoint.write", t_ser, t_done, self.rank,
            generation=job.generation, bytes=written,
        )
        self._replicate(job, wire_files)
        deleted = apply_retention(self.rank_dir, self.keep)
        for owner in self._replica_owners():
            if os.path.isdir(self.replica_dir(owner)):
                deleted += apply_retention(self.replica_dir(owner), self.keep)
        if deleted:
            with self._lock:
                self._stats["retention_deleted"] += len(deleted)

    def _replicate(self, job: _SaveJob, wire_files: Dict[str, bytes]) -> None:
        if self.replication_factor <= 1 or self.hub is None:
            return
        message = {
            "generation": job.generation,
            "owner": self.rank,
            "snapshot_t": job.snapshot_t,
            "manifest": job.manifest.to_json(),
            "files": {
                name: np.frombuffer(data, dtype=np.uint8)
                for name, data in wire_files.items()
            },
        }
        nbytes = sum(len(data) for data in wire_files.values())
        t0 = time.perf_counter()
        for buddy in self.buddies():
            try:
                self.hub.send(self.rank, buddy, ("ckpt", self.rank), message)
            except Exception as exc:  # noqa: BLE001 - hub may be closing
                logger.warning(
                    "checkpoint: rank %d replica push gen %d -> rank %d "
                    "failed: %s", self.rank, job.generation, buddy, exc,
                )
                continue
            with self._lock:
                self._stats["replicas_sent"] += 1
                self._stats["replica_bytes_sent"] += nbytes
        _record_span(
            "checkpoint.replicate", t0, time.perf_counter(), self.rank,
            generation=job.generation, buddies=len(self.buddies()),
        )

    def _receiver_loop(self, owner: int) -> None:
        from repro.comm.transport import TransportClosedError, TransportTimeoutError

        while not self._closed:
            try:
                message = self.hub.recv(
                    self.rank, owner, ("ckpt", owner), timeout=self.recv_slice_s
                )
            except TransportTimeoutError:
                continue
            except (TransportClosedError, Exception):  # noqa: BLE001
                return
            try:
                self._store_replica(owner, message)
            except Exception as exc:  # noqa: BLE001 - keep receiving
                logger.warning(
                    "checkpoint: rank %d failed to store replica from "
                    "rank %d: %s", self.rank, owner, exc,
                )

    def _store_replica(self, owner: int, message: dict) -> None:
        t0 = time.perf_counter()
        generation = int(message["generation"])
        target = self.replica_dir(owner)
        gen_dir = os.path.join(target, generation_dirname(generation))
        os.makedirs(gen_dir, exist_ok=True)
        for name, data in message["files"].items():
            blob = np.asarray(data, dtype=np.uint8).tobytes()
            tmp = os.path.join(gen_dir, f".{name}.tmp.{os.getpid()}")
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, os.path.join(gen_dir, name))
        # Commit the replica with the owner's own manifest, so the
        # replica directory is a drop-in substitute for the owner's.
        path = os.path.join(target, manifest_filename(generation))
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            handle.write(message["manifest"])
        os.replace(tmp, path)
        lag = time.perf_counter() - float(message.get("snapshot_t", t0))
        with self._lock:
            self._stats["replicas_received"] += 1
            self._stats["replication_lag_max_s"] = max(
                self._stats["replication_lag_max_s"], lag
            )
        _record_span(
            "checkpoint.replica_recv", t0, time.perf_counter(), self.rank,
            owner=owner, generation=generation, lag_s=round(lag, 6),
        )

    # -- restoring -------------------------------------------------------
    def _source_dirs(self) -> List[str]:
        """Every directory that may hold committed manifests: each
        rank's own dir plus each rank's replica mirrors."""
        sources: List[str] = []
        if not os.path.isdir(self.directory):
            return sources
        for name in sorted(os.listdir(self.directory)):
            rank_dir = os.path.join(self.directory, name)
            if not (name.startswith("rank") and os.path.isdir(rank_dir)):
                continue
            sources.append(rank_dir)
            replica_root = os.path.join(rank_dir, "replica")
            if os.path.isdir(replica_root):
                for sub in sorted(os.listdir(replica_root)):
                    path = os.path.join(replica_root, sub)
                    if os.path.isdir(path):
                        sources.append(path)
        return sources

    def _committed_generations(self) -> Dict[int, Dict[int, List[Tuple[str, Manifest]]]]:
        """``generation -> owner rank -> [(dir, manifest), ...]`` over
        every source directory (owner dirs first, replicas after)."""
        table: Dict[int, Dict[int, List[Tuple[str, Manifest]]]] = {}
        for source in self._source_dirs():
            is_replica = os.sep + "replica" + os.sep in source + os.sep
            for generation in list_generations(source):
                try:
                    manifest = load_generation_manifest(source, generation)
                except ChecksumError:
                    continue
                if manifest is None:
                    continue
                slots = table.setdefault(generation, {}).setdefault(
                    manifest.rank, []
                )
                if is_replica:
                    slots.append((source, manifest))
                else:
                    slots.insert(0, (source, manifest))
        return table

    def _load_rank_payload(
        self, sources: List[Tuple[str, Manifest]], name: str
    ) -> Optional[Tuple[Dict[str, np.ndarray], Manifest, str]]:
        """First CRC-valid copy of ``name`` across owner + replicas."""
        from repro.checkpoint.manifest import verify_generation

        for directory, manifest in sources:
            try:
                verify_generation(directory, manifest)
                path = os.path.join(
                    directory, generation_dirname(manifest.generation), name
                )
                return load_verified_npz(path), manifest, directory
            except (ChecksumError, FileNotFoundError) as exc:
                with self._lock:
                    self._stats["verify_failures"] += 1
                logger.warning(
                    "checkpoint: rejecting source %s for generation %d: %s",
                    directory, manifest.generation, exc,
                )
        return None

    def load_latest(self, module, optimizer=None) -> Optional[dict]:
        """Restore the newest fully-recoverable generation.

        Either commit mode restores into ``module``/``optimizer``: a
        plain or DDP module with its optimizer, or a ``repro.sharded``
        wrapper with ``wrapper.optimizer`` — at any world size (the
        install is local; sharded targets re-slice into their own
        spans).  Returns ``None`` when no committed generation survives
        verification, else a dict with ``iteration``, ``generation``,
        ``extra``, ``saved_world_size``, and per-rank ``sources``
        (``"local"`` / ``"replica"``).
        """
        table = self._committed_generations()
        for generation in sorted(table, reverse=True):
            restored = self._try_restore(
                generation, table[generation], module, optimizer
            )
            if restored is not None:
                return restored
        return None

    def _try_restore(self, generation, by_rank, module, optimizer):
        if 0 not in by_rank:
            return None
        head = by_rank[0][0][1]
        sharded = head.mode == "sharded"
        name = "shard.npz" if sharded else "full.npz"
        owners = range(head.world_size) if sharded else [0]
        shards: Dict[int, Tuple[Dict[str, np.ndarray], Manifest]] = {}
        sources: Dict[int, str] = {}
        for owner in owners:
            # A rank directory may still hold a same-numbered commit of
            # an older, differently sized world; only rank 0's world
            # counts.
            slots = [
                (directory, manifest)
                for directory, manifest in by_rank.get(owner, [])
                if manifest.world_size == head.world_size
            ]
            loaded = self._load_rank_payload(slots, name)
            if loaded is None:
                return None
            arrays, manifest, directory = loaded
            shards[owner] = (arrays, manifest)
            sources[owner] = (
                "local"
                if directory == os.path.join(self.directory, f"rank{owner}")
                else "replica"
            )
        if sharded:
            from repro.sharded.checkpoint import payload_from_shards

            payload = payload_from_shards(shards)
        else:
            payload = shards[0][0]
        info = install_training_payload(payload, module, optimizer)
        info.update(
            generation=generation,
            saved_world_size=head.world_size,
            sources=sources,
        )
        return info

    # -- lifecycle -------------------------------------------------------
    def wait(self, timeout: float = 30.0) -> bool:
        """Block until every queued save is committed; True on drain."""
        return self._idle.wait(timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Drain the writer, stop the replica receivers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._queue.put(None)
            self._writer.join(timeout=timeout)
        for thread in self._receivers:
            thread.join(timeout=self.recv_slice_s * 4 + 0.2)
        if _ENGINES.get(self.rank) is self:
            _ENGINES.pop(self.rank, None)

    def stats(self) -> dict:
        """Counter snapshot: the ``ddp_stats()["checkpoint"]`` section."""
        with self._lock:
            snap = dict(self._stats)
        snap["async_write"] = self.async_write
        snap["replication_factor"] = self.replication_factor
        snap["pending_writes"] = self._queue.qsize()
        snap["keep"] = self.keep
        return snap

    def __repr__(self) -> str:
        return (
            f"CheckpointEngine(rank={self.rank}, world={self.world}, "
            f"replication={self.replication_factor}, "
            f"async={self.async_write}, dir={self.directory!r})"
        )
