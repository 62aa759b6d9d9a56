"""Per-rank collective records: the one record of every collective.

The analog of NCCL's / TorchTitan's flight recorder.  Every collective a
:class:`~repro.comm.process_group.ProcessGroup` issues is described by
one :class:`CollectiveRecord` — sequence number, op, group id, payload
fingerprint (shape, dtype, reduce op / src / root), bytes moved,
algorithm, the caller context (e.g. which reducer bucket launched it),
scheduled → started → completed timestamps, retry deltas and receive
stalls.  The ``Work`` handle carries it, the process-group worker writes
it at start and end, and while records are on (telemetry or
``REPRO_DEBUG``) it is appended to the rank's bounded ring here.

Every collective view reads that ring: the JSON dump and cross-rank
"last N per rank" table, the watchdog's group snapshot and desync
report, the cross-rank causal timeline (:func:`merge_causal_timeline`,
:func:`seq_frontier`), and the Chrome-trace ``comm`` and ``flight``
rows.  Because every rank issues the same collectives in the same
order (paper §3.3), ``(group, seq)`` names one collective on every
rank, and all rank threads share one ``perf_counter`` clock, so
stitching needs no clock agreement.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import threading
import time
from collections import deque
from typing import Dict, List, Optional

#: Records retained per rank before the ring drops the oldest.
DEFAULT_CAPACITY = 1024

# Lifecycle states.
SCHEDULED = "scheduled"
STARTED = "started"
COMPLETED = "completed"
FAILED = "failed"

#: Caller-context ``(label, bucket)`` (e.g. ``("bucket 3", 3)``) attached
#: to records scheduled while the context manager below is active.  A
#: contextvar so reducer code can label collectives without widening the
#: ProcessGroup API.
_collective_context: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_collective_context", default=(None, None)
)


@contextlib.contextmanager
def collective_context(label: str, bucket: Optional[int] = None):
    """Label collectives scheduled inside the block (``context`` field,
    plus the reducer ``bucket`` index when given)."""
    token = _collective_context.set((label, bucket))
    try:
        yield
    finally:
        _collective_context.reset(token)


def current_collective_context() -> Optional[str]:
    return _collective_context.get()[0]


#: Fingerprint fields that have their own column in a record's dict.
_FINGERPRINT_COLUMNS = ("op", "shape", "dtype", "nbytes")

#: Guards the first-terminal-state-wins check in :meth:`CollectiveRecord.close`.
_close_lock = threading.Lock()


class CollectiveRecord:
    """One collective's lifecycle as seen by the issuing rank."""

    __slots__ = (
        "group_id", "seq", "op", "fingerprint", "nbytes", "algorithm",
        "context", "bucket", "state", "t_sched", "t_start", "t_end", "error",
        "retries", "stall_s", "stall_by_src", "chunks",
    )

    def __init__(self, group_id, seq: int, op: str, fingerprint: Optional[dict] = None,
                 nbytes: Optional[int] = None, algorithm: Optional[str] = None):
        self.group_id = group_id
        self.seq = seq
        self.op = op
        self.fingerprint = fingerprint
        #: Bytes this rank's collective moves (None for barrier/scatter).
        self.nbytes = nbytes
        self.algorithm = algorithm
        self.context, self.bucket = _collective_context.get()
        self.state = SCHEDULED
        self.t_sched = time.perf_counter()
        self.t_start: Optional[float] = None
        self.t_end: Optional[float] = None
        self.error: Optional[str] = None
        #: Transport retry counters that moved while this ran (or None).
        self.retries: Optional[Dict[str, int]] = None
        #: Receive-wait seconds, total and per sending rank, and the
        #: number of chunks received (filled while health accounting is on).
        self.stall_s = 0.0
        self.stall_by_src: Optional[Dict[int, float]] = None
        self.chunks = 0

    # -- lifecycle writes --------------------------------------------------
    def start(self) -> None:
        self.t_start = time.perf_counter()
        self.state = STARTED

    def close(self, error: Optional[BaseException] = None) -> bool:
        """Record the terminal state; returns False if already terminal.

        First terminal state wins: a record failed by a caller-side
        ``Work.wait`` timeout or the hang watchdog keeps its richer
        error when the communication worker reports in later.
        """
        with _close_lock:
            if self.state in (COMPLETED, FAILED):
                return False
            self.t_end = time.perf_counter()
            if error is None:
                self.state = COMPLETED
            else:
                self.state = FAILED
                self.error = f"{type(error).__name__}: {error}"
        return True

    def note_stall(self, src: int, seconds: float) -> None:
        """Attribute ``seconds`` of receive wait to sending rank ``src``."""
        self.stall_s += seconds
        by_src = self.stall_by_src
        if by_src is None:
            by_src = self.stall_by_src = {}
        by_src[src] = by_src.get(src, 0.0) + seconds
        self.chunks += 1

    # -- views -------------------------------------------------------------
    def describe(self) -> str:
        return f"{self.op}#{self.seq}@pg{self.group_id}"

    def extra(self) -> dict:
        """Fingerprint fields without a column (reduce op, src, root)
        plus retry deltas."""
        extra = {k: v for k, v in (self.fingerprint or {}).items()
                 if k not in _FINGERPRINT_COLUMNS}
        if self.retries:
            extra.update(self.retries)
        return extra

    def summary(self) -> dict:
        """Identity, size and placement with unset fields dropped (the
        ``args`` of the collective's Chrome-trace ``comm`` row)."""
        fields = {"op": self.op, "seq": self.seq, "group": self.group_id,
                  "bytes": self.nbytes, "algorithm": self.algorithm,
                  "bucket": self.bucket}
        fields.update(self.extra())
        return {key: value for key, value in fields.items() if value is not None}

    def as_dict(self) -> dict:
        fp = self.fingerprint or {}
        shape = fp.get("shape")
        return {
            "seq": self.seq,
            "op": self.op,
            "group_id": self.group_id,
            "shape": list(shape) if shape is not None else None,
            "dtype": fp.get("dtype"),
            "nbytes": self.nbytes,
            "algorithm": self.algorithm,
            "bucket": self.bucket,
            "extra": self.extra(),
            "context": self.context,
            "state": self.state,
            "t_sched": self.t_sched,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "error": self.error,
        }

    def lifecycle(self, rank: int) -> List[dict]:
        """This record as time-stamped ``schedule``/``start``/``complete``
        (or ``failed``) events of ``rank``'s timeline."""
        events = [{"kind": "schedule", "rank": rank, "t": self.t_sched}]
        if self.t_start is not None:
            events.append({"kind": "start", "rank": rank, "t": self.t_start})
        if self.t_end is not None:
            kind = "failed" if self.state == FAILED else "complete"
            events.append({"kind": kind, "rank": rank, "t": self.t_end})
        return events

    def __repr__(self) -> str:
        return f"<CollectiveRecord {self.describe()} {self.state}>"


class RecordRing:
    """Bounded, lock-guarded ring of one rank's records, oldest dropped
    first (``dropped`` counts them)."""

    def __init__(self, rank: int, capacity: int = DEFAULT_CAPACITY):
        self.rank = rank
        self.capacity = capacity
        self.dropped = 0
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)

    def append(self, record):
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(record)
        return record

    def depth(self) -> int:
        with self._lock:
            return len(self._ring)

    def records(self) -> list:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0


class FlightRecorder(RecordRing):
    """Bounded ring of :class:`CollectiveRecord` for one rank.

    The issuing (caller) thread appends a record when it schedules the
    collective; the communication worker updates it in place — one short
    lock guards the ring.
    """

    def records(self, group_id=None) -> List[CollectiveRecord]:
        records = super().records()
        if group_id is not None:
            records = [r for r in records if r.group_id == group_id]
        return records

    def tail(self, n: int = 10, group_id=None) -> List[dict]:
        return [r.as_dict() for r in self.records(group_id)[-n:]]

    def last_completed(self, group_id=None) -> Optional[CollectiveRecord]:
        for record in reversed(self.records(group_id)):
            if record.state == COMPLETED:
                return record
        return None

    def last_scheduled(self, group_id=None) -> Optional[CollectiveRecord]:
        records = self.records(group_id)
        return records[-1] if records else None

    def inflight(self, group_id=None) -> Optional[CollectiveRecord]:
        """The oldest scheduled-or-started record not yet finished."""
        for record in self.records(group_id):
            if record.state in (SCHEDULED, STARTED):
                return record
        return None

    def group_snapshot(self, group_id, tail: int = 8) -> dict:
        """The cross-rank exchange unit: this rank's view of one group."""
        last_completed = self.last_completed(group_id)
        last_scheduled = self.last_scheduled(group_id)
        inflight = self.inflight(group_id)
        return {
            "rank": self.rank,
            "status": "running",
            "last_completed": last_completed.as_dict() if last_completed else None,
            "last_scheduled": last_scheduled.as_dict() if last_scheduled else None,
            "inflight": inflight.as_dict() if inflight else None,
            "tail": self.tail(tail, group_id),
        }

    def dump(self) -> dict:
        return {
            "rank": self.rank,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "records": [r.as_dict() for r in self.records()],
        }


# ----------------------------------------------------------------------
# per-rank registry
# ----------------------------------------------------------------------
_registry_lock = threading.Lock()
_recorders: Dict[int, FlightRecorder] = {}


def recorder_for(rank: int, capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """This rank's flight recorder (created on first use)."""
    recorder = _recorders.get(rank)
    if recorder is None:
        with _registry_lock:
            recorder = _recorders.setdefault(rank, FlightRecorder(rank, capacity))
    return recorder


def all_recorders() -> Dict[int, FlightRecorder]:
    with _registry_lock:
        return dict(_recorders)


def clear_recorders() -> None:
    with _registry_lock:
        _recorders.clear()


def dump_all() -> List[dict]:
    """Every rank's dump, sorted by rank (JSON-serializable)."""
    return [rec.dump() for _, rec in sorted(all_recorders().items())]


def dump_json(path: Optional[str] = None, indent: int = 2) -> str:
    """Serialize every recorder; optionally write the JSON to ``path``."""
    text = json.dumps({"flight_recorders": dump_all()}, indent=indent)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ----------------------------------------------------------------------
# cross-rank stitching
# ----------------------------------------------------------------------
def merge_causal_timeline(
    recorders: Optional[Dict[int, FlightRecorder]] = None,
) -> List[dict]:
    """Stitch every rank's records into one causal timeline per collective.

    Records are grouped by ``(group, seq)`` — the globally agreed
    identity of one collective — and each group's lifecycle events are
    ordered by timestamp (all ranks share the process ``perf_counter``
    clock, so the order is causal, not approximate).

    Returns one entry per collective, ordered by (group, seq)::

        {"group": 0, "seq": 14, "op": "allreduce", "bucket": 3,
         "ranks": [0, 1, 2, 3],
         "events": [{"kind": "schedule", "rank": 0, "t": ...}, ...],
         "t_first": ..., "t_last": ...,
         "start_skew_s": 0.081}             # max-min of start times

    ``start_skew_s`` is the straggler signature: how far apart the ranks
    began executing the same collective.
    """
    if recorders is None:
        recorders = all_recorders()
    keyed: Dict[tuple, list] = {}
    for rank, recorder in recorders.items():
        for record in recorder.records():
            keyed.setdefault((record.group_id, record.seq), []).append((rank, record))

    timeline: List[dict] = []
    for (group, seq), entries in sorted(keyed.items()):
        events = sorted(
            (event for rank, record in entries for event in record.lifecycle(rank)),
            key=lambda e: e["t"],
        )
        starts = [r.t_start for _, r in entries if r.t_start is not None]
        timeline.append(
            {
                "group": group,
                "seq": seq,
                "op": entries[0][1].op,
                "bucket": next(
                    (r.bucket for _, r in entries if r.bucket is not None), None
                ),
                "ranks": sorted({rank for rank, _ in entries}),
                "events": events,
                "t_first": events[0]["t"],
                "t_last": events[-1]["t"],
                "start_skew_s": (max(starts) - min(starts)) if len(starts) > 1 else 0.0,
            }
        )
    return timeline


def seq_frontier(
    recorders: Optional[Dict[int, FlightRecorder]] = None,
) -> Dict[int, Dict[int, int]]:
    """Per group: each rank's highest *started* collective sequence.

    The desync-precursor detector compares frontiers — a rank whose
    frontier trails the group's leader by many collectives is drifting
    toward the hang the debug watchdog would eventually catch.
    """
    if recorders is None:
        recorders = all_recorders()
    frontier: Dict[int, Dict[int, int]] = {}
    for rank, recorder in recorders.items():
        for record in recorder.records():
            if record.t_start is None:
                continue
            per_group = frontier.setdefault(record.group_id, {})
            if record.seq > per_group.get(rank, -1):
                per_group[rank] = record.seq
    return frontier


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_record(record: dict) -> str:
    shape = tuple(record["shape"]) if record.get("shape") else "-"
    age = ""
    if record.get("t_end") is not None and record.get("t_sched") is not None:
        age = f" {1e3 * (record['t_end'] - record['t_sched']):.2f}ms"
    context = f" [{record['context']}]" if record.get("context") else ""
    error = f" !{record['error']}" if record.get("error") else ""
    return (
        f"pg{record['group_id']} #{record['seq']:<4} {record['op']:<14} "
        f"{record['state']:<9} shape={shape} dtype={record.get('dtype') or '-'} "
        f"nbytes={record.get('nbytes') if record.get('nbytes') is not None else '-'}"
        f"{age}{context}{error}"
    )


def render_cross_rank(dumps: List[dict], last_n: int = 10) -> str:
    """Merge per-rank dumps into a "last N collectives per rank" table.

    ``dumps`` is a list of :meth:`FlightRecorder.dump` dicts (e.g. from
    :func:`dump_all`, or gathered from the store by the watchdog).
    """
    lines = ["collective flight recorder — last %d per rank" % last_n]
    for dump in sorted(dumps, key=lambda d: d["rank"]):
        records = dump.get("records", [])
        dropped = dump.get("dropped", 0)
        suffix = f" ({dropped} older dropped)" if dropped else ""
        lines.append(f"rank {dump['rank']}: {len(records)} recorded{suffix}")
        for record in records[-last_n:]:
            lines.append("  " + _fmt_record(record))
        if not records:
            lines.append("  (no collectives recorded)")
    return "\n".join(lines)
