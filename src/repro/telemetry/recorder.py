"""The reducer's single timing source: one record per synchronized backward.

An :class:`IterationRecorder` stamps the handful of coarse
per-iteration timestamps (a few ``perf_counter`` calls — cheap enough
to stay on with telemetry disabled) and, when the iteration finalizes,
closes them into one :class:`IterationRecord`.  The record is the only
copy of those facts; every compute-side view reads it:

* ``Reducer.last_iteration_stats`` and ``ddp_stats()`` (phases, comm
  totals, overlap ratio, per-bucket latency, the ``profile`` summary
  and ``health.overlap_ratio``) read the newest record,
  :attr:`IterationRecorder.last`;
* the critical-path profiler, the Chrome-trace ``compute`` rows, and
  the health engine's overlap-collapse history read the per-rank
  iteration ring (:func:`iteration_rings`), which keeps the last
  :data:`~repro.debug.flight_recorder.DEFAULT_CAPACITY` records while
  collective records are kept (telemetry or ``REPRO_DEBUG`` on) and is
  emptied by ``telemetry.reset()``.

Phase model per synchronized iteration (paper Fig. 4 / Fig. 6):

```
prepare ──► first_grad ───────────► all_grads ──► done
   │  loss+early backward │ backward compute │ finalize: wait+copy-back
   └ bucket i: ready ► launch ► [comm start ── comm end] (worker thread)
```

The communication intervals come from the ``Work`` handles' collective
records, which the process-group worker stamps with execution start/end
times; the **overlap ratio** is the fraction of total bucket
communication wall time hidden inside the backward-compute window
``[first_grad, all_grads]``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.debug.flight_recorder import RecordRing
from repro.telemetry.spans import TRACER, _resolve_rank


def work_interval(work) -> Optional[Tuple[float, float]]:
    """Execution interval stamped on a ``Work`` handle's record, if any.

    Communication hooks wrap the real handle (``_HookWork``); unwrap
    one level of ``_inner`` so compressed buckets still report comm
    time.  Returns ``None`` for handles that never executed.
    """
    for candidate in (work, getattr(work, "_inner", None)):
        record = getattr(candidate, "record", None)
        if record is not None and record.t_start is not None and record.t_end is not None:
            return (record.t_start, record.t_end)
    return None


@dataclass
class BucketTiming:
    """One bucket's stamps in one iteration (``perf_counter`` seconds)."""

    bucket: int
    nbytes: int
    t_ready: Optional[float]
    t_launch: Optional[float]
    #: Execution interval of the bucket's collective (None if it never ran).
    comm_start: Optional[float]
    comm_end: Optional[float]

    @property
    def launch_delay_s(self) -> float:
        """Ready → launch wait (the in-order launch delay of §3.2.3)."""
        if self.t_ready is None or self.t_launch is None:
            return 0.0
        return max(0.0, self.t_launch - self.t_ready)

    @property
    def comm_s(self) -> float:
        if self.comm_start is None:
            return 0.0
        return self.comm_end - self.comm_start


class IterationRecord:
    """One synchronized backward, as seen by one rank."""

    __slots__ = ("rank", "iteration", "t_prepare", "t_first_grad",
                 "t_all_grads", "t_done", "buckets", "phases",
                 "comm_total_s", "comm_hidden_s", "overlap_ratio")

    def __init__(self, rank: int, iteration: int, t_prepare: float,
                 t_first_grad: float, t_all_grads: float, t_done: float,
                 buckets: Sequence[BucketTiming]):
        self.rank = rank
        self.iteration = iteration
        self.t_prepare = t_prepare
        self.t_first_grad = t_first_grad
        self.t_all_grads = t_all_grads
        self.t_done = t_done
        self.buckets = list(buckets)
        #: The legacy four-phase breakdown (``last_iteration_stats``).
        self.phases = {
            # forward + loss + any pre-backward work since prepare()
            "prepare_to_first_grad": t_first_grad - t_prepare,
            # local gradient computation window
            "backward_compute": t_all_grads - t_first_grad,
            # communication not hidden by backward compute
            "comm_exposed_wait": t_done - t_all_grads,
            "total": t_done - t_prepare,
        }
        intervals = self.comm_intervals()
        self.comm_total_s = sum(end - start for start, end in intervals)
        self.comm_hidden_s = sum(self.hidden_s(start, end)
                                 for start, end in intervals)
        self.overlap_ratio = (self.comm_hidden_s / self.comm_total_s
                              if self.comm_total_s > 0 else 0.0)

    def hidden_s(self, start: float, end: float) -> float:
        """Part of ``[start, end]`` inside the backward-compute window."""
        return max(0.0, min(end, self.t_all_grads) - max(start, self.t_first_grad))

    def comm_intervals(self) -> List[Tuple[float, float]]:
        """``(start, end)`` of every bucket collective that executed."""
        return [(b.comm_start, b.comm_end)
                for b in self.buckets if b.comm_start is not None]

    def __repr__(self) -> str:
        return (f"<IterationRecord rank={self.rank} iteration={self.iteration} "
                f"total={self.phases['total'] * 1e3:.3f}ms "
                f"overlap={self.overlap_ratio:.3f}>")


# ----------------------------------------------------------------------
# per-rank iteration rings
# ----------------------------------------------------------------------
_rings_lock = threading.Lock()
_rings: Dict[int, RecordRing] = {}


def iteration_ring(rank: int) -> RecordRing:
    """This rank's ring of :class:`IterationRecord` (created on first use)."""
    ring = _rings.get(rank)
    if ring is None:
        with _rings_lock:
            ring = _rings.setdefault(rank, RecordRing(rank))
    return ring


def iteration_rings() -> Dict[int, RecordRing]:
    with _rings_lock:
        return dict(_rings)


def clear_iteration_rings() -> None:
    with _rings_lock:
        _rings.clear()


class IterationRecorder:
    """Per-reducer phase stamps of the current iteration; :attr:`last`
    is the record of the newest finished one."""

    def __init__(self, rank: Optional[int] = None):
        self.rank = rank
        self.iteration = -1
        self.t_prepare = 0.0
        self.t_first_grad: Optional[float] = None
        self.t_all_grads: Optional[float] = None
        # bucket index -> timestamps
        self._ready: Dict[int, float] = {}
        self._launched: Dict[int, float] = {}
        self._launch_bytes: Dict[int, int] = {}
        self.last: Optional[IterationRecord] = None

    # -- marks ----------------------------------------------------------
    def start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.t_first_grad = None
        self.t_all_grads = None
        self._ready.clear()
        self._launched.clear()
        self._launch_bytes.clear()
        self.t_prepare = time.perf_counter()

    def mark_first_grad(self) -> None:
        if self.t_first_grad is None:
            self.t_first_grad = time.perf_counter()

    def bucket_ready(self, index: int) -> None:
        self._ready[index] = time.perf_counter()

    def bucket_launched(self, index: int, nbytes: int) -> None:
        self._launched[index] = time.perf_counter()
        self._launch_bytes[index] = nbytes

    def mark_all_grads(self) -> float:
        self.t_all_grads = time.perf_counter()
        return self.t_all_grads

    # -- finalize --------------------------------------------------------
    def finish(self, bucket_works: Sequence[Tuple[int, object]]) -> IterationRecord:
        """Close the iteration into :attr:`last`; returns the record.

        ``bucket_works`` pairs each bucket index with its ``Work``
        handle (or ``None``).  While collective records are kept the
        record also goes into this rank's iteration ring, and with
        telemetry on the per-iteration registry metrics are updated.
        """
        from repro.comm.process_group import recording

        t_done = time.perf_counter()
        t_all = self.t_all_grads if self.t_all_grads is not None else t_done
        t_first = self.t_first_grad if self.t_first_grad is not None else t_all
        buckets = []
        for index, work in bucket_works:
            interval = work_interval(work) if work is not None else None
            start, end = interval if interval is not None else (None, None)
            buckets.append(BucketTiming(
                index, self._launch_bytes.get(index, 0), self._ready.get(index),
                self._launched.get(index), start, end,
            ))
        rank = self.rank if self.rank is not None else _resolve_rank()
        record = IterationRecord(rank, self.iteration, self.t_prepare,
                                 t_first, t_all, t_done, buckets)
        self.last = record
        if recording():
            iteration_ring(rank).append(record)
        if TRACER.enabled:
            _publish_metrics(record)
        return record


def _publish_metrics(record: IterationRecord) -> None:
    from repro.telemetry.metrics import registry_for

    registry = registry_for(record.rank)
    delay_hist = registry.histogram("bucket.ready_to_launch_delay")
    for bucket in record.buckets:
        if bucket.t_ready is not None and bucket.t_launch is not None:
            delay_hist.observe(bucket.launch_delay_s)
    registry.gauge("iteration.overlap_ratio").set(record.overlap_ratio)
    registry.counter("iterations.synced").add(1)
