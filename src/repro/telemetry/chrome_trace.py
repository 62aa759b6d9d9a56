"""Chrome-trace export of *measured* multi-rank timelines.

The simulator already exports its predicted timeline in the Trace Event
Format (``repro.simulation.trace``).  This module emits the **measured**
timeline of a real threaded run in the same format — one ``pid`` per
rank, separate ``tid`` rows for compute vs. communication vs. transport
streams — so a measured trace and a simulated trace of the same model
drop into Perfetto side by side and the paper's Fig. 4 overlap picture
can be compared prediction-vs-reality.

All ranks share one process clock (``perf_counter``), so cross-rank
alignment is exact; timestamps are rebased to the earliest recorded
span and expressed in microseconds, as the format requires.

The reducer's ``compute`` rows and the ``comm`` rows are not spans:
they are views of the per-rank iteration records
(:mod:`repro.telemetry.recorder`, :func:`compute_spans`) and collective
records (:mod:`repro.debug.flight_recorder`, :func:`comm_spans`).

:func:`merged_trace_events` widens the picture into one timeline:
telemetry spans, the same records' full lifecycles, and
:mod:`repro.resilience` retry/heartbeat instants all render as distinct
tracks per rank — the span rows as duration events, the ``flight`` rows
as ``op#seq`` lifecycle bars (scheduled → completed), and resilience
events as instant markers.  Because every source stamps the same
``perf_counter`` clock, a retransmit marker lines up exactly under the
collective it delayed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.debug.flight_recorder import all_recorders
from repro.telemetry.recorder import iteration_rings
from repro.telemetry.spans import SpanRecord, SpanTracer, TRACER

#: Stable tid assignment so compute is always the top row per rank.
_STREAM_ORDER = {"compute": 0, "comm": 1, "transport": 2,
                 "resilience": 3, "flight": 4}


def comm_spans() -> List[SpanRecord]:
    """Every executed collective record as a ``comm`` row span.

    The span covers the record's execution interval (start → end) and
    carries :meth:`~repro.debug.flight_recorder.CollectiveRecord.summary`
    as its args (op, seq, group, bytes, algorithm, bucket, ...), plus
    the error of a failed collective.
    """
    spans: List[SpanRecord] = []
    for rank, recorder in sorted(all_recorders().items()):
        for record in recorder.records():
            if record.t_start is None or record.t_end is None:
                continue
            args = record.summary()
            if record.error is not None:
                args["error"] = record.error
            spans.append(SpanRecord(
                f"{record.op}#{record.seq}", "comm", "comm", rank,
                record.t_start, record.t_end, 0, args,
            ))
    return spans


def compute_spans() -> List[SpanRecord]:
    """Every retained iteration record as reducer rows on ``compute``.

    Per record: an ``iteration N`` umbrella, the
    ``prepare_to_first_grad`` / ``backward_compute`` /
    ``finalize(wait+copy_back)`` phases beneath it, and one
    ``bucket i ready→launch`` bar per launched bucket.
    """
    spans: List[SpanRecord] = []
    for rank, ring in sorted(iteration_rings().items()):
        for rec in ring.records():
            iteration = {"iteration": rec.iteration}
            spans.append(SpanRecord(
                f"iteration {rec.iteration}", "iteration", "compute", rank,
                rec.t_prepare, rec.t_done, 0,
                {**iteration, "overlap_ratio": round(rec.overlap_ratio, 4)},
            ))
            phases = (
                ("prepare_to_first_grad", rec.t_prepare, rec.t_first_grad),
                ("backward_compute", rec.t_first_grad, rec.t_all_grads),
            )
            for name, lo, hi in phases:
                if hi > lo:
                    spans.append(SpanRecord(name, "compute", "compute", rank,
                                            lo, hi, 1, dict(iteration)))
            spans.append(SpanRecord(
                "finalize(wait+copy_back)", "compute", "compute", rank,
                rec.t_all_grads, rec.t_done, 1, dict(iteration),
            ))
            for bucket in rec.buckets:
                if (bucket.t_ready is not None and bucket.t_launch is not None
                        and bucket.t_launch >= bucket.t_ready):
                    spans.append(SpanRecord(
                        f"bucket {bucket.bucket} ready→launch", "bucket",
                        "compute", rank, bucket.t_ready, bucket.t_launch, 2,
                        {**iteration, "bucket": bucket.bucket,
                         "bytes": bucket.nbytes},
                    ))
    return spans


def _tid_for(stream: str, streams: Dict[str, int]) -> int:
    return _STREAM_ORDER.get(stream, len(_STREAM_ORDER) + len(streams))


def _metadata_events(seen_tids: Dict[int, Dict[str, int]]) -> List[dict]:
    """Process/thread naming records for each (rank, stream) row."""
    events: List[dict] = []
    for rank, streams in sorted(seen_tids.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": rank,
                "tid": 0,
                "args": {"name": f"rank {rank}" if rank >= 0 else "unattributed"},
            }
        )
        for stream, tid in sorted(streams.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": rank,
                    "tid": tid,
                    "args": {"name": stream},
                }
            )
    return events


def trace_events(tracer: Optional[SpanTracer] = None) -> List[dict]:
    """Trace Event Format records for every span the tracer holds, plus
    the ``compute`` rows of the iteration records and the ``comm`` rows
    of the collective records."""
    tracer = tracer or TRACER
    events: List[dict] = []
    all_spans = tracer.spans() + compute_spans() + comm_spans()
    if not all_spans:
        return events
    epoch = min(span.t_start for span in all_spans)
    seen_tids: Dict[int, Dict[str, int]] = {}
    for span in all_spans:
        streams = seen_tids.setdefault(span.rank, {})
        if span.stream not in streams:
            streams[span.stream] = _tid_for(span.stream, streams)
        args = dict(span.args) if span.args else {}
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": (span.t_start - epoch) * 1e6,
                "dur": max(0.0, span.t_end - span.t_start) * 1e6,
                "pid": span.rank,
                "tid": streams[span.stream],
                "args": args,
            }
        )
    # Metadata: name each rank's process and each stream's thread row.
    events.extend(_metadata_events(seen_tids))
    return events


def export_chrome_trace(path: str, tracer: Optional[SpanTracer] = None) -> str:
    """Write the measured timeline as chrome://tracing JSON; returns path."""
    events = trace_events(tracer)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path


# ----------------------------------------------------------------------
# merged timeline: spans + flight recorder + resilience instants
# ----------------------------------------------------------------------
def merged_trace_events(
    tracer: Optional[SpanTracer] = None,
    include_flight: bool = True,
    include_resilience: bool = True,
) -> List[dict]:
    """One timeline for every evidence source the runtime keeps.

    Three tracks per rank, all on the shared ``perf_counter`` clock:

    * telemetry spans, ``compute`` and ``comm`` rows (the rows
      :func:`trace_events` emits);
    * the collective records' lifecycles — one ``op#seq`` bar per
      collective (scheduled → completed), on a ``flight`` row; records
      that never finished render up to their last known timestamp with
      the terminal state in ``args``;
    * ``repro.resilience`` events (retries, retransmits, corruption
      drops, heartbeats) — zero-duration spans rendered as instant
      (``ph: "i"``) markers on a ``resilience`` row.
    """
    tracer = tracer or TRACER
    all_spans = tracer.spans() + compute_spans() + comm_spans()
    flight = (
        [(rank, record) for rank, recorder in sorted(all_recorders().items())
         for record in recorder.records()]
        if include_flight else []
    )

    # One epoch across every source so the tracks stay aligned.
    starts = [span.t_start for span in all_spans]
    starts.extend(record.t_sched for _, record in flight)
    if not starts:
        return []
    epoch = min(starts)

    events: List[dict] = []
    seen_tids: Dict[int, Dict[str, int]] = {}

    def tid(rank: int, stream: str) -> int:
        streams = seen_tids.setdefault(rank, {})
        if stream not in streams:
            streams[stream] = _tid_for(stream, streams)
        return streams[stream]

    for span in all_spans:
        if span.cat == "resilience" and not include_resilience:
            continue
        args = dict(span.args) if span.args else {}
        if span.cat == "resilience":
            # Point-in-time markers: a retry has no meaningful duration.
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "i",
                    "s": "t",
                    "ts": (span.t_start - epoch) * 1e6,
                    "pid": span.rank,
                    "tid": tid(span.rank, span.stream),
                    "args": args,
                }
            )
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": (span.t_start - epoch) * 1e6,
                "dur": max(0.0, span.t_end - span.t_start) * 1e6,
                "pid": span.rank,
                "tid": tid(span.rank, span.stream),
                "args": args,
            }
        )

    for rank, record in flight:
        t_close = record.t_end or record.t_start or record.t_sched
        events.append(
            {
                "name": f"{record.op}#{record.seq}",
                "cat": "flight",
                "ph": "X",
                "ts": (record.t_sched - epoch) * 1e6,
                "dur": max(0.0, t_close - record.t_sched) * 1e6,
                "pid": rank,
                "tid": tid(rank, "flight"),
                "args": {
                    "state": record.state,
                    "group_id": record.group_id,
                    "nbytes": record.nbytes,
                    "context": record.context,
                    "error": record.error,
                },
            }
        )

    events.extend(_metadata_events(seen_tids))
    return events


def export_merged_trace(path: str, tracer: Optional[SpanTracer] = None,
                        include_flight: bool = True,
                        include_resilience: bool = True) -> str:
    """Write the merged (spans + comm + flight + resilience) timeline;
    returns path."""
    events = merged_trace_events(tracer, include_flight=include_flight,
                                 include_resilience=include_resilience)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path
