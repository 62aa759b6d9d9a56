"""Collective algorithms implemented over point-to-point transport.

These are the real algorithms communication libraries use (paper §2.3):

* ``allreduce_naive`` — every rank sends its tensor to every peer and
  reduces locally; the strawman the paper mentions, kept as a baseline.
* ``allreduce_ring`` — reduce-scatter + allgather ring (NCCL's default),
  2·(p−1) chunk transfers per rank, bandwidth-optimal.
* ``allreduce_tree`` — binomial-tree reduce to a root followed by a
  binomial-tree broadcast (NCCL 2.4-style latency-optimal variant).
* ``allreduce_halving_doubling`` — recursive vector halving/distance
  doubling (Gloo's default for large tensors).

All functions operate **in place** on a flat numpy array and take the
list of participating global ranks, so sub-groups and round-robin groups
reuse them unchanged.  ``tag`` namespaces concurrent collectives.

Hot-path design (paper Figs. 7/8 cost model):

* **Contiguous segments** — buffers are partitioned with
  :func:`partition_spans` into contiguous ``[lo, hi)`` windows, so every
  send is a single ``memcpy``-like slice copy and every reduction is one
  vectorized numpy ufunc call (``np.add(dst, src, out=dst)``).  No index
  arrays, no fancy-indexing gathers, no Python element loops.
* **Chunked transfers** — segments larger than ``chunk_bytes`` (default
  :data:`DEFAULT_CHUNK_BYTES`, env ``REPRO_CHUNK_BYTES``) are split into
  chunks that are deposited into the transport back-to-back.  Because
  ``TransportHub.send`` never blocks, several chunks are in flight at
  once and a receiver starts reducing chunk 0 while the sender is still
  copying chunk *k* — the chunk-level pipelining of the S-SGD DAG model
  (Shi et al.).  Chunk counts are derived purely from (segment size,
  chunk size), which both endpoints know, so no extra coordination
  messages are needed.

Complexity notes use the paper's α–β model: α is per-message latency,
β is per-byte transfer time, *n* is the buffer's byte size and *p* the
number of participating ranks.

Thread-safety: every function is written to run on one rank's thread
while peer ranks run the same function concurrently; all shared state
lives in the :class:`~repro.comm.transport.TransportHub` mailboxes.
Per-rank buffers are only touched by their own rank.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.comm.transport import TransportHub
from repro.telemetry.health import accounting as _health

ReduceFn = Callable[..., np.ndarray]


def _recv(hub: TransportHub, me: int, src: int, tag: object, timeout: float | None):
    """``hub.recv`` plus per-source stall attribution.

    When the process-group worker routes this thread's stalls to the
    running collective's record for health accounting
    (:func:`repro.telemetry.health.accounting.stall_record`), the time
    spent inside ``recv`` is attributed to the sending rank — the raw
    signal behind straggler and slow-link diagnoses.  Otherwise this is
    a plain ``hub.recv`` plus one attribute check.
    """
    record = _health.stall_record()
    if record is None:
        return hub.recv(me, src, tag, timeout)
    t0 = time.perf_counter()
    payload = hub.recv(me, src, tag, timeout)
    record.note_stall(src, time.perf_counter() - t0)
    return payload

#: Elementwise reduction operators.  All values are numpy ufuncs so the
#: hot path can reduce **in place** (``fn(dst, src, out=dst)``) without
#: allocating temporaries; called with two arguments they still return a
#: new array, preserving the seed API.
REDUCE_FUNCTIONS: dict[str, ReduceFn] = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "bor": np.bitwise_or,
    "band": np.bitwise_and,
}


def _default_chunk_bytes() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_CHUNK_BYTES", 1 << 20)))
    except ValueError:
        return 1 << 20


#: Default transfer-chunk size in bytes (1 MiB).  Tunable per call via
#: ``chunk_bytes=`` or globally via :func:`set_chunk_bytes` / the
#: ``REPRO_CHUNK_BYTES`` environment variable (read at import).
DEFAULT_CHUNK_BYTES: int = _default_chunk_bytes()


def set_chunk_bytes(nbytes: int) -> None:
    """Set the global default transfer-chunk size (bytes, ≥1).

    Thread-safety: a plain module-global write; call it from the main
    thread before launching rank threads (the benchmarks' usage), not
    concurrently with running collectives.
    """
    global DEFAULT_CHUNK_BYTES
    if nbytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    DEFAULT_CHUNK_BYTES = int(nbytes)


def get_chunk_bytes() -> int:
    """Current global default transfer-chunk size in bytes."""
    return DEFAULT_CHUNK_BYTES


def partition_spans(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous ``(lo, hi)`` spans.

    Sizing matches ``np.array_split``: the first ``total % parts`` spans
    get one extra element, so layouts agree with code (and tests) that
    used index-array splitting.  Empty spans are legal — they keep the
    message protocol aligned when ``total < parts``.
    """
    base, extra = divmod(total, parts)
    spans: List[Tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def _chunk_elems(chunk_bytes: int | None, dtype: np.dtype) -> int:
    nbytes = DEFAULT_CHUNK_BYTES if chunk_bytes is None else int(chunk_bytes)
    return max(1, nbytes // max(1, dtype.itemsize))


def _chunk_spans(lo: int, hi: int, chunk_elems: int) -> List[Tuple[int, int]]:
    """Split window ``[lo, hi)`` into chunks of at most ``chunk_elems``.

    An empty window still yields exactly one (empty) chunk so sender and
    receiver always exchange the same number of messages per window.
    """
    if hi <= lo:
        return [(lo, lo)]
    spans = []
    while lo < hi:
        mid = min(lo + chunk_elems, hi)
        spans.append((lo, mid))
        lo = mid
    return spans


def _reduce_fn(op: str) -> ReduceFn:
    """Resolve a reduce-op name to its ufunc; raises on unknown names."""
    try:
        return REDUCE_FUNCTIONS[op]
    except KeyError:
        raise ValueError(f"unknown reduce op {op!r}; options: {sorted(REDUCE_FUNCTIONS)}")


def allreduce_naive(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "naive",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Every rank broadcasts its input to all peers; reduce locally.

    Cost per rank: (p−1)α + (p−1)·n·β — each rank moves the *entire*
    buffer p−1 times, the O(p·n) strawman the paper contrasts with ring
    AllReduce.  Kept unchunked on purpose: it is the seed-fidelity
    baseline the benchmarks compare against.

    Thread-safety: safe to run concurrently on every rank thread of the
    group; the local buffer is only written by its own rank.
    """
    fn = _reduce_fn(op)
    world = len(ranks)
    if world == 1:
        return
    mine = buffer.copy()
    for offset, peer in enumerate(ranks):
        if offset != me:
            hub.send(ranks[me], peer, (tag, "naive", me), mine)
    acc = mine.copy()
    for offset, peer in enumerate(ranks):
        if offset == me:
            continue
        incoming = _recv(hub, ranks[me], peer, (tag, "naive", offset), timeout)
        fn(acc, incoming, out=acc)
    buffer[...] = acc


def allreduce_ring(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "ring",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Reduce-scatter + allgather ring (NCCL's default algorithm).

    Cost per rank: 2(p−1)α + 2·((p−1)/p)·n·β — bandwidth-optimal: each
    byte crosses each link roughly twice regardless of p.  The buffer is
    partitioned into p contiguous segments; every step each rank sends
    one segment right and reduces the incoming segment from the left
    with one vectorized ufunc call.  Segments larger than ``chunk_bytes``
    are pipelined as several in-flight chunks (the reducing side starts
    on chunk 0 while later chunks are still being deposited).

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    fn = _reduce_fn(op)
    world = len(ranks)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    segments = partition_spans(flat.size, world)
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    right = ranks[(me + 1) % world]
    left = ranks[(me - 1) % world]

    # Phase 1: reduce-scatter. After world-1 steps, rank r owns the fully
    # reduced segment (r+1) % world.
    for step in range(world - 1):
        send_lo, send_hi = segments[(me - step) % world]
        recv_lo, recv_hi = segments[(me - step - 1) % world]
        for c, (lo, hi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            hub.send(ranks[me], right, (tag, "rs", step, c), flat[lo:hi].copy())
        for c, (lo, hi) in enumerate(_chunk_spans(recv_lo, recv_hi, celems)):
            incoming = _recv(hub, ranks[me], left, (tag, "rs", step, c), timeout)
            fn(flat[lo:hi], incoming, out=flat[lo:hi])

    # Phase 2: allgather. Circulate the reduced segments.
    for step in range(world - 1):
        send_lo, send_hi = segments[(me - step + 1) % world]
        recv_lo, recv_hi = segments[(me - step) % world]
        for c, (lo, hi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            hub.send(ranks[me], right, (tag, "ag", step, c), flat[lo:hi].copy())
        for c, (lo, hi) in enumerate(_chunk_spans(recv_lo, recv_hi, celems)):
            incoming = _recv(hub, ranks[me], left, (tag, "ag", step, c), timeout)
            flat[lo:hi] = incoming
    buffer.reshape(-1)[...] = flat


def allreduce_tree(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "tree",
    tag: object = "tree",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Binomial-tree reduce to rank 0 then binomial-tree broadcast.

    Cost per rank: ≈ 2·⌈log₂ p⌉·(α + n·β) — latency-optimal in message
    rounds (the NCCL 2.4-style tree variant) but each round moves the
    full buffer, so it loses to the ring on large n.  Whole-buffer
    transfers are chunked so partners overlap reduction with transfer.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    fn = _reduce_fn(op)
    world = len(ranks)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    whole = _chunk_spans(0, flat.size, celems)

    # Reduce phase: at round k, ranks with the k-th bit set send to the
    # partner with that bit cleared, then drop out.
    mask = 1
    while mask < world:
        if me & mask:
            partner = me - mask
            for c, (lo, hi) in enumerate(whole):
                hub.send(ranks[me], ranks[partner], (tag, "red", mask, c), flat[lo:hi].copy())
            break
        partner = me + mask
        if partner < world:
            for c, (lo, hi) in enumerate(whole):
                incoming = _recv(hub, ranks[me], ranks[partner], (tag, "red", mask, c), timeout)
                fn(flat[lo:hi], incoming, out=flat[lo:hi])
        mask <<= 1

    # Broadcast phase: mirror image, highest mask first.
    top = 1
    while top < world:
        top <<= 1
    mask = top >> 1
    while mask >= 1:
        if me & (mask - 1) == 0:  # still active at this round
            if me & mask:
                for c, (lo, hi) in enumerate(whole):
                    incoming = _recv(hub, ranks[me], ranks[me - mask], (tag, "bc", mask, c), timeout)
                    flat[lo:hi] = incoming
            else:
                partner = me + mask
                if partner < world:
                    for c, (lo, hi) in enumerate(whole):
                        hub.send(ranks[me], ranks[partner], (tag, "bc", mask, c), flat[lo:hi].copy())
        mask >>= 1
    buffer.reshape(-1)[...] = flat


def allreduce_halving_doubling(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "hd",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Recursive vector-halving distance-doubling (Gloo's large-tensor path).

    Cost per rank: 2·log₂ p·α + 2·((p−1)/p)·n·β — the ring's bandwidth
    optimality at tree-like log₂ p latency.  Each round exchanges a
    contiguous half-window with the partner at distance 2ᵏ; windows are
    chunked for in-flight pipelining.  Requires a power-of-two
    participant count; other sizes delegate to the ring, which is what
    Gloo's bcube fallback effectively does.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    if world & (world - 1):
        allreduce_ring(hub, ranks, me, buffer, op, (tag, "ringfb"), timeout, chunk_bytes)
        return
    fn = _reduce_fn(op)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    # Track the index window this rank is responsible for.
    lo, hi = 0, flat.size
    distance = 1
    spans = []
    # Reduce-scatter with halving vectors.
    while distance < world:
        partner = me ^ distance
        mid = lo + (hi - lo) // 2
        if me < partner:
            send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
        else:
            send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
        for c, (clo, chi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            hub.send(ranks[me], ranks[partner], (tag, "rs", distance, c), flat[clo:chi].copy())
        for c, (clo, chi) in enumerate(_chunk_spans(keep_lo, keep_hi, celems)):
            incoming = _recv(hub, ranks[me], ranks[partner], (tag, "rs", distance, c), timeout)
            fn(flat[clo:chi], incoming, out=flat[clo:chi])
        spans.append((lo, hi))
        lo, hi = keep_lo, keep_hi
        distance <<= 1
    # Allgather with doubling vectors (reverse the halving).
    distance >>= 1
    while distance >= 1:
        partner = me ^ distance
        prev_lo, prev_hi = spans.pop()
        for c, (clo, chi) in enumerate(_chunk_spans(lo, hi, celems)):
            hub.send(ranks[me], ranks[partner], (tag, "ag", distance, c), flat[clo:chi].copy())
        # Partners shared the same parent window [prev_lo, prev_hi); the
        # lower rank kept the lower half, so each fills in the other half.
        fill_lo, fill_hi = (hi, prev_hi) if me < partner else (prev_lo, lo)
        for c, (clo, chi) in enumerate(_chunk_spans(fill_lo, fill_hi, celems)):
            incoming = _recv(hub, ranks[me], ranks[partner], (tag, "ag", distance, c), timeout)
            flat[clo:chi] = incoming
        lo, hi = prev_lo, prev_hi
        distance >>= 1
    buffer.reshape(-1)[...] = flat


def broadcast(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    tag: object = "bcast",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Binomial-tree broadcast from group-rank ``root`` (in place).

    Cost per rank: ≤ ⌈log₂ p⌉·(α + n·β); the root sends ⌈log₂ p⌉ copies,
    interior ranks forward once per subtree.  Transfers are chunked so
    a forwarding rank relays chunk 0 before chunk *k* arrives.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    whole = _chunk_spans(0, flat.size, celems)
    # Re-index so the root is virtual rank 0.
    vrank = (me - root) % world
    top = 1
    while top < world:
        top <<= 1
    mask = top >> 1
    while mask >= 1:
        if vrank & (mask - 1) == 0:
            if vrank & mask:
                src = ranks[(vrank - mask + root) % world]
                for c, (lo, hi) in enumerate(whole):
                    incoming = _recv(hub, ranks[me], src, (tag, "bc", mask, c), timeout)
                    flat[lo:hi] = incoming
            else:
                vpartner = vrank + mask
                if vpartner < world:
                    dst = ranks[(vpartner + root) % world]
                    for c, (lo, hi) in enumerate(whole):
                        hub.send(ranks[me], dst, (tag, "bc", mask, c), flat[lo:hi].copy())
        mask >>= 1
    buffer.reshape(-1)[...] = flat


def allgather(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    tag: object = "allgather",
    timeout: float | None = None,
) -> np.ndarray:
    """Ring allgather; returns an array of shape (world, buffer.size).

    Cost per rank: (p−1)α + (p−1)·n·β — every rank's full buffer visits
    every other rank once around the ring.  Rows are contiguous, so each
    step is one slice copy.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    flat = buffer.reshape(-1)
    out = np.empty((world, flat.size), dtype=flat.dtype)
    out[me] = flat
    if world == 1:
        return out
    right = ranks[(me + 1) % world]
    left = ranks[(me - 1) % world]
    for step in range(world - 1):
        send_idx = (me - step) % world
        recv_idx = (me - step - 1) % world
        hub.send(ranks[me], right, (tag, "ag", step), out[send_idx].copy())
        out[recv_idx] = _recv(hub, ranks[me], left, (tag, "ag", step), timeout)
    return out


def reduce_scatter_flat(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "rsflat",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> np.ndarray:
    """Chunked ring reduce-scatter over contiguous spans; returns rank
    ``me``'s fully reduced span.

    The buffer is partitioned with :func:`partition_spans` into ``p``
    contiguous spans and rank ``r`` receives the reduction of span ``r``
    — the ownership convention the sharded (ZeRO) stack builds on: the
    span a rank reduces here is exactly the span it owns in
    ``all_gather_into_flat`` and in the sharded optimizer's state
    partition.  The caller's buffer is left untouched (reductions run on
    a private copy), so gradients can be reused after the collective.

    Cost per rank: (p−1)α + ((p−1)/p)·n·β — phase 1 of the ring
    AllReduce.  Spans larger than ``chunk_bytes`` are pipelined as
    several in-flight chunks; empty spans (``n < p``) still exchange one
    empty chunk per step so the message protocol stays aligned.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    fn = _reduce_fn(op)
    world = len(ranks)
    flat = buffer.reshape(-1)
    segments = partition_spans(flat.size, world)
    if world == 1:
        return flat.copy()
    work = flat.copy()
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    right = ranks[(me + 1) % world]
    left = ranks[(me - 1) % world]
    # The allreduce_ring schedule shifted by one slot, so after world-1
    # steps rank r holds the fully reduced segment r (not (r+1) % p).
    for step in range(world - 1):
        send_lo, send_hi = segments[(me - step - 1) % world]
        recv_lo, recv_hi = segments[(me - step - 2) % world]
        for c, (lo, hi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            hub.send(ranks[me], right, (tag, "rs", step, c), work[lo:hi].copy())
        for c, (lo, hi) in enumerate(_chunk_spans(recv_lo, recv_hi, celems)):
            incoming = _recv(hub, ranks[me], left, (tag, "rs", step, c), timeout)
            fn(work[lo:hi], incoming, out=work[lo:hi])
    owned_lo, owned_hi = segments[me]
    # Copy the owned span out so the world-sized scratch is collectable.
    return work[owned_lo:owned_hi].copy()


def all_gather_into_flat(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    shard: np.ndarray | None = None,
    tag: object = "agflat",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
) -> None:
    """Chunked ring allgather of per-rank spans into one flat buffer.

    The inverse of :func:`reduce_scatter_flat`: ``buffer`` (in place) is
    partitioned with :func:`partition_spans` and, after the call, every
    rank holds all ``p`` spans.  Rank ``r`` contributes span ``r`` —
    taken from ``shard`` when given (it must match the span's element
    count), otherwise from the buffer's own span, so callers that keep
    only their shard materialize the full tensor without staging it
    first.

    Cost per rank: (p−1)α + ((p−1)/p)·n·β — phase 2 of the ring
    AllReduce.  Spans larger than ``chunk_bytes`` are pipelined as
    several in-flight chunks; empty spans still exchange one empty chunk
    per step so the message protocol stays aligned.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    flat = buffer.reshape(-1)
    segments = partition_spans(flat.size, world)
    my_lo, my_hi = segments[me]
    if shard is not None:
        contribution = np.asarray(shard).reshape(-1)
        if contribution.size != my_hi - my_lo:
            raise ValueError(
                f"shard has {contribution.size} elements but rank {me}'s "
                f"span of a {flat.size}-element buffer over {world} ranks "
                f"holds {my_hi - my_lo}"
            )
        flat[my_lo:my_hi] = contribution
    if world == 1:
        buffer.reshape(-1)[...] = flat
        return
    celems = _chunk_elems(chunk_bytes, flat.dtype)
    right = ranks[(me + 1) % world]
    left = ranks[(me - 1) % world]
    for step in range(world - 1):
        send_lo, send_hi = segments[(me - step) % world]
        recv_lo, recv_hi = segments[(me - step - 1) % world]
        for c, (lo, hi) in enumerate(_chunk_spans(send_lo, send_hi, celems)):
            hub.send(ranks[me], right, (tag, "ag", step, c), flat[lo:hi].copy())
        for c, (lo, hi) in enumerate(_chunk_spans(recv_lo, recv_hi, celems)):
            incoming = _recv(hub, ranks[me], left, (tag, "ag", step, c), timeout)
            flat[lo:hi] = incoming
    buffer.reshape(-1)[...] = flat


def reduce(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    op: str = "sum",
    tag: object = "reduce",
    timeout: float | None = None,
) -> None:
    """Binomial-tree reduce to group-rank ``root`` (in place at root;
    other ranks' buffers are left with partial sums, as in MPI).

    Cost per rank: ≤ ⌈log₂ p⌉·(α + n·β); each rank sends its running
    partial sum exactly once, reductions are in-place ufunc calls.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    fn = _reduce_fn(op)
    world = len(ranks)
    if world == 1:
        return
    flat = buffer.reshape(-1)
    vrank = (me - root) % world
    mask = 1
    while mask < world:
        if vrank & mask:
            dst = ranks[(vrank - mask + root) % world]
            hub.send(ranks[me], dst, (tag, "red", mask), flat.copy())
            return
        vpartner = vrank + mask
        if vpartner < world:
            src = ranks[(vpartner + root) % world]
            incoming = _recv(hub, ranks[me], src, (tag, "red", mask), timeout)
            fn(flat, incoming, out=flat)
        mask <<= 1


def gather(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    root: int = 0,
    tag: object = "gather",
    timeout: float | None = None,
):
    """Gather every rank's buffer at ``root``; returns (world, n) array
    at the root and ``None`` elsewhere.

    Cost: non-roots pay α + n·β once; the root receives p−1 buffers
    ((p−1)α + (p−1)·n·β), the incast hot spot of the parameter-server
    pattern (§2.3).

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    flat = buffer.reshape(-1)
    if me != root:
        hub.send(ranks[me], ranks[root], (tag, "g", me), flat.copy())
        return None
    out = np.empty((world, flat.size), dtype=flat.dtype)
    out[root] = flat
    for peer in range(world):
        if peer != root:
            out[peer] = _recv(hub, ranks[me], ranks[peer], (tag, "g", peer), timeout)
    return out


def scatter(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    chunks,
    root: int = 0,
    tag: object = "scatter",
    timeout: float | None = None,
) -> np.ndarray:
    """Scatter ``chunks`` (root's list of per-rank arrays) to the group;
    returns this rank's chunk.

    Cost: the root sends p−1 messages ((p−1)·(α + (n/p)·β)); every other
    rank pays one receive.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    if me == root:
        if chunks is None or len(chunks) != world:
            raise ValueError("root must provide one chunk per rank")
        for peer in range(world):
            if peer != root:
                hub.send(ranks[me], ranks[peer], (tag, "s", peer), np.asarray(chunks[peer]).copy())
        return np.asarray(chunks[root])
    return _recv(hub, ranks[me], ranks[root], (tag, "s", me), timeout)


def barrier(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    tag: object = "barrier",
    timeout: float | None = None,
) -> None:
    """Synchronize all ranks (a 1-element tree allreduce).

    Cost per rank: ≈ 2·⌈log₂ p⌉·α (the payload is 8 bytes).

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    token = np.zeros(1, dtype=np.int64)
    allreduce_tree(hub, ranks, me, token, "sum", (tag, "tok"), timeout)


def allreduce_hierarchical(
    hub: TransportHub,
    ranks: Sequence[int],
    me: int,
    buffer: np.ndarray,
    op: str = "sum",
    tag: object = "hier",
    timeout: float | None = None,
    chunk_bytes: int | None = None,
    group_size: int = 8,
) -> None:
    """Two-level AllReduce: intra-group reduce → leader ring → broadcast.

    This is how multi-node NCCL behaves in practice: fast intra-server
    links absorb most of the volume, and only one stream per server
    crosses the slow inter-server network.  Groups are consecutive runs
    of ``group_size`` ranks (matching ``ClusterSpec.placement``); a
    trailing smaller group is fine.

    Cost per rank: ≈ ⌈log₂ g⌉·(α + n·β) intra-group + (for leaders)
    2(ℓ−1)α + 2((ℓ−1)/ℓ)·n·β on the leader ring of ℓ = ⌈p/g⌉ members.

    Thread-safety: safe to run concurrently on every rank thread of the
    group (one call per rank per ``tag``).
    """
    world = len(ranks)
    if world == 1:
        return
    if world <= group_size:
        allreduce_ring(hub, ranks, me, buffer, op, (tag, "flat"), timeout, chunk_bytes)
        return

    group_index = me // group_size
    group_lo = group_index * group_size
    group_members = ranks[group_lo : group_lo + group_size]
    local_me = me - group_lo
    leader_locals = list(range(0, world, group_size))
    leaders = [ranks[i] for i in leader_locals]

    # Phase 1: reduce within the group to its leader (local rank 0).
    reduce(hub, group_members, local_me, buffer, 0, op, (tag, "intra", group_index), timeout)
    # Phase 2: ring AllReduce among the leaders.
    if local_me == 0:
        leader_me = leader_locals.index(group_lo)
        allreduce_ring(hub, leaders, leader_me, buffer, op, (tag, "inter"), timeout, chunk_bytes)
    # Phase 3: broadcast the result within the group.
    broadcast(hub, group_members, local_me, buffer, 0, (tag, "bcast", group_index), timeout, chunk_bytes)


#: Registry the :class:`~repro.comm.process_group.ProcessGroup` backends
#: resolve their default AllReduce algorithm from.
ALLREDUCE_ALGORITHMS = {
    "naive": allreduce_naive,
    "ring": allreduce_ring,
    "tree": allreduce_tree,
    "halving_doubling": allreduce_halving_doubling,
    "hierarchical": allreduce_hierarchical,
}
