"""Sharded checkpoints: per-rank shard containers for the one payload.

A ``repro.sharded`` wrapper checkpoints through
:meth:`~repro.checkpoint.engine.CheckpointEngine.save_sharded`: each
rank persists only its own spans (:func:`shard_payload`), with no
collectives at save time.  That sharded commit is a second *container*
for the training payload of :mod:`repro.checkpoint.payload`, not a
second format — :func:`payload_from_shards` decodes it back into the
same positional ``state/ opt/ meta/ extra/`` mapping a full commit
holds, using the bucket entries every manifest carries.  One install
routine then restores either container into any target.

:func:`reshard_state_dict` is the primitive behind the sharded targets:
it maps a positional (full-array) optimizer state dict onto any
:class:`~repro.sharded.flat.FlatShardLayout` and rank, returning
exactly the per-bucket span state that rank's inner optimizer should
hold.  Because the decoded payload has no span structure left in it,
shrink 4→2, grow 2→4, ZeRO→plain and ZeRO-2→ZeRO-3 are all the same
operation: re-slice full arrays along the target's span table —
bitwise, since every optimizer here is elementwise.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

import numpy as np

from repro.checkpoint.format import ChecksumError

#: Manifest meta per shard layout; constant for a layout's lifetime.
_LAYOUT_META: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


# -- cross-world resharding ------------------------------------------------
def reshard_state_dict(state_dict: Dict, layout, rank: int) -> List[Dict]:
    """Reshard a positional optimizer state dict onto a target layout.

    ``state_dict`` has :meth:`~repro.optim.optimizer.Optimizer
    .state_dict`'s shape (``{"state": {param_index: {key: full array |
    scalar}}, "num_params": N}``) — what a plain optimizer or
    :meth:`~repro.sharded.optimizer.ShardedOptimizer.state_dict`
    returns, at *any* world size; ``layout`` is the
    target :class:`~repro.sharded.flat.FlatShardLayout` and ``rank`` the
    target rank.  Returns one dict per bucket mapping each state key to
    the rank's span of the bucket's flat order (scalars pass through) —
    exactly what the inner optimizer should hold for that bucket's shard
    tensor.  Buckets whose parameters carry no state get ``{}``.

    Purely local and world-agnostic: the positional dict has no span
    structure left in it, so shrink 4→2 and grow 2→4 both reduce to
    "re-slice the full arrays along the new span table".
    """
    num_params = state_dict.get("num_params")
    if num_params is not None and int(num_params) != len(layout.params):
        raise ValueError(
            f"positional optimizer state covers {int(num_params)} "
            f"parameters but the target layout has {len(layout.params)}"
        )
    state = state_dict.get("state", {})
    for index in state:
        if not 0 <= int(index) < len(layout.params):
            raise ValueError(
                f"optimizer state refers to parameter {index} but only "
                f"{len(layout.params)} parameters are registered"
            )

    def per_param(index: int) -> Dict:
        return state.get(index, state.get(str(index), {}))

    resharded: List[Dict] = []
    for bucket in range(layout.num_buckets):
        keys = set()
        bucket_param_indices = [
            index for index, _, _ in layout.bucket_entries(bucket)
        ]
        for index in bucket_param_indices:
            keys.update(per_param(index).keys())
        shard_state: Dict = {}
        lo, hi = layout.span(bucket, rank)
        for key in sorted(keys):
            sample = None
            for index in bucket_param_indices:
                if key in per_param(index):
                    sample = per_param(index)[key]
                    break
            value = np.asarray(sample)
            if value.ndim == 0:
                shard_state[key] = value.item()
                continue
            flat = np.zeros(
                layout.buckets[bucket].total_elements,
                dtype=layout.bucket_dtype(bucket),
            )
            for index, offset, size in layout.bucket_entries(bucket):
                per = per_param(index)
                if key in per:
                    entry = np.asarray(per[key]).reshape(-1)
                    if entry.size != size:
                        raise ValueError(
                            f"state '{key}' for parameter {index} has "
                            f"{entry.size} elements, expected {size}"
                        )
                    flat[offset : offset + size] = entry
            shard_state[key] = flat[lo:hi].copy()
        resharded.append(shard_state)
    return resharded


# -- per-rank shard containers (checkpoint-engine path) --------------------
def _layout_meta(model) -> Dict:
    """The manifest meta of ``model``'s shard layout, computed once per
    layout: stage, parameter count, bucket totals, this rank's spans,
    and each bucket's parameter entries ``[index, state name, flat
    offset, shape]`` — what :func:`payload_from_shards` needs to cut
    reassembled flats back into named, positional arrays."""
    optimizer = model.optimizer
    layout = optimizer.layout
    meta = _LAYOUT_META.get(layout)
    if meta is None:
        names = [name for name, _ in model.module.named_parameters()]
        meta = {
            "stage": model.stats.stage,
            "num_params": len(optimizer.params),
            "bucket_totals": [int(b.total_elements) for b in layout.buckets],
            "span": [
                [int(lo), int(hi)]
                for lo, hi in (
                    layout.span(b, optimizer.rank)
                    for b in range(layout.num_buckets)
                )
            ],
            "entries": [
                [
                    [int(index), names[index], int(offset),
                     [int(d) for d in layout.params[index].data.shape]]
                    for index, offset, _ in layout.bucket_entries(b)
                ]
                for b in range(layout.num_buckets)
            ],
        }
        _LAYOUT_META[layout] = meta
    return meta


def shard_payload(model, include_buffers: bool = False) -> Tuple[Dict, Dict]:
    """One rank's checkpoint shard of a sharded wrapper, no collectives.

    Returns ``(arrays, meta)``: arrays hold this rank's parameter span
    per bucket (``param/b{b}`` — the shard tensors, which are the
    authoritative span storage in every ZeRO stage) and its optimizer
    state spans (``opt/b{b}/{key}``, scalars as 0-d arrays); with
    ``include_buffers`` (rank 0) the module's buffers ride along under
    their payload keys ``state/{name}``.  ``meta`` is the layout's
    cached manifest meta (:func:`_layout_meta`).
    """
    optimizer = model.optimizer
    arrays: Dict[str, np.ndarray] = {}
    for bucket, shard in enumerate(optimizer.shards):
        arrays[f"param/b{bucket}"] = np.array(shard.data, copy=True)
        state = optimizer.inner.state.get(id(shard)) or {}
        for key in sorted(state):
            arrays[f"opt/b{bucket}/{key}"] = np.array(state[key], copy=True)
    if include_buffers:
        for name, buf in model.module.named_buffers():
            arrays[f"state/{name}"] = np.array(buf.data, copy=True)
    return arrays, _layout_meta(model)


def _assemble(shards, key: str, bucket: int, total: int):
    """Reassemble one bucket-flat array from every saved rank's span of
    ``key``; a 0-d value (scalar optimizer state, identical on every
    rank) is returned as is, and ``None`` if no rank holds ``key``."""
    pieces = {
        rank: np.asarray(arrays[key])
        for rank, (arrays, _) in shards.items()
        if key in arrays
    }
    if not pieces:
        return None
    sample = next(iter(pieces.values()))
    if sample.ndim == 0:
        return sample
    flat = np.zeros(total, dtype=sample.dtype)
    for rank, piece in pieces.items():
        lo, hi = shards[rank][1].meta["span"][bucket]
        if piece.size != hi - lo:
            raise ChecksumError(
                f"saved rank {rank} '{key}' holds {piece.size} elements, "
                f"expected {hi - lo}"
            )
        flat[lo:hi] = piece.reshape(-1)
    return flat


def payload_from_shards(shards: Dict[int, Tuple[Dict, object]]) -> Dict[str, np.ndarray]:
    """Decode a sharded commit into the positional training payload.

    ``shards`` maps every saved rank to its ``(arrays, manifest)`` pair
    (:func:`shard_payload` output plus the manifest carrying its meta).
    Each bucket's flats are reassembled from the ranks' recorded spans
    and cut back along the manifest's entries: parameters become
    ``state/{name}``, optimizer state ``opt/{index}/{key}`` (scalar
    state repeated per parameter, as a replicated optimizer keys it).
    Rank 0's file supplies buffers and ``extra/`` keys, its manifest
    the iteration.
    Purely local; the result is what a full commit of the same training
    state would hold.
    """
    arrays0, manifest0 = shards[0]
    meta = manifest0.meta
    payload = {
        key: value
        for key, value in arrays0.items()
        if key.startswith(("state/", "extra/"))
    }
    payload["meta/iteration"] = np.asarray(int(manifest0.iteration))
    payload["meta/opt_num_params"] = np.asarray(int(meta["num_params"]))
    for bucket, (total, entries) in enumerate(
        zip(meta["bucket_totals"], meta["entries"])
    ):
        prefix = f"opt/b{bucket}/"
        opt_keys = sorted({
            key[len(prefix):]
            for arrays, _ in shards.values()
            for key in arrays
            if key.startswith(prefix)
        })
        params = _assemble(shards, f"param/b{bucket}", bucket, total)
        state = {key: _assemble(shards, prefix + key, bucket, total) for key in opt_keys}
        for index, name, offset, shape in entries:
            size = int(np.prod(shape, dtype=np.int64))
            payload[f"state/{name}"] = params[offset : offset + size].reshape(shape)
            for key, value in state.items():
                payload[f"opt/{index}/{key}"] = (
                    value if value.ndim == 0
                    else value[offset : offset + size].reshape(shape)
                )
    return payload
