"""``ShardedDataParallel``: gradient + optimizer-state sharding (ZeRO-2).

The training loop looks like DDP's, but the wrapper owns the optimizer
(construction must know the shard layout) and the backward communicates
with ``reduce_scatter_flat`` instead of allreduce:

* autograd post-hooks count gradients per bucket, exactly like the
  reducer's readiness protocol;
* when a bucket's last gradient lands, its flat gradient buffer is
  reduce-scattered **asynchronously** behind a bucket-order launch
  frontier (the paper's Fig. 3(a) discipline — every rank must launch
  collectives in the same order);
* :meth:`ShardedDataParallel.step` waits for the spans, hands each rank
  its averaged shard, **frees the full per-parameter gradients** (the
  ZeRO-2 memory property: full gradients exist only transiently between
  backward and step), runs the sharded optimizer, and all-gathers the
  updated parameter spans.

Models whose autograd graph skips parameters are rejected with a named
error at :meth:`step` — sharded mode has no unused-parameter bitmap, so
a never-ready bucket would otherwise hang every rank.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.sharded.flat import FlatShardLayout
from repro.sharded.memory import (
    ShardedStats,
    module_arrays,
    optimizer_state_arrays,
    storage_bytes,
)
from repro.sharded.optimizer import ShardedOptimizer, _resolve_group


class ShardedDataParallel(Module):
    """ZeRO-2 wrapper: each rank keeps only its gradient + state shard.

    Parameters
    ----------
    module:
        The local model; rank 0's parameters and buffers are broadcast
        so replicas start identical, as in DDP.
    optimizer_factory:
        Builds the inner optimizer over this rank's shard tensors, e.g.
        ``lambda ps: Adam(ps, lr=1e-3)``.
    process_group:
        Group for the collectives; defaults to the rank's default group.
    bucket_cap_mb:
        Bucket size knob (reverse-parameter-order assignment, shared
        with the optimizer's span layout).

    Thread-safety: per-rank object; drive it from the rank's thread.
    """

    def __init__(
        self,
        module: Module,
        optimizer_factory: Callable,
        process_group=None,
        bucket_cap_mb: float = 25.0,
    ):
        super().__init__()
        self.module = module
        self.process_group = _resolve_group(process_group)
        self.world = int(self.process_group.size)
        self.rank = self.process_group.group_rank
        self._params = list(module.parameters())
        if not self._params:
            raise ValueError("ShardedDataParallel requires a model with parameters")
        self._param_names = [name for name, _ in module.named_parameters()]

        for param in self._params:
            self.process_group.broadcast(param, src=0)
        for buffer in self.module.buffers():
            self.process_group.broadcast(buffer, src=0)

        self.layout = FlatShardLayout(
            self._params, self.world, bucket_cap_mb=bucket_cap_mb
        )
        self.optimizer = ShardedOptimizer(
            self._params,
            optimizer_factory,
            process_group=self.process_group,
            layout=self.layout,
            gather_after_step=True,
        )
        self.stats = ShardedStats("zero2", self.world)

        # Readiness protocol state (the reducer's, minus unused-param
        # bitmaps): bucket of each param, pending count per bucket.
        self._bucket_of: Dict[int, int] = {}
        for bucket in range(self.layout.num_buckets):
            for index, _, _ in self.layout.bucket_entries(bucket):
                self._bucket_of[index] = bucket
        self._acc_to_index = {}
        self._hook_removers = []
        for index, param in enumerate(self._params):
            acc = param.accumulator()
            self._acc_to_index[id(acc)] = index
            self._hook_removers.append(acc.register_post_hook(self._grad_hook))

        self._reset_iteration()

    # -- iteration bookkeeping ------------------------------------------
    def _reset_iteration(self) -> None:
        self._grad_seen = [False] * len(self._params)
        self._pending = [
            len(self.layout.buckets[b].param_indices)
            for b in range(self.layout.num_buckets)
        ]
        self._bucket_ready = [False] * self.layout.num_buckets
        self._frontier = 0
        self._works: List[Optional[object]] = [None] * self.layout.num_buckets
        self._flats: List[Optional[np.ndarray]] = [None] * self.layout.num_buckets

    def _grad_hook(self, accumulator) -> None:
        index = self._acc_to_index.get(id(accumulator))
        if index is None or self._grad_seen[index]:
            return
        self._grad_seen[index] = True
        bucket = self._bucket_of[index]
        self._pending[bucket] -= 1
        if self._pending[bucket] == 0:
            self._bucket_ready[bucket] = True
            self._advance_frontier()

    def _advance_frontier(self) -> None:
        # Launch ready buckets strictly in bucket-index order so every
        # rank issues the same collective sequence (no cross-rank
        # deadlock even though per-rank backward order may differ).
        while (
            self._frontier < self.layout.num_buckets
            and self._bucket_ready[self._frontier]
        ):
            bucket = self._frontier
            flat = np.empty(
                self.layout.buckets[bucket].total_elements,
                dtype=self.layout.bucket_dtype(bucket),
            )
            self.layout.copy_grads_into(bucket, flat)
            self._flats[bucket] = flat
            self._works[bucket] = self.process_group.reduce_scatter_flat(
                flat, async_op=True
            )
            self.stats.reduce_scatter_count += 1
            self.stats.reduce_scatter_bytes += flat.nbytes
            self._frontier += 1

    # -- module protocol -------------------------------------------------
    def forward(self, *inputs, **kwargs):
        """Run the wrapped module's forward; resets the readiness state
        so the coming backward starts a fresh launch frontier."""
        self._reset_iteration()
        return self.module(*inputs, **kwargs)

    def state_dict(self):
        """The wrapped module's state dict (no ``module.`` prefix)."""
        return self.module.state_dict()

    def load_state_dict(self, state) -> None:
        """Load into the wrapped module and refresh optimizer shards."""
        self.module.load_state_dict(state)
        self.optimizer.refresh_shards_from_params()

    # -- training step ---------------------------------------------------
    def _unready_report(self) -> str:
        names = [
            self._param_names[index]
            for index, seen in enumerate(self._grad_seen)
            if not seen
        ]
        return (
            "ShardedDataParallel: backward produced no gradient for "
            f"{len(names)} parameter(s) {names}; sharded mode requires every "
            "parameter to participate (no unused-parameter support)"
        )

    def step(self) -> None:
        """Wait for the reduce-scatters, free full gradients, run the
        sharded optimizer update, and all-gather new parameters."""
        if self._frontier < self.layout.num_buckets:
            raise RuntimeError(self._unready_report())
        # Peak of the iteration: full gradients + shards + state all live.
        self.stats.observe(self.live_bytes())
        for bucket, work in enumerate(self._works):
            work.wait()
            span = work.result[0]
            span /= self.world
            self.optimizer.set_shard_grad(bucket, span)
            self._flats[bucket] = None
            self._works[bucket] = None
        # The ZeRO-2 property: full per-parameter gradients are dropped
        # before the weight update — only the averaged shard survives.
        for param in self._params:
            param.grad = None
        self.stats.free_count += len(self._params)
        gathers_before = self.optimizer.all_gather_count
        self.optimizer.step()
        gathers = self.optimizer.all_gather_count - gathers_before
        self.stats.gather_count += gathers
        self.stats.all_gather_bytes += sum(
            self.layout.buckets[b].total_elements
            * self.layout.bucket_dtype(b).itemsize
            for b in range(min(gathers, self.layout.num_buckets))
        )
        self.stats.iterations += 1
        self.stats.observe(self.live_bytes())

    def zero_grad(self) -> None:
        """Clear parameter and shard gradients; reset readiness state."""
        self.optimizer.zero_grad()
        self._reset_iteration()

    # -- observability ---------------------------------------------------
    def live_bytes(self) -> int:
        """Measured bytes this rank currently holds for training state:
        module arrays, shard tensors + grads, optimizer state, and any
        in-flight flat communication buffers."""
        arrays = list(module_arrays(self.module))
        for shard in self.optimizer.shards:
            arrays.append(shard.data)
            if shard.grad is not None:
                arrays.append(shard.grad.data)
        arrays.extend(optimizer_state_arrays(self.optimizer.inner))
        arrays.extend(flat for flat in self._flats if flat is not None)
        return storage_bytes(arrays)

    def ddp_stats(self) -> dict:
        """DDP-style stats report with the ``"sharded"`` section the
        observability docs describe (peak bytes, gather/free counters)."""
        return {
            "world_size": self.world,
            "rank": self.rank,
            "num_buckets": self.layout.num_buckets,
            "bucket_sizes_bytes": [
                self.layout.buckets[b].total_elements
                * self.layout.bucket_dtype(b).itemsize
                for b in range(self.layout.num_buckets)
            ],
            "sharded": self.stats.snapshot(),
        }
