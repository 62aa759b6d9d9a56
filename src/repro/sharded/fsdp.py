"""``FullyShardedDataParallel``: parameter sharding (ZeRO-3).

Parameters themselves live sharded: each rank permanently stores only
its flat span of every *unit* (a ``repro.nn`` submodule with directly
registered parameters, one bucket per unit via
:func:`~repro.sharded.flat.unit_bucket_specs`).  The full parameter
arrays exist only while a unit is *materialized*:

* **forward** — each unit's ``forward`` is wrapped (instance-attribute
  override, so ``Module.__call__`` picks it up) to first all-gather the
  unit's flat from the per-rank shards; parameters become zero-copy
  views into the gathered flat;
* **backward** — the autograd tape saw the gathered views, so gradients
  flow normally; when the unit's last parameter gradient lands (the
  engine's dependency counting guarantees gradients are final), the
  unit's flat gradient is reduce-scattered asynchronously behind a
  reverse-unit-order launch frontier, and both the full gradients *and*
  the full parameters are freed immediately — each parameter's ``data``
  becomes a zero-stride broadcast stub (shape/dtype preserved, ~0
  backing bytes);
* **step** — the inner optimizer updates the shard tensors in place; no
  gather happens (``gather_after_step=False``): the next forward lazily
  re-materializes each unit from its updated shard.

Limitations (checked or documented): a parameter registered under two
modules (weight tying) raises ``NotImplementedError``; every parameter
must participate in backward (no unused-parameter bitmap); parameters
must not be mutated outside :meth:`FullyShardedDataParallel.summon_full_params`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.sharded.flat import FlatShardLayout, unit_bucket_specs
from repro.sharded.memory import (
    ShardedStats,
    optimizer_state_arrays,
    storage_bytes,
)
from repro.sharded.optimizer import ShardedOptimizer, _resolve_group


def _stub(shape, dtype) -> np.ndarray:
    """A freed parameter's placeholder: right shape/dtype, ~0 bytes.

    Zero-stride broadcast of a single zero — reads see zeros, writes
    raise, and the memory meter counts only the scalar base.
    """
    return np.broadcast_to(np.zeros(1, dtype=dtype), shape)


class FullyShardedDataParallel(Module):
    """ZeRO-3 wrapper: parameters, gradients, and optimizer state all
    sharded; full per-unit parameters exist only forward-through-backward.

    Parameters
    ----------
    module:
        The local model.  Submodules with direct parameters become the
        gather/free units.
    optimizer_factory:
        Builds the inner optimizer over this rank's shard tensors.
    process_group:
        Group for the collectives; defaults to the rank's default group.

    Thread-safety: per-rank object; drive it from the rank's thread.
    """

    def __init__(
        self,
        module: Module,
        optimizer_factory: Callable,
        process_group=None,
    ):
        super().__init__()
        self.module = module
        self.process_group = _resolve_group(process_group)
        self.world = int(self.process_group.size)
        self.rank = self.process_group.group_rank
        self._params = list(module.parameters())
        if not self._params:
            raise ValueError(
                "FullyShardedDataParallel requires a model with parameters"
            )
        self._param_names = [name for name, _ in module.named_parameters()]
        index_of: Dict[int, int] = {}
        for index, param in enumerate(self._params):
            if id(param) in index_of:
                raise NotImplementedError(
                    "FullyShardedDataParallel does not support shared "
                    f"(tied) parameters: {self._param_names[index]!r} is "
                    "registered more than once"
                )
            index_of[id(param)] = index

        # Units: submodules with direct parameters, in depth-first
        # registration order — the granularity of gather/free.
        self._unit_modules: List[Module] = []
        unit_param_indices: List[List[int]] = []
        for sub in module.modules():
            direct = [p for p in sub._parameters.values() if p is not None]
            if not direct:
                continue
            self._unit_modules.append(sub)
            unit_param_indices.append([index_of[id(p)] for p in direct])
        self._unit_names = [type(m).__name__ for m in self._unit_modules]

        for param in self._params:
            self.process_group.broadcast(param, src=0)
        for buffer in self.module.buffers():
            self.process_group.broadcast(buffer, src=0)

        self.layout = FlatShardLayout(
            self._params,
            self.world,
            specs=unit_bucket_specs(unit_param_indices, self._params),
        )
        # The optimizer's shard tensors ARE the authoritative parameter
        # storage between materializations (gather_after_step=False: the
        # next forward regathers lazily from the updated shards).
        self.optimizer = ShardedOptimizer(
            self._params,
            optimizer_factory,
            process_group=self.process_group,
            layout=self.layout,
            gather_after_step=False,
        )
        self.stats = ShardedStats("zero3", self.world)

        self.num_units = len(self._unit_modules)
        self._materialized = [False] * self.num_units
        self._unit_flats: List[Optional[np.ndarray]] = [None] * self.num_units
        self._unit_of: Dict[int, int] = {}
        for unit in range(self.num_units):
            for index, _, _ in self.layout.bucket_entries(unit):
                self._unit_of[index] = unit

        self._acc_to_index = {}
        self._hook_removers = []
        for index, param in enumerate(self._params):
            acc = param.accumulator()
            self._acc_to_index[id(acc)] = index
            self._hook_removers.append(acc.register_post_hook(self._grad_hook))

        self._wrap_unit_forwards()
        self._reset_iteration()
        # Shards were initialized from the broadcast values; now drop the
        # full parameters — from here on they exist only materialized.
        for unit in range(self.num_units):
            self._free_unit(unit, count=False)

    # -- unit materialization -------------------------------------------
    def _wrap_unit_forwards(self) -> None:
        for unit, sub in enumerate(self._unit_modules):
            original = sub.forward

            def wrapped(*inputs, _unit=unit, _original=original, **kwargs):
                self._materialize(_unit)
                return _original(*inputs, **kwargs)

            # Instance attribute wins over the class method in
            # Module.__call__'s ``self.forward`` lookup.
            sub.forward = wrapped

    def _materialize(self, unit: int) -> None:
        """All-gather one unit's flat from the rank shards; parameters
        become zero-copy views into the gathered buffer.  Synchronous —
        forward executes units in the same order on every rank."""
        if self._materialized[unit]:
            return
        spec = self.layout.buckets[unit]
        flat = np.empty(spec.total_elements, dtype=self.layout.bucket_dtype(unit))
        self.process_group.all_gather_flat(
            flat, shard=self.optimizer.shards[unit].data
        )
        for index, offset, size in self.layout.bucket_entries(unit):
            param = self._params[index]
            param.data = flat[offset : offset + size].reshape(param.data.shape)
        self._unit_flats[unit] = flat
        self._materialized[unit] = True
        self.stats.gather_count += 1
        self.stats.all_gather_bytes += flat.nbytes
        self.stats.observe(self.live_bytes())

    def _free_unit(self, unit: int, count: bool = True) -> None:
        for index, _, _ in self.layout.bucket_entries(unit):
            param = self._params[index]
            param.data = _stub(param.data.shape, param.data.dtype)
            param.grad = None
        self._unit_flats[unit] = None
        self._materialized[unit] = False
        if count:
            self.stats.free_count += 1

    # -- backward protocol ----------------------------------------------
    def _reset_iteration(self) -> None:
        self._grad_seen = [False] * len(self._params)
        self._pending = [
            len(self.layout.buckets[u].param_indices) for u in range(self.num_units)
        ]
        self._unit_ready = [False] * self.num_units
        # Backward reaches the last-registered unit first; launch
        # reduce-scatters in descending unit order so every rank issues
        # the same collective sequence.
        self._frontier = self.num_units - 1
        self._works: List[Optional[object]] = [None] * self.num_units
        self._grad_flats: List[Optional[np.ndarray]] = [None] * self.num_units

    def _grad_hook(self, accumulator) -> None:
        index = self._acc_to_index.get(id(accumulator))
        if index is None or self._grad_seen[index]:
            return
        self._grad_seen[index] = True
        unit = self._unit_of[index]
        self._pending[unit] -= 1
        if self._pending[unit] == 0:
            self._unit_ready[unit] = True
            self._advance_frontier()

    def _advance_frontier(self) -> None:
        while self._frontier >= 0 and self._unit_ready[self._frontier]:
            unit = self._frontier
            flat = np.empty(
                self.layout.buckets[unit].total_elements,
                dtype=self.layout.bucket_dtype(unit),
            )
            self.layout.copy_grads_into(unit, flat)
            self._grad_flats[unit] = flat
            self._works[unit] = self.process_group.reduce_scatter_flat(
                flat, async_op=True
            )
            self.stats.reduce_scatter_count += 1
            self.stats.reduce_scatter_bytes += flat.nbytes
            # The unit's backward is complete (dependency counting made
            # its gradients final), so the full parameters and gradients
            # can be dropped right now — the ZeRO-3 memory shape.
            self._free_unit(unit)
            self._frontier -= 1

    # -- module protocol -------------------------------------------------
    def forward(self, *inputs, **kwargs):
        """Run the wrapped module; units gather themselves on demand."""
        self._reset_iteration()
        return self.module(*inputs, **kwargs)

    def state_dict(self):
        """Full (unsharded) state dict; gathers and re-frees each unit."""
        with self.summon_full_params(writeback=False):
            return self.module.state_dict()

    def load_state_dict(self, state) -> None:
        """Load a full state dict into the sharded storage.

        Local, no gathers: every rank holds the same full arrays, so
        each re-slices its own span of every unit into the shard
        tensors and loads the buffers; parameters stay freed and the
        next forward regathers them from the new shards.
        """
        buffers = dict(self.module.named_buffers())
        missing = (set(self._param_names) | set(buffers)) - set(state)
        unexpected = set(state) - set(self._param_names) - set(buffers)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for unit in range(self.num_units):
            self._free_unit(unit, count=False)
        self.optimizer.refresh_shards_from_params(
            [state[name] for name in self._param_names]
        )
        for name, buf in buffers.items():
            np.copyto(buf.data, np.asarray(state[name]).reshape(buf.data.shape))

    @contextlib.contextmanager
    def summon_full_params(self, writeback: bool = False):
        """Materialize every unit for the duration of the block.

        With ``writeback=True`` the (possibly mutated) full parameters
        are re-sliced into the rank's shard tensors on exit; either way
        the full arrays are freed again.  Collective: every rank must
        enter (the gathers synchronize), and with writeback each rank
        keeps only its own span — cross-rank consistency of the mutation
        is the caller's responsibility.
        """
        for unit in range(self.num_units):
            self._materialize(unit)
        try:
            yield self
        finally:
            if writeback:
                self.optimizer.refresh_shards_from_params()
            for unit in range(self.num_units):
                self._free_unit(unit)

    # -- training step ---------------------------------------------------
    def _unready_report(self) -> str:
        names = [
            self._param_names[index]
            for index, seen in enumerate(self._grad_seen)
            if not seen
        ]
        return (
            "FullyShardedDataParallel: backward produced no gradient for "
            f"{len(names)} parameter(s) {names}; sharded mode requires every "
            "parameter to participate (no unused-parameter support)"
        )

    def step(self) -> None:
        """Wait for the gradient reduce-scatters and update the shards.

        No parameter gather happens here — the next forward lazily
        re-materializes each unit from its updated shard."""
        if self._frontier >= 0:
            raise RuntimeError(self._unready_report())
        self.stats.observe(self.live_bytes())
        for unit in reversed(range(self.num_units)):
            work = self._works[unit]
            work.wait()
            span = work.result[0]
            span /= self.world
            self.optimizer.set_shard_grad(unit, span)
            self._grad_flats[unit] = None
            self._works[unit] = None
        self.optimizer.step(gather=False)
        self.stats.iterations += 1
        self.stats.observe(self.live_bytes())

    def zero_grad(self) -> None:
        """Clear shard gradients and reset the readiness state."""
        self.optimizer.zero_grad()
        self._reset_iteration()

    # -- observability ---------------------------------------------------
    def live_bytes(self) -> int:
        """Measured bytes this rank currently holds: materialized unit
        flats, parameter stubs/views, gradients, shards, optimizer
        state, and in-flight communication buffers."""
        arrays: List[Optional[np.ndarray]] = []
        for param in self._params:
            arrays.append(param.data)
            if param.grad is not None:
                arrays.append(param.grad.data)
        for buffer in self.module.buffers():
            data = getattr(buffer, "data", None)
            if isinstance(data, np.ndarray):
                arrays.append(data)
        arrays.extend(flat for flat in self._unit_flats if flat is not None)
        arrays.extend(flat for flat in self._grad_flats if flat is not None)
        for shard in self.optimizer.shards:
            arrays.append(shard.data)
            if shard.grad is not None:
                arrays.append(shard.grad.data)
        arrays.extend(optimizer_state_arrays(self.optimizer.inner))
        return storage_bytes(arrays)

    def ddp_stats(self) -> dict:
        """DDP-style stats report with the ``"sharded"`` section (peak
        bytes per rank, gather/free counters; see docs/observability.md)."""
        return {
            "world_size": self.world,
            "rank": self.rank,
            "num_buckets": self.layout.num_buckets,
            "units": list(self._unit_names),
            "bucket_sizes_bytes": [
                self.layout.buckets[b].total_elements
                * self.layout.bucket_dtype(b).itemsize
                for b in range(self.layout.num_buckets)
            ],
            "sharded": self.stats.snapshot(),
        }
