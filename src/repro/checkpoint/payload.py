"""The training payload: the one codec every checkpoint container holds.

In data parallel training, replicas are identical by construction, so
one copy of the training state is the whole checkpoint.  That copy is a
flat array mapping:

* ``state/{name}`` — the model's ``state_dict()`` (parameters, buffers);
* ``opt/{index}/{key}`` — positional optimizer state, exactly as
  :meth:`~repro.optim.optimizer.Optimizer.state_dict` keys it;
* ``meta/iteration`` and ``meta/opt_num_params`` (the positional guard);
* ``extra/{key}`` — caller metadata.

A model-only payload (``optimizer=None``) is simply the subset without
``opt/``.  Two containers hold it: a single verified file
(:func:`save_training_checkpoint`, atomic and CRC-trailed by
:mod:`repro.checkpoint.format`) and a
:class:`~repro.checkpoint.engine.CheckpointEngine` commit — either a
full commit carrying the mapping verbatim, or a sharded commit whose
per-rank spans decode back into it
(:func:`~repro.sharded.checkpoint.payload_from_shards`).
:func:`install_training_payload` then restores it into any target: a
plain or DDP module with its optimizer, or a ``repro.sharded`` wrapper
with its :class:`~repro.sharded.optimizer.ShardedOptimizer`, at any
world size.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.checkpoint.format import load_verified_npz, npz_bytes, write_verified


def training_payload(
    module, optimizer=None, iteration: int = 0, extra: Dict | None = None,
    copy: bool = False,
) -> Dict[str, np.ndarray]:
    """Build the flat ``state/ opt/ meta/ extra/`` array mapping of a
    training checkpoint.  ``copy=True`` detaches every array from live
    training state (the checkpoint engine's snapshot step)."""
    payload = {
        f"state/{name}": (np.array(value, copy=True) if copy else value)
        for name, value in module.state_dict().items()
    }
    if optimizer is not None:
        opt_dict = optimizer.state_dict()
        for index, per_param in opt_dict["state"].items():
            for key, value in per_param.items():
                payload[f"opt/{index}/{key}"] = (
                    np.array(value, copy=True) if copy else np.asarray(value)
                )
        if "num_params" in opt_dict:
            # Guards positional restore: loading into an optimizer with
            # a different parameter count fails loudly, not misaligned.
            payload["meta/opt_num_params"] = np.asarray(int(opt_dict["num_params"]))
    payload["meta/iteration"] = np.asarray(int(iteration))
    for key, value in (extra or {}).items():
        payload[f"extra/{key}"] = np.asarray(value)
    return payload


def save_training_checkpoint(
    path: str,
    module,
    optimizer=None,
    iteration: int = 0,
    extra: Dict | None = None,
) -> None:
    """Atomically write model (+ optimizer) state and iteration counter.

    The optimizer's per-parameter state (momentum buffers, Adam
    moments) is flattened as ``opt/{index}/{key}`` arrays; restoring it
    is what keeps a resumed run on the same optimization trajectory.
    With a :class:`~repro.sharded.optimizer.ShardedOptimizer` the
    ``state_dict()`` calls are collective, so every rank must call this.
    """
    payload = training_payload(module, optimizer, iteration, extra)
    write_verified(path, npz_bytes(payload))


def parse_training_payload(
    data: Dict[str, np.ndarray],
) -> Tuple[Dict, Dict[int, Dict], int, Optional[int], Dict]:
    """Split a flat checkpoint array mapping into its sections:
    ``(model_state, opt_state_by_index, iteration, opt_num_params, extra)``."""
    state: Dict = {}
    opt_state: Dict[int, Dict] = {}
    extra: Dict = {}
    iteration = 0
    opt_num_params = None
    for key, value in data.items():
        if key.startswith("state/"):
            state[key[len("state/"):]] = value
        elif key.startswith("opt/"):
            _, index, name = key.split("/", 2)
            opt_state.setdefault(int(index), {})[name] = value
        elif key == "meta/iteration":
            iteration = int(value)
        elif key == "meta/opt_num_params":
            opt_num_params = int(value)
        elif key.startswith("extra/"):
            extra[key[len("extra/"):]] = value
    return state, opt_state, iteration, opt_num_params, extra


def install_training_payload(
    data: Dict[str, np.ndarray], module, optimizer=None
) -> Dict:
    """Install a training payload into ``module``/``optimizer``; returns
    ``{"iteration": int, "extra": dict}``.

    The one restore routine behind :func:`load_training_checkpoint` and
    :meth:`~repro.checkpoint.engine.CheckpointEngine.load_latest`.  It
    is local (no collectives) for every target: ``module`` is a plain
    or DDP module or a ``repro.sharded`` wrapper (whose
    ``load_state_dict`` re-slices the full arrays into its own spans),
    and ``optimizer`` any optimizer with the positional
    ``load_state_dict`` — :class:`~repro.sharded.optimizer
    .ShardedOptimizer` reshards it onto its layout and world.
    """
    state, opt_state, iteration, opt_num_params, extra = parse_training_payload(data)
    module.load_state_dict(state)
    if optimizer is not None:
        opt_dict: Dict = {"state": opt_state}
        if opt_num_params is not None:
            opt_dict["num_params"] = opt_num_params
        optimizer.load_state_dict(opt_dict)
    return {"iteration": iteration, "extra": extra}


def load_training_checkpoint(path: str, module, optimizer=None) -> Dict:
    """Restore a :func:`save_training_checkpoint` file.

    Loads model state into ``module`` and (when given) optimizer state
    into ``optimizer``; returns ``{"iteration": int, "extra": dict}``.
    A partially written or corrupted file raises
    :class:`~repro.checkpoint.format.ChecksumError` before any state is
    touched.
    """
    return install_training_payload(load_verified_npz(path), module, optimizer)
