"""The benchmark's workloads: model, generated data, and wrapper.

Every workload is data-parallel training of a fixed per-rank batch
with Adam.  Inputs (token ids or features, and labels) are generated
from the workload seed; the program only ever receives those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro import nn, optim
from repro.autograd import Tensor
from repro.core import DistributedDataParallel
from repro.data import DataLoader, DistributedSampler, TensorDataset
from repro.models import MLP, TinyTransformer
from repro.sharded import FullyShardedDataParallel
from repro.utils import manual_seed

LR = 1e-3
#: Samples generated per workload; the loader cycles epochs over them.
DATASET_SIZE = 1024


def _transformer() -> TinyTransformer:
    return TinyTransformer(
        vocab_size=256, max_seq_len=16, hidden=128, num_heads=4,
        num_layers=4, ffn_dim=512, num_classes=4,
    )


def _transformer_data(rng: np.random.Generator):
    tokens = rng.integers(0, 256, size=(DATASET_SIZE, 16), dtype=np.int64)
    labels = rng.integers(0, 4, size=DATASET_SIZE, dtype=np.int64)
    return tokens, labels


def _deep_mlp() -> MLP:
    return MLP(64, [64] * 24, 10)


def _mlp_data(rng: np.random.Generator):
    features = rng.standard_normal((DATASET_SIZE, 64))
    labels = rng.integers(0, 10, size=DATASET_SIZE, dtype=np.int64)
    return features, labels


@dataclass(frozen=True)
class Workload:
    name: str
    build_model: Callable[[], nn.Module]
    make_data: Callable[[np.random.Generator], tuple]
    batch: int
    #: "ddp" (DistributedDataParallel + Adam) or "fsdp" (ZeRO-3 owning Adam).
    wrapper: str
    bucket_cap_mb: float = 25.0
    #: Async ``save_sharded`` every this many steps (0 = no checkpointing).
    ckpt_every: int = 0

    def data(self, seed: int):
        return self.make_data(np.random.default_rng(seed))

    def loader(self, arrays, world: int, rank: int, seed: int) -> DataLoader:
        dataset = TensorDataset(*arrays)
        sampler = DistributedSampler(dataset, num_replicas=world, rank=rank, seed=seed)
        return DataLoader(dataset, batch_size=self.batch, sampler=sampler, drop_last=True)

    def wrap(self, model: nn.Module):
        """Returns ``(wrapper, optimizer)``; FSDP is its own optimizer."""
        if self.wrapper == "fsdp":
            fsdp = FullyShardedDataParallel(model, lambda shards: optim.Adam(shards, lr=LR))
            return fsdp, fsdp
        ddp = DistributedDataParallel(model, bucket_cap_mb=self.bucket_cap_mb)
        return ddp, optim.Adam(ddp.parameters(), lr=LR)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Compute-bound: 0.83M float64 params in 4 buckets of <= 2 MB.
        Workload("ddp_transformer", _transformer, _transformer_data, batch=32,
                 wrapper="ddp", bucket_cap_mb=2.0),
        # Collective-fixed-cost-bound: 50 gradients, one AllReduce each.
        # Not gated in BENCHMARK.json: its absolute step time follows the
        # host's thread wake-up latency (step_ms_p50 IQR/median 0.25 over
        # ten seeds on a 2-vCPU VM), wider than any bound; run it by name.
        Workload("ddp_mlp_per_param", _deep_mlp, _mlp_data, batch=8,
                 wrapper="ddp", bucket_cap_mb=0.0),
        # ZeRO-3 flat all-gather / reduce-scatter plus a checkpoint writer.
        Workload("zero3_transformer_ckpt", _transformer, _transformer_data, batch=32,
                 wrapper="fsdp", ckpt_every=5),
    )
}


def loss_fn():
    return nn.CrossEntropyLoss()


def reference_step(workload: Workload, seed: int, arrays, world: int) -> list:
    """One plain single-process Adam step on the concatenation of every
    rank's first batch — what DDP/ZeRO-3 step 1 must reproduce."""
    batches = [next(iter(workload.loader(arrays, world, r, seed))) for r in range(world)]
    inputs, labels = zip(*batches)
    if isinstance(inputs[0], Tensor):
        x = Tensor(np.concatenate([t.data for t in inputs]))
    else:
        x = np.concatenate(inputs)
    y = np.concatenate(labels)
    manual_seed(seed)
    model = workload.build_model()
    opt = optim.Adam(model.parameters(), lr=LR)
    loss_fn()(model(x), y).backward()
    opt.step()
    return [p.data.copy() for p in model.parameters()]


def unit_sizes(module: nn.Module) -> list:
    """Element count of every submodule with direct parameters — the
    units FSDP gathers and scatters one at a time."""
    sizes: Dict[str, int] = {}
    for name, param in module.named_parameters():
        owner = name.rpartition(".")[0]
        sizes[owner] = sizes.get(owner, 0) + int(np.prod(param.shape))
    return list(sizes.values())
