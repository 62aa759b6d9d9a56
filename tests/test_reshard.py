"""Cross-world resharding: checkpoints written at world A load at world B.

Every checkpoint holds one positional training payload, whatever wrote
it: a full engine commit carries it verbatim and a sharded commit
decodes back into it.  Restoring is then "re-slice full arrays along
the target's span table" — for any world, any ZeRO stage, or a plain
module — bitwise, because every optimizer here is elementwise.  The
portability matrix at the bottom checks every source × target pair.
"""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.checkpoint import CheckpointEngine
from repro.comm import run_distributed
from repro.core import DistributedDataParallel
from repro.optim import SGD, Adam
from repro.sharded import (
    FullyShardedDataParallel,
    ShardedDataParallel,
    ShardedOptimizer,
    reshard_state_dict,
)

from conftest import (
    buffered_classifier,
    commit_sharded,
    restore_latest,
    small_classifier,
)

SMALL_BUCKETS = {"bucket_cap_mb": 0.0001}

_rng = np.random.default_rng(0)
X = _rng.standard_normal((24, 6))
Y = _rng.integers(0, 4, 24)
_loss_fn = nn.CrossEntropyLoss()


def _train_zero1(rank, world, iters=4):
    model = small_classifier()
    opt = ShardedOptimizer(
        model.parameters(), lambda ps: Adam(ps, lr=0.01), **SMALL_BUCKETS
    )
    per = len(X) // world
    shard = slice(rank * per, (rank + 1) * per)
    for _ in range(iters):
        opt.zero_grad()
        loss = _loss_fn(model(Tensor(X[shard])), Y[shard])
        loss.backward()
        # ZeRO-1 over a plain module: average grads by hand.
        from repro.comm.distributed import get_context

        group = get_context().default_group
        for p in model.parameters():
            if p.grad is not None:
                group.allreduce(p.grad.data)
                p.grad.data /= world
        opt.set_grads_from_params()
        opt.step()
    return model, opt


def _assert_state_dicts_equal(a, b):
    assert a["num_params"] == b["num_params"]
    assert sorted(a["state"]) == sorted(b["state"])
    for index in a["state"]:
        assert sorted(a["state"][index]) == sorted(b["state"][index])
        for key in a["state"][index]:
            va, vb = a["state"][index][key], b["state"][index][key]
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), (index, key)
            else:
                assert va == vb, (index, key)


class TestZero1Resharding:
    @pytest.mark.parametrize("saved_world,new_world", [(4, 2), (2, 4), (4, 3)])
    def test_consolidated_round_trips_across_worlds(
        self, saved_world, new_world
    ):
        def save_body(rank):
            _, opt = _train_zero1(rank, saved_world)
            return opt.state_dict()

        saved = run_distributed(saved_world, save_body, backend="gloo")[0]

        def load_body(rank):
            model = small_classifier()
            opt = ShardedOptimizer(
                model.parameters(), lambda ps: Adam(ps, lr=0.01),
                **SMALL_BUCKETS,
            )
            opt.load_state_dict(saved)
            return opt.state_dict()

        for state in run_distributed(new_world, load_body, backend="gloo"):
            _assert_state_dicts_equal(saved, state)

    def test_reshard_state_dict_validates_num_params(self):
        def body(rank):
            model = small_classifier()
            opt = ShardedOptimizer(
                model.parameters(), lambda ps: SGD(ps, lr=0.05),
                **SMALL_BUCKETS,
            )
            bad = {"state": {}, "num_params": 99}
            with pytest.raises(ValueError, match="99 parameters"):
                reshard_state_dict(bad, opt.layout, opt.rank)
            return True

        assert run_distributed(2, body, backend="gloo") == [True, True]


def _train_wrapped(wrap, rank, world, iters=4):
    model = wrap()
    per = len(X) // world
    shard = slice(rank * per, (rank + 1) * per)
    for _ in range(iters):
        model.zero_grad()
        _loss_fn(model(Tensor(X[shard])), Y[shard]).backward()
        model.step()
    return model


def _zero2_wrap():
    return ShardedDataParallel(
        small_classifier(), lambda ps: SGD(ps, lr=0.05), **SMALL_BUCKETS
    )


def _zero3_wrap():
    return FullyShardedDataParallel(
        small_classifier(), lambda ps: Adam(ps, lr=0.01)
    )


class TestWrapperResharding:
    @pytest.mark.parametrize("wrap", [_zero2_wrap, _zero3_wrap],
                             ids=["zero2", "zero3"])
    @pytest.mark.parametrize("saved_world,new_world", [(4, 2), (2, 4), (4, 3)])
    def test_training_state_crosses_worlds_bitwise(
        self, tmp_path, wrap, saved_world, new_world
    ):
        root = str(tmp_path)

        def save_body(rank):
            model = _train_wrapped(wrap, rank, saved_world)
            commit_sharded(root, rank, saved_world, model, iteration=4)
            state = model.state_dict()  # collective for FSDP
            opt_state = model.optimizer.state_dict()
            return state, opt_state

        ref_state, ref_opt = run_distributed(
            saved_world, save_body, backend="gloo"
        )[0]

        def load_body(rank):
            model = wrap()
            info = restore_latest(root, model, model.optimizer, rank, new_world)
            assert info["iteration"] == 4
            state = model.state_dict()
            opt_state = model.optimizer.state_dict()
            return state, opt_state

        for state, opt_state in run_distributed(
            new_world, load_body, backend="gloo"
        ):
            for key, value in ref_state.items():
                assert np.array_equal(value, state[key]), key
            _assert_state_dicts_equal(ref_opt, opt_state)

    @pytest.mark.parametrize("wrap", [_zero2_wrap, _zero3_wrap],
                             ids=["zero2", "zero3"])
    def test_continued_training_matches_native_world(self, tmp_path, wrap):
        """Restore 4 -> 2, train on: losses equal a world-2 run restored
        from the same checkpoint at its native world (the carrier adds
        nothing — only the world schedule matters)."""
        root = str(tmp_path)

        def save_body(rank):
            model = _train_wrapped(wrap, rank, 4, iters=3)
            commit_sharded(root, rank, 4, model, iteration=3)
            return True

        run_distributed(4, save_body, backend="gloo")

        def continue_body(rank):
            model = wrap()
            restore_latest(root, model, model.optimizer, rank, 2)
            losses = []
            per = len(X) // 2
            shard = slice(rank * per, (rank + 1) * per)
            for _ in range(3):
                model.zero_grad()
                loss = _loss_fn(model(Tensor(X[shard])), Y[shard])
                loss.backward()
                model.step()
                losses.append(float(loss.data))
            return losses

        first = run_distributed(2, continue_body, backend="gloo")
        second = run_distributed(2, continue_body, backend="gloo")
        assert first == second  # restore is deterministic, bitwise


# -- portability matrix ------------------------------------------------------
# BatchNorm buffers ride along, so the matrix also covers buffer restore.
def _full_source():
    model = buffered_classifier()
    return DistributedDataParallel(model), Adam(model.parameters(), lr=0.01)


def _plain_target():
    model = buffered_classifier(seed=123)  # deliberately different init
    return model, Adam(model.parameters(), lr=0.01)


def _zero1_target():
    model = DistributedDataParallel(buffered_classifier(seed=123))
    optimizer = ShardedOptimizer(
        model.parameters(), lambda ps: Adam(ps, lr=0.01), **SMALL_BUCKETS
    )
    return model, optimizer


def _zero2():
    model = ShardedDataParallel(
        buffered_classifier(), lambda ps: Adam(ps, lr=0.01), **SMALL_BUCKETS
    )
    return model, model.optimizer


def _zero3():
    model = FullyShardedDataParallel(
        buffered_classifier(), lambda ps: Adam(ps, lr=0.01)
    )
    return model, model.optimizer


SOURCES = {"full": _full_source, "zero2": _zero2, "zero3": _zero3}
TARGETS = {
    "plain": _plain_target,
    "zero1": _zero1_target,
    "zero2": _zero2,
    "zero3": _zero3,
}


@pytest.fixture(scope="module")
def engine_commits(tmp_path_factory):
    """Engine commits by (source, world), trained and saved once each:
    ``root, reference state_dict, reference optimizer state_dict``."""
    cache = {}

    def get(source, world):
        if (source, world) not in cache:
            root = str(tmp_path_factory.mktemp(f"{source}-w{world}"))

            def save_body(rank):
                model, optimizer = SOURCES[source]()
                per = len(X) // world
                shard = slice(rank * per, (rank + 1) * per)
                for _ in range(3):
                    optimizer.zero_grad()
                    _loss_fn(model(Tensor(X[shard])), Y[shard]).backward()
                    (optimizer if source == "full" else model).step()
                if source == "full":
                    engine = CheckpointEngine(root, rank=rank, world=world,
                                              async_write=False)
                    engine.save_full(model.module, optimizer, iteration=3)
                    engine.close()
                else:
                    commit_sharded(root, rank, world, model, iteration=3)
                return model.state_dict(), optimizer.state_dict()

            cache[(source, world)] = (
                root, *run_distributed(world, save_body, backend="gloo")[0]
            )
        return cache[(source, world)]

    return get


class TestPortabilityMatrix:
    """Any engine commit restores into any target at any world size."""

    @pytest.mark.parametrize("saved_world,new_world", [(4, 2), (2, 4)])
    @pytest.mark.parametrize("target", sorted(TARGETS))
    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_commit_restores_bitwise(
        self, engine_commits, source, target, saved_world, new_world
    ):
        root, ref_state, ref_opt = engine_commits(source, saved_world)

        def load_body(rank):
            model, optimizer = TARGETS[target]()
            gathers = getattr(getattr(model, "stats", None), "gather_count", 0)
            info = restore_latest(root, model, optimizer, rank, new_world)
            # Restores are local: a ZeRO-3 target regathers nothing.
            assert getattr(getattr(model, "stats", None), "gather_count", 0) == gathers
            assert info["iteration"] == 3
            assert info["saved_world_size"] == saved_world
            if getattr(optimizer, "gather_after_step", False):
                # ZeRO-1/2 shard tensors must hold the restored values:
                # regathering them rebuilds the same parameters.
                optimizer.gather_params()
            return model.state_dict(), optimizer.state_dict()

        for state, opt_state in run_distributed(
            new_world, load_body, backend="gloo"
        ):
            assert sorted(state) == sorted(ref_state)
            for key, value in ref_state.items():
                assert np.array_equal(value, state[key]), key
            _assert_state_dicts_equal(ref_opt, opt_state)

    @pytest.mark.parametrize("target", ["plain", "zero1"])
    def test_mismatched_parameter_count_raises(self, engine_commits, target):
        """Positional restore into an optimizer over a different
        parameter list refuses instead of misaligning state."""
        root, _, _ = engine_commits("zero2", 2)

        def load_body(rank):
            model = buffered_classifier(seed=11)
            half = list(model.parameters())[:2]
            if target == "plain":
                optimizer = Adam(half, lr=0.01)
            else:
                optimizer = ShardedOptimizer(half, lambda ps: Adam(ps, lr=0.01))
            with pytest.raises(ValueError, match="parameter"):
                restore_latest(root, model, optimizer, rank, 2)
            return True

        assert run_distributed(2, load_body, backend="gloo") == [True, True]
