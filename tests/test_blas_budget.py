"""The BLAS thread budget: launches size OpenBLAS's process-wide pool to
cores ÷ live rank threads and restore it when the last rank leaves."""

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.comm import blas
from repro.optim import SGD
from repro.resilience import ElasticConfig, run_elastic

from conftest import run_world, small_classifier

#: Upper bound on every join and wait in this file.
JOIN_S = 20.0
CORES = blas._cores()
ORIGINAL = blas.pool_threads()

managed = pytest.mark.skipif(
    ORIGINAL is None,
    reason="no OpenBLAS found, or OPENBLAS_NUM_THREADS/OMP_NUM_THREADS set",
)
multi_core = pytest.mark.skipif(
    CORES < 2, reason="on one core every budget equals the one-thread pool"
)


def rule(live):
    return max(1, min(ORIGINAL, CORES // live))


def in_thread(fn, *args):
    """Start ``fn(*args)`` on a thread; returns it and its outcome list."""
    outcome = []

    def target():
        try:
            outcome.append(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - re-raised by finish
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def finish(thread, outcome):
    thread.join(timeout=JOIN_S)
    assert not thread.is_alive(), "launch did not finish"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def assert_restored():
    assert blas.live_ranks() == 0
    assert blas.pool_threads() == ORIGINAL


@managed
@multi_core
class TestBudget:
    def test_world2_reads_rule_then_original(self):
        reads = run_world(2, lambda: (blas.pool_threads(), blas.live_ranks()))
        assert reads == [(rule(2), 2)] * 2
        assert_restored()

    def test_overlapping_launches_share_one_budget(self):
        """Perfbench's shape: a world-2 and a world-1 launch at once."""
        both_in = threading.Barrier(3, timeout=JOIN_S)
        all_read = threading.Barrier(3, timeout=JOIN_S)
        world1_done = threading.Event()

        def world2():
            both_in.wait()
            together = blas.pool_threads()
            all_read.wait()
            assert world1_done.wait(JOIN_S)
            return together, blas.pool_threads()

        def world1():
            both_in.wait()
            together = blas.pool_threads()
            all_read.wait()
            return together

        def launch_world1():
            result = run_world(1, world1)
            world1_done.set()
            return result

        w2 = in_thread(run_world, 2, world2)
        w1 = in_thread(launch_world1)
        assert finish(*w1) == [rule(3)]
        # The world-1 launch left: the budget widens back to two ranks',
        # not to the original pool.
        assert finish(*w2) == [(rule(3), rule(2))] * 2
        assert_restored()

    def test_failing_rank_restores_pool(self):
        def body(rank):
            if rank == 1:
                raise ValueError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_world(2, body)
        assert_restored()
        with pytest.raises(ValueError):
            with blas.rank_threads(2):
                raise ValueError("launch failed")
        assert_restored()

    def test_timed_out_rank_restores_pool(self):
        release = threading.Event()
        with pytest.raises(TimeoutError):
            run_world(2, lambda: release.wait(JOIN_S), timeout=0.05)
        try:
            assert_restored()
        finally:
            release.set()

    def test_stress_overlapping_launches(self):
        """Many launches of worlds 1 and 2 overlap under a short switch
        interval; every read stays within its launch's budget."""
        reads = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def launches(world):
                for _ in range(25):
                    got = run_world(world, blas.pool_threads)
                    reads.append((world, got))

            workers = [in_thread(launches, 1 + i % 2) for i in range(6)]
            for worker in workers:
                finish(*worker)
        finally:
            sys.setswitchinterval(old)
        assert len(reads) == 150
        for world, got in reads:
            assert all(1 <= threads <= rule(world) for threads in got), (world, got)
        assert_restored()

    def test_elastic_generation_reads_budget(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((8, 6))
        y = np.arange(8) % 4
        seen = []

        def setup(ctx):
            model = small_classifier()
            return model, SGD(model.parameters(), lr=0.05)

        def step(ctx, model, opt, iteration):
            seen.append(blas.pool_threads())
            shard = slice(ctx.rank * 4, (ctx.rank + 1) * 4)
            opt.zero_grad()
            loss = nn.CrossEntropyLoss()(model(Tensor(x[shard])), y[shard])
            loss.backward()
            opt.step()
            return float(loss.data)

        config = ElasticConfig(checkpoint_dir=str(tmp_path), timeout=8.0)
        res = run_elastic(2, setup, step, total_iterations=2, config=config)
        assert res.completed
        assert seen == [rule(2)] * 4
        assert_restored()


class TestUnmanaged:
    def test_owner_env_leaves_pool_alone(self, monkeypatch):
        found = blas._find_openblas()
        if found is None:
            pytest.skip("no OpenBLAS found")
        get = found[0]
        before = get()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(before))
        monkeypatch.setattr(blas, "_pool", None)
        reads = run_world(2, lambda: (get(), blas.pool_threads()))
        assert reads == [(before, None)] * 2
        assert get() == before
        assert blas.live_ranks() == 0

    def test_no_openblas_is_a_no_op(self, monkeypatch):
        found = blas._find_openblas()
        before = found[0]() if found else None
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(blas, "_find_openblas", lambda: None)
        monkeypatch.setattr(blas, "_pool", None)
        assert run_world(2, lambda rank: (rank, blas.pool_threads())) == [(0, None), (1, None)]
        assert blas.live_ranks() == 0
        if found:
            assert found[0]() == before
