"""Training-run lifecycle: schedulers, checkpoint/resume, summary."""

import os
import tempfile

import numpy as np

from repro import nn
from repro.autograd import Tensor
from repro.core import DistributedDataParallel
from repro.optim import SGD, StepLR
from repro.checkpoint import load_training_checkpoint, save_training_checkpoint
from repro.utils import manual_seed

from conftest import run_world, small_classifier

RNG = np.random.default_rng(61)
X = RNG.standard_normal((8, 6))
Y = RNG.integers(0, 4, 8)


class TestCheckpointResume:
    def test_interrupted_run_matches_uninterrupted(self):
        """Train 6 iterations straight vs 3 + checkpoint + restart + 3:
        end states must match exactly (momentum-free for simplicity)."""

        def train(rank, ddp, opt, sched, iters):
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            for _ in range(iters):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
                sched.step()

        def straight(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            opt = SGD(ddp.parameters(), lr=0.1)
            sched = StepLR(opt, step_size=2, gamma=0.5)
            train(rank, ddp, opt, sched, 6)
            return ddp.state_dict()

        reference = run_world(2, straight, backend="gloo")[0]

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mid.npz")

            def first_half(rank):
                model = small_classifier()
                ddp = DistributedDataParallel(model)
                opt = SGD(ddp.parameters(), lr=0.1)
                sched = StepLR(opt, step_size=2, gamma=0.5)
                train(rank, ddp, opt, sched, 3)
                if rank == 0:
                    save_training_checkpoint(path, ddp, extra={"completed": 3})
                return True

            run_world(2, first_half, backend="gloo")

            def second_half(rank):
                manual_seed(999 + rank)  # deliberately different weights
                model = small_classifier()
                if rank == 0:
                    extra = load_training_checkpoint(path, model)["extra"]
                    assert int(extra["completed"]) == 3
                ddp = DistributedDataParallel(model)  # broadcast aligns rank 1
                opt = SGD(ddp.parameters(), lr=0.1)
                sched = StepLR(opt, step_size=2, gamma=0.5)
                # replay the scheduler to iteration 3
                for _ in range(3):
                    sched.step()
                train(rank, ddp, opt, sched, 3)
                return ddp.state_dict()

            resumed = run_world(2, second_half, backend="gloo")

        for name in reference:
            assert np.allclose(resumed[0][name], reference[name], atol=1e-12)
            assert np.allclose(resumed[1][name], reference[name], atol=1e-12)

    def test_scheduler_synchronized_across_ranks(self):
        def body(rank):
            model = small_classifier()
            ddp = DistributedDataParallel(model)
            opt = SGD(ddp.parameters(), lr=1.0)
            sched = StepLR(opt, step_size=1, gamma=0.5)
            loss_fn = nn.CrossEntropyLoss()
            shard = slice(rank * 4, (rank + 1) * 4)
            lrs = []
            for _ in range(3):
                opt.zero_grad()
                loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
                opt.step()
                sched.step()
                lrs.append(opt.param_groups[0]["lr"])
            return lrs, ddp.state_dict()

        results = run_world(2, body, backend="gloo")
        assert results[0][0] == results[1][0] == [0.5, 0.25, 0.125]
        for name in results[0][1]:
            assert np.array_equal(results[0][1][name], results[1][1][name])


class TestSummary:
    def test_summary_contents(self):
        def body(rank):
            ddp = DistributedDataParallel(small_classifier(), bucket_cap_mb=0.0005)
            nn.CrossEntropyLoss()(ddp(Tensor(X[:4])), Y[:4]).backward()
            return ddp.summary()

        text = run_world(2, body, backend="gloo")[0]
        assert "world size:          2" in text
        assert "backend:             gloo" in text
        assert "iterations synced:   1" in text
        assert "bucket" in text  # the layout table
