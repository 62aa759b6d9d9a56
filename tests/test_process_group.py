"""ProcessGroup API: sync/async, consistency, backends, round-robin."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.comm import (
    CollectiveMismatchError,
    get_context,
    new_process_group,
    new_round_robin_group,
)
from repro.comm.process_group import ReduceOp, Work
from repro.debug import get_debug_level, set_debug_level

from conftest import run_world


class TestBasicCollectives:
    def test_allreduce_sync(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(6, float(rank + 1))
            pg.allreduce(x)
            return x[0]

        assert run_world(3, body, backend="gloo") == [6.0, 6.0, 6.0]

    def test_allreduce_async_work(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(4, 1.0)
            work = pg.allreduce(x, async_op=True)
            assert isinstance(work, Work)
            work.wait()
            assert work.is_completed()
            return x[0]

        assert run_world(2, body, backend="gloo") == [2.0, 2.0]

    def test_many_async_inflight(self):
        """DDP's pattern: launch all buckets, then block on all."""
        def body(rank):
            pg = get_context().default_group
            buffers = [np.full(5, float(i + rank)) for i in range(8)]
            works = [pg.allreduce(b, async_op=True) for b in buffers]
            for w in works:
                w.wait()
            return [b[0] for b in buffers]

        results = run_world(2, body, backend="gloo")
        assert results[0] == [2.0 * i + 1.0 for i in range(8)]

    def test_broadcast_from_rank0(self):
        def body(rank):
            pg = get_context().default_group
            x = np.full(3, float(rank * 10 + 1))
            pg.broadcast(x, src=0)
            return x[0]

        assert run_world(3, body, backend="gloo") == [1.0, 1.0, 1.0]

    def test_allgather(self):
        def body(rank):
            pg = get_context().default_group
            out = pg.allgather(np.array([float(rank)]))
            return out.reshape(-1).tolist()

        results = run_world(3, body, backend="gloo")
        assert all(r == [0.0, 1.0, 2.0] for r in results)

    def test_reduce_scatter(self):
        def body(rank):
            pg = get_context().default_group
            return pg.reduce_scatter_flat(np.arange(4.0)).tolist()

        results = run_world(2, body, backend="gloo")
        # rank r owns span r of sum = [0,2,4,6]
        assert results[0] == [0.0, 2.0]
        assert results[1] == [4.0, 6.0]

    def test_barrier(self):
        def body(rank):
            get_context().default_group.barrier()
            return True

        assert run_world(4, body, backend="gloo") == [True] * 4

    def test_reduce_op_max(self):
        def body(rank):
            pg = get_context().default_group
            x = np.array([float(rank), float(-rank)])
            pg.allreduce(x, ReduceOp.MAX)
            return x.tolist()

        results = run_world(3, body, backend="gloo")
        assert results[0] == [2.0, 0.0]

    def test_bytes_accounted(self):
        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.zeros(10))
            return pg.bytes_communicated

        assert run_world(2, body, backend="gloo") == [80, 80]


class TestConsistencyChecking:
    def test_shape_mismatch_detected(self):
        def body(rank):
            pg = get_context().default_group
            pg.allreduce(np.zeros(3 if rank == 0 else 4))

        with pytest.raises(RuntimeError, match="mismatch"):
            run_world(2, body, backend="gloo", timeout=3)

    def test_op_type_mismatch_detected(self):
        def body(rank):
            pg = get_context().default_group
            if rank == 0:
                pg.allreduce(np.zeros(3))
            else:
                pg.broadcast(np.zeros(3))

        with pytest.raises(RuntimeError, match="mismatch"):
            run_world(2, body, backend="gloo", timeout=3)

    def test_dtype_mismatch_detected(self):
        def body(rank):
            pg = get_context().default_group
            dtype = np.float64 if rank == 0 else np.float32
            pg.allreduce(np.zeros(3, dtype=dtype))

        with pytest.raises(RuntimeError, match="mismatch"):
            run_world(2, body, backend="gloo", timeout=3)

    def test_matching_sequence_passes(self):
        def body(rank):
            pg = get_context().default_group
            for size in (3, 5, 1):
                pg.allreduce(np.zeros(size))
            return True

        assert run_world(2, body, backend="gloo") == [True, True]


class TestSignatureKeys:
    @pytest.mark.parametrize("level", ["OFF", "DETAIL"])
    def test_completed_collectives_leave_no_signature_keys(self, level):
        """The last rank to compare a collective's signature deletes its
        store keys, so a long run's store stays flat."""
        previous = get_debug_level()
        set_debug_level(level)
        try:
            def body(rank):
                pg = get_context().default_group
                for _ in range(500):
                    pg.allreduce(np.ones(2))
                # A barrier completes on a rank only after every rank
                # has compared its signature, so no key may survive it.
                pg.barrier()
                return pg.store.keys("pg0/sig/")

            assert run_world(3, body, backend="gloo") == [[], [], []]
        finally:
            set_debug_level(previous)

    def test_mismatch_keeps_keys_and_field_diff(self):
        seen = {}

        def body(rank):
            pg = get_context().default_group
            try:
                pg.allreduce(np.zeros(4 if rank == 2 else 3))
            except CollectiveMismatchError as exc:
                seen["message"] = str(exc)
                seen["keys"] = pg.store.keys("pg0/sig/0")
                raise

        with pytest.raises(RuntimeError, match="mismatch"):
            run_world(3, body, backend="gloo", timeout=3)
        assert "shape: (4,) != (3,)" in seen["message"]
        assert "pg0/sig/0" in seen["keys"]


class TestBackendPersonalities:
    def test_nccl_rejects_cpu_tensor(self):
        def body(rank):
            pg = get_context().default_group
            pg.allreduce(Tensor(np.zeros(3)))  # device defaults to cpu

        with pytest.raises(RuntimeError, match="cpu"):
            run_world(2, body, backend="nccl", timeout=3)

    def test_nccl_accepts_device_tensor(self):
        def body(rank):
            pg = get_context().default_group
            t = Tensor(np.full(3, 1.0), device=f"gpu:{rank}")
            pg.allreduce(t)
            return t.data[0]

        assert run_world(2, body, backend="nccl") == [2.0, 2.0]

    def test_nccl_accepts_raw_ndarray(self):
        """Raw arrays carry no device tag; treated as device memory."""
        def body(rank):
            pg = get_context().default_group
            x = np.ones(3)
            pg.allreduce(x)
            return x[0]

        assert run_world(2, body, backend="nccl") == [2.0, 2.0]

    def test_gloo_accepts_cpu_tensor(self):
        def body(rank):
            pg = get_context().default_group
            t = Tensor(np.full(2, 1.0))
            pg.allreduce(t)
            return t.data[0]

        assert run_world(2, body, backend="gloo") == [2.0, 2.0]

    def test_backend_algorithm_defaults(self):
        def body(rank):
            return (
                get_context().default_group.backend,
                get_context().default_group.algorithm,
            )

        nccl = run_world(2, body, backend="nccl")
        gloo = run_world(2, body, backend="gloo")
        assert nccl[0] == ("nccl", "ring")
        assert gloo[0] == ("gloo", "halving_doubling")


class TestSubgroupsAndRoundRobin:
    def test_subgroup_collective(self):
        def body(rank):
            sub = new_process_group("gloo", ranks=[0, 2])
            if rank in (0, 2):
                x = np.full(2, float(rank))
                sub.allreduce(x)
                return x[0]
            return None

        results = run_world(3, body)
        assert results[0] == 2.0 and results[2] == 2.0 and results[1] is None

    def test_non_members_get_none(self):
        def body(rank):
            sub = new_process_group("gloo", ranks=[0, 1])
            return sub.group_rank if sub is not None else None

        assert run_world(3, body) == [0, 1, None]

    def test_round_robin_results_match(self):
        def body(rank):
            rr = new_round_robin_group("gloo", num_groups=3)
            outs = []
            for i in range(7):
                x = np.full(3, float(rank + i))
                rr.allreduce(x)
                outs.append(x[0])
            rr.shutdown()
            return outs

        results = run_world(2, body)
        assert results[0] == [1.0 + 2 * i for i in range(7)]

    def test_round_robin_distributes_across_groups(self):
        def body(rank):
            rr = new_round_robin_group("gloo", num_groups=2)
            for _ in range(4):
                rr.allreduce(np.zeros(2))
            counts = [g.bytes_communicated for g in rr.groups]
            rr.shutdown()
            return counts

        results = run_world(2, body)
        assert results[0] == [32, 32]

    def test_round_robin_validation(self):
        from repro.comm.round_robin import RoundRobinProcessGroup

        with pytest.raises(ValueError):
            RoundRobinProcessGroup([])

    def test_round_robin_mismatch_names_inner_group(self):
        """A mismatch under round-robin dispatch must be attributed to
        the inner group that actually ran the collective — at *its*
        local sequence number, not the round-robin call index."""
        seen = {}

        def body(rank):
            rr = new_round_robin_group("gloo", num_groups=2)
            if rank == 0:
                seen["gids"] = [g._group_id for g in rr.groups]
            rr.allreduce(np.zeros(2))  # call 0 -> groups[0], its seq 0
            rr.allreduce(np.zeros(2))  # call 1 -> groups[1], its seq 0
            # call 2 -> groups[0] again, its seq 1; shapes diverge
            rr.allreduce(np.zeros(2 if rank == 0 else 5))

        with pytest.raises(RuntimeError, match="mismatch") as excinfo:
            run_world(2, body, timeout=3)
        gid_first, gid_second = seen["gids"]
        message = str(excinfo.value)
        assert f"collective #1 mismatch in group {gid_first}" in message
        assert f"group {gid_second}" not in message
