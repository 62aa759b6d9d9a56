"""End-to-end data-parallel training benchmark.

Trains one workload (see ``workloads.py``) at world 2, as two rank
threads of this process, next to a world-1 run of the same task as the
single-worker baseline.  Training is a closed loop: a rank starts its
next step only when the previous one has completed.  The two runs take
turns step by step, so a drift in the host's speed reaches both sides
of ``scaling_eff`` alike.  Only the steps alternate: a checkpoint write
one run queued keeps going on its writer thread during the other's turn.

Run from the repository root::

    python3 perfbench/run.py --workload ddp_transformer --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate world-2 run that records spans around every call into a layer,
reports the per-layer metrics and writes the spans to
``perfbench/out/``.  Each run checks the DDP-equivalence guarantee and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from spans import SpanLog, as_dicts, durations, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Steps before the timed region: lazy allocation and the first
#: (correctness-checked) step are not steady-state.
WARMUP_STEPS = 2
MIN_TIMED_STEPS = 4
#: World-2 set-up-only launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 15
#: Parameters after step 1 vs a single-process step on the concatenated
#: batch: float64 rounding only (a missing or doubled average is ~LR).
EQUIV_ATOL = 1e-10
PROBE_CALLS = {"allreduce_small": 200, "allreduce_bucket": 20,
               "allgather_unit": 50, "reduce_scatter_unit": 50}
BUCKET_PROBE_BYTES = 2 * 1024 * 1024
TURN_TIMEOUT_S = 60.0


def tail(values):
    """(value, percentile) at the highest percentile that leaves at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Turns:
    """Lets concurrent launches take turns, one training step each, and
    stops them all after the same step.

    ``worlds`` lists the launches' sizes in turn order; a turn ends when
    every rank of its launch has finished the step.
    """

    def __init__(self, worlds):
        self.worlds = list(worlds)
        self._cond = threading.Condition()
        self._turn = 0
        self._left = self.worlds[0]
        self._aborted = False
        #: The last step every launch runs.  Set at the start of a step by
        #: rank 0 of the first launch; everyone else reads it only after a
        #: turn that started later, so all launches agree on it.
        self.last_step = None

    def begin(self, slot, step):
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self._aborted or self._turn == step * len(self.worlds) + slot,
                timeout=TURN_TIMEOUT_S,
            )
            if self._aborted or not ok:
                raise RuntimeError(f"launch {slot} never got its turn for step {step}")

    def end(self):
        with self._cond:
            self._left -= 1
            if self._left == 0:
                self._turn += 1
                self._left = self.worlds[self._turn % len(self.worlds)]
                self._cond.notify_all()

    def abort(self):
        with self._cond:
            self._aborted = True
            self._cond.notify_all()


class Shared:
    """State the rank threads of one launch share."""

    def __init__(self, world: int):
        self.ready = [0.0] * world
        self.samples = {}
        self.counters = {}


def bounded_state(store, ckpt_root):
    """Store key count, live threads, committed checkpoint generations."""
    from repro.checkpoint import list_generations

    gens = 0
    if ckpt_root and os.path.isdir(ckpt_root):
        for rank_dir in os.listdir(ckpt_root):
            gens += len(list_generations(os.path.join(ckpt_root, rank_dir)))
    return {"store_keys": len(store.keys()), "threads": threading.active_count(),
            "ckpt_gens": gens}


def comm_counters(store, hub):
    return {"bytes": sum(hub.bytes_sent), "messages": sum(hub.messages_sent),
            "store_keys": len(store.keys())}


def full_params(wl, wrapper):
    """Copies of every full parameter; collective under ZeRO-3."""
    if wl.wrapper == "fsdp":
        with wrapper.summon_full_params():
            return [p.data.copy() for p in wrapper.module.parameters()]
    return [p.data.copy() for p in wrapper.module.parameters()]


def launch(wl, world, seed, arrays, *, turns=None, slot=0, budget_s=None, trace=False):
    """Launch ``world`` rank threads that each build the model, wrapper
    and optimizer; with ``turns``, train until ``budget_s`` is spent.

    Returns ``(setup_s, shared, per-rank results)``.  Set-up runs from
    the launch to the moment the last rank holds wrapper and optimizer.
    """
    from workloads import loss_fn, unit_sizes

    from repro.checkpoint import (
        ChecksumError, CheckpointEngine, list_generations, load_generation_manifest,
        verify_generation,
    )
    from repro.comm import Store, TransportHub, run_distributed
    from repro.utils import manual_seed

    store, hub = Store(timeout=60.0), TransportHub(world, default_timeout=60.0)
    shared = Shared(world)
    ckpt_root = None
    if wl.ckpt_every and turns is not None:
        ckpt_root = os.path.join(OUT, f"ckpt-{wl.name}-w{world}")
        shutil.rmtree(ckpt_root, ignore_errors=True)

    def body(rank):
        log = SpanLog(rank, enabled=trace)
        with log.span("setup", start=t0):
            manual_seed(seed)
            with log.span("setup.model"):
                model = wl.build_model()
            with log.span("setup.wrap"):
                wrapper, opt = wl.wrap(model)
        shared.ready[rank] = time.perf_counter()
        if turns is None:
            return {"spans": log.spans}
        return train(rank, wrapper, opt, log)

    def train(rank, wrapper, opt, log):
        pg = wrapper.process_group
        criterion = loss_fn()
        loader = wl.loader(arrays, world, rank, seed)
        engine = CheckpointEngine(ckpt_root, rank, world) if ckpt_root else None
        rec = {"steps": [], "ddp": [], "ckpt_stall": [], "spans": log.spans}
        epoch, batches = 0, iter(loader)
        leader = slot == 0 and rank == 0
        deadline = None
        middle_sampled = False
        step = 0
        while True:
            if leader and deadline is not None:
                now = time.perf_counter()
                if not middle_sampled and now >= deadline - budget_s / 2:
                    middle_sampled = True
                    shared.samples["middle"] = bounded_state(store, ckpt_root)
                if (turns.last_step is None and now >= deadline
                        and step - WARMUP_STEPS >= MIN_TIMED_STEPS):
                    turns.last_step = step
            if turns.last_step is not None and step > turns.last_step:
                break
            turns.begin(slot, step)
            if step == WARMUP_STEPS:
                pg.barrier()
                if rank == 0:
                    shared.samples["start"] = bounded_state(store, ckpt_root)
                    shared.counters["start"] = comm_counters(store, hub)
                if leader:
                    deadline = time.perf_counter() + budget_s
            timed = step >= WARMUP_STEPS
            # The traced run alternates traced and untraced steps, so the
            # tracing overhead is measured under the same conditions.
            log.enabled = trace and timed and step % 2 == 0
            t_start = time.perf_counter()
            with log.span("step", step):
                opt.zero_grad()
                with log.span("data"):
                    try:
                        x, y = next(batches)
                    except StopIteration:
                        epoch += 1
                        loader.sampler.set_epoch(epoch)
                        batches = iter(loader)
                        x, y = next(batches)
                with log.span("forward"):
                    loss = criterion(wrapper(x), y)
                with log.span("backward"):
                    loss.backward()
                with log.span("optim"):
                    opt.step()
                if engine is not None and (step + 1) % wl.ckpt_every == 0:
                    with log.span("ckpt.save"):
                        t_save = time.perf_counter()
                        engine.save_sharded(wrapper, iteration=step + 1)
                        rec["ckpt_stall"].append(time.perf_counter() - t_save)
            t_end = time.perf_counter()
            if step == 0:
                rec["step1_params"] = full_params(wl, wrapper)
            if timed:
                rec["steps"].append((t_start, t_end, log.enabled))
                if log.enabled and wl.wrapper == "ddp":
                    stats = wrapper.ddp_stats()
                    rec["ddp"].append((
                        stats["comm_total_s"],
                        stats["last_iteration"]["comm_exposed_wait"],
                        stats["comm_compute_overlap_ratio"],
                        stats["num_buckets"],
                    ))
            turns.end()
            step += 1
        rec["attempted_steps"] = step
        if rank == 0:
            shared.counters["end"] = comm_counters(store, hub)
        pg.barrier()
        if rank == 0:
            shared.samples["end"] = bounded_state(store, ckpt_root)
        rec["final_params"] = full_params(wl, wrapper)
        if wl.wrapper == "fsdp":
            rec["sharded"] = wrapper.ddp_stats()["sharded"]
        if engine is not None:
            engine.wait()
            rec["ckpt_stats"] = engine.stats()
            engine.close()
            last = list_generations(engine.rank_dir)[-1]
            try:
                verify_generation(engine.rank_dir, load_generation_manifest(engine.rank_dir, last))
                rec["ckpt_verified"] = True
            except ChecksumError as exc:
                print(f"rank {rank}: generation {last} failed verification: {exc}")
                rec["ckpt_verified"] = False
        if trace:
            log.enabled = True
            rec["probes"] = probe(pg, log, int(statistics.median(unit_sizes(wrapper.module))))
        return rec

    t0 = time.perf_counter()
    results = run_distributed(world, body, backend="gloo", timeout=60.0, store=store, hub=hub)
    return max(shared.ready) - t0, shared, results


def train_in_turns(wl, seed, arrays, worlds, budget_s, trace):
    """Train one launch per entry of ``worlds`` concurrently, taking
    turns step by step; returns each launch's ``(shared, results)``."""
    turns = Turns(worlds)
    outcomes = [None] * len(worlds)

    def run(slot):
        try:
            _, shared, results = launch(wl, worlds[slot], seed, arrays, turns=turns,
                                        slot=slot, budget_s=budget_s, trace=trace)
            outcomes[slot] = (shared, results)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcomes[slot] = exc
            turns.abort()

    threads = [threading.Thread(target=run, args=(slot,), name=f"launch{slot}")
               for slot in range(len(worlds))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def step_seconds(results):
    """Each timed step's duration: first rank's start to last rank's end."""
    per_rank = [rec["steps"] for rec in results]
    return [max(s[1] for s in row) - min(s[0] for s in row) for row in zip(*per_rank)]


def probe(pg, log, unit_elems):
    """Direct collective calls on the training group: the fixed cost of
    a tiny AllReduce, one 2 MB bucket, and one FSDP unit's flat
    all-gather / reduce-scatter.  Returns median seconds per call."""
    small = np.ones(8)
    bucket = np.ones(BUCKET_PROBE_BYTES // 8)
    unit = np.ones(unit_elems)
    calls = {
        "allreduce_small": lambda: pg.allreduce(small),
        "allreduce_bucket": lambda: pg.allreduce(bucket),
        "allgather_unit": lambda: pg.all_gather_flat(unit),
        "reduce_scatter_unit": lambda: pg.reduce_scatter_flat(unit),
    }
    medians = {}
    for name, call in calls.items():
        pg.barrier()
        times = []
        for _ in range(PROBE_CALLS[name]):
            with log.span(f"probe.{name}"):
                t = time.perf_counter()
                call()
                times.append(time.perf_counter() - t)
        medians[name] = statistics.median(times)
    return medians


def check_correct(wl, seed, arrays, results):
    """The run's correctness checks as ``(name, passed)`` pairs."""
    from workloads import reference_step

    world = len(results)
    expected = reference_step(wl, seed, arrays, world)
    worst = max(float(np.max(np.abs(a - b)))
                for a, b in zip(results[0]["step1_params"], expected))
    checks = [(f"step-1 params match single-process step (max diff {worst:.1e})",
               worst <= EQUIV_ATOL)]
    identical = all(
        np.array_equal(a, b)
        for rec in results[1:]
        for a, b in zip(results[0]["final_params"], rec["final_params"])
    )
    checks.append(("final params bitwise identical on every rank", identical))
    for rank, rec in enumerate(results):
        if "ckpt_verified" in rec:
            checks.append((f"rank {rank} last checkpoint generation verifies",
                           rec["ckpt_verified"]))
    return checks


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    arrays = wl.data(seed)
    threads_before = threading.active_count()

    setups, setup_spans = [], []
    for _ in range(SETUP_LAUNCHES):
        gc.collect()
        setup_s, _, results = launch(wl, 2, seed, arrays, trace=trace)
        setups.append(setup_s)
        setup_spans.extend(s for rec in results for s in rec["spans"])

    gc.collect()
    worlds = [2] if trace else [2, 1]
    launches = train_in_turns(wl, seed, arrays, worlds, seconds, trace)
    threads_delta = threading.active_count() - threads_before
    shared, w2 = launches[0]
    checks = check_correct(wl, seed, arrays, w2)
    failed = sum(1 for _, ok in checks if not ok)
    attempted = sum(results[0]["attempted_steps"] for _, results in launches) + len(checks)

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for label, ok in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {label}")
    for when in ("start", "middle", "end"):
        print(f"  world-2 bounded state at {when}: {shared.samples.get(when)}")

    if trace:
        metrics = layer_metrics(w2, shared, threads_delta)
        trace_path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
        with open(trace_path, "w") as handle:
            json.dump({
                "workload": name, "seed": seed, "bounded_state": shared.samples,
                "setup_spans": as_dicts(setup_spans),
                "spans": [as_dicts(rec["spans"]) for rec in w2],
            }, handle)
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
        traced = sum(1 for s in w2[0]["steps"] if s[2])
        print(f"  per-layer times are medians over n={traced} traced steps of both ranks; "
              f"comm.*_us/_ms over the direct calls; per-step counts over "
              f"n={len(w2[0]['steps'])} timed steps")
        notes = {}
    else:
        step2 = step_seconds(w2)
        step1 = step_seconds(launches[1][1])
        sps2 = wl.batch * 2 * len(step2) / sum(step2)
        sps1 = wl.batch * len(step1) / sum(step1)
        step_ms = [s * 1e3 for s in step2]
        tail_ms, tail_pct = tail(step_ms)
        metrics = {
            "samples_per_s": (sps2, "1/s"),
            "step_ms_p50": (statistics.median(step_ms), "ms"),
            "step_ms_tail": (tail_ms, "ms"),
            "scaling_eff": (sps2 / (2 * sps1), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        n2 = len(step2)
        notes = {
            "samples_per_s": f"n={n2} world-2 steps",
            "step_ms_p50": f"n={n2} world-2 steps",
            "step_ms_tail": f"p{tail_pct:.1f}, n={n2} world-2 steps",
            "scaling_eff": f"n={n2} world-2 / {len(step1)} world-1 steps",
            "setup_s": f"median of n={len(setups)} world-2 launches",
            "peak_rss_mb": "n=1 (process peak)",
        }
    print(f"  {'failure_ratio':28s} {failed / attempted:12.6g} ratio  "
          f"n={attempted} steps+checks, {failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:12.6g} {unit:6s} {notes.get(key, '')}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(w2, shared, threads_delta):
    """Per-layer numbers of a traced run; layers a workload does not
    use read 0 (e.g. the reducer under ZeRO-3)."""
    spans = [s for rec in w2 for s in rec["spans"]]

    def median_ms(name):
        values = durations(spans, name)
        return statistics.median(values) * 1e3 if values else 0.0

    self_by_rank = [self_times(rec["spans"]) for rec in w2]
    step_self = [self_by_rank[s.rank][s.id] for s in spans if s.name == "step"]
    # Closed-loop cycle: one step's start to the next step's start, so the
    # counter reads after a traced step are charged to tracing.
    cycles = {True: [], False: []}
    rank0 = w2[0]["steps"]
    for (start, _, was_traced), (nxt, _, _) in zip(rank0, rank0[1:]):
        cycles[was_traced].append(nxt - start)
    overhead = 100.0 * (1.0 - statistics.median(cycles[False]) / statistics.median(cycles[True]))
    n_steps = len(rank0)
    begin, end = shared.counters["start"], shared.counters["end"]
    ddp = [row for rec in w2 for row in rec["ddp"]]

    def ddp_median(col, scale=1.0):
        return statistics.median(r[col] for r in ddp) * scale if ddp else 0.0

    ckpt = [rec["ckpt_stats"] for rec in w2 if "ckpt_stats" in rec]
    saves = sum(c["saves"] for c in ckpt)
    stalls = [t for rec in w2 for t in rec["ckpt_stall"]]
    probes = w2[0]["probes"]
    sharded = w2[0].get("sharded")
    return {
        "data.wait_ms": (median_ms("data"), "ms"),
        "autograd.forward_ms": (median_ms("forward"), "ms"),
        "autograd.backward_ms": (median_ms("backward"), "ms"),
        "optim.step_ms": (median_ms("optim"), "ms"),
        "core.comm_ms": (ddp_median(0, 1e3), "ms"),
        "core.comm_exposed_ms": (ddp_median(1, 1e3), "ms"),
        "core.overlap_ratio": (ddp_median(2), "ratio"),
        "core.buckets": (ddp_median(3), "count"),
        "comm.allreduce_small_us": (probes["allreduce_small"] * 1e6, "us"),
        "comm.allreduce_bucket_ms": (probes["allreduce_bucket"] * 1e3, "ms"),
        "comm.allgather_unit_ms": (probes["allgather_unit"] * 1e3, "ms"),
        "comm.reduce_scatter_unit_ms": (probes["reduce_scatter_unit"] * 1e3, "ms"),
        "comm.bytes_per_step": ((end["bytes"] - begin["bytes"]) / n_steps, "bytes"),
        "comm.messages_per_step": ((end["messages"] - begin["messages"]) / n_steps, "count"),
        "comm.store_keys_per_step": ((end["store_keys"] - begin["store_keys"]) / n_steps, "count"),
        "runtime.threads_delta": (threads_delta, "count"),
        "sharded.peak_mb_per_rank": (
            sharded["peak_bytes_per_rank"] / 2**20 if sharded else 0.0, "MB"),
        "checkpoint.stall_ms": (statistics.median(stalls) * 1e3 if stalls else 0.0, "ms"),
        "checkpoint.write_ms": (
            sum(c["write_s"] for c in ckpt) / saves * 1e3 if saves else 0.0, "ms"),
        "checkpoint.bytes_per_save": (
            sum(c["bytes_written"] for c in ckpt) / saves if saves else 0.0, "bytes"),
        "bench.step_self_ms": (statistics.median(step_self) * 1e3, "ms"),
        "bench.trace_overhead_pct": (overhead, "%"),
    }


def run_all(args):
    """Every workload, each in its own process (peak RSS is per process).

    The last line merges their results, metric names prefixed by the
    workload."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
