"""Shrink-to-survive elastic training: the generation supervisor.

:func:`run_elastic` runs a DDP training loop the way production
schedulers run it — expecting ranks to die.  Each attempt is a
**generation**: a fresh :class:`~repro.resilience.transport.ReliableTransportHub`
plus a fresh process group with a generation-unique ``group_id`` (so no
store key from a dead generation can bleed into the next), one thread
per rank, and a store-based heartbeat per rank.  The supervisor (the
caller's thread) watches heartbeats and explicit death flags; when a
rank dies it sets an abort flag, closes the hub to wake the blocked
survivors, and applies the configured policy:

``fail``
    Re-raise the death as :class:`RankFailedError` (the behaviour of a
    non-elastic job: one dead rank kills the run).
``shrink``
    Re-rendezvous the survivors into a smaller world, restore model and
    optimizer state from the last checkpoint, and continue.  Gradient
    averaging rescales automatically — the reducer divides by the *new*
    group size.
``pause_and_wait``
    Re-run at the original world size, as if the scheduler replaced the
    dead worker; state is likewise restored from the checkpoint.

With ``allow_grow=True`` the supervisor also runs the reverse
transition: a :func:`~repro.resilience.faults.rejoin_rank` fault rule
marks a spot as *returning* (the preempted instance came back, or the
scheduler granted capacity).  When a rejoin matures mid-generation the
supervisor aborts the running generation exactly as it would for a
death — only this abort carries ``grow`` instead of ``died`` — and at
the boundary the returning spots are admitted, membership is densely
re-numbered, and every member (survivor or returner) passes a
store-based re-rendezvous barrier before the new group forms.  A rank
whose heartbeat merely *flapped* (stale long enough to trip the
monitor, fresh again by the boundary) is kept in the membership and
reported under ``flapped`` rather than treated as dead.

A death stops the generation at once: the supervisor closes the hub
under the survivors, which may be blocked on the dead peer.  A grow
kills no one, so nothing is torn down under a working rank: the
supervisor picks the next iteration boundary every rank can still reach
(after at least one iteration of progress in the generation), the ranks
finish their in-flight step and checkpoint save and leave together, and
the hub closes once they are gone — or after a bounded drain of
``timeout`` seconds, should one hang.

State travels between generations exclusively through checkpoints —
surviving ranks never try to salvage in-memory state from a torn
iteration, which is exactly how real elastic runtimes avoid mixing
half-averaged gradients into the restored trajectory.  The carrier is
always a :class:`~repro.checkpoint.engine.CheckpointEngine` under
``checkpoint_dir``: manifest-committed generations with per-file CRC,
optional background writes, and buddy replication (so with
``replication_factor > 1`` losing any single rank's local files is
survivable).  DDP runs commit the replicated payload from rank 0;
``repro.sharded`` wrappers commit one shard per rank; either restores
into the next generation's world size.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.checkpoint.engine import CheckpointEngine
from repro.comm.blas import rank_threads
from repro.comm.distributed import destroy_process_group, init_process_group
from repro.comm.store import Store
from repro.resilience.faults import FaultPlan, InjectedRankFailure
from repro.resilience.heartbeat import Heartbeat, HeartbeatMonitor
from repro.resilience.transport import ReliableTransportHub, RetryPolicy
from repro.sharded import FullyShardedDataParallel, ShardedDataParallel
from repro.utils.logging import logger
from repro.utils.rank import set_current_rank


class RankFailedError(RuntimeError):
    """A rank died and the policy does not allow recovery.

    Carries the dead ``spots`` (original rank ids) and the generation in
    which the deaths happened.
    """

    def __init__(self, spots: List[int], generation: int, reason: str):
        super().__init__(
            f"rank(s) {spots} died in generation {generation}: {reason}"
        )
        self.spots = list(spots)
        self.generation = generation


class _GenerationAborted(Exception):
    """Internal: the supervisor aborted this generation (not an error)."""


@dataclass
class ElasticConfig:
    """Knobs for :func:`run_elastic`.

    ``policy`` is ``"fail"``, ``"shrink"``, or ``"pause_and_wait"``.
    ``min_world_size`` bounds shrinking; dropping below it raises.
    ``max_restarts`` caps re-rendezvous attempts (generations beyond the
    first), so a deterministic repeated death cannot loop forever.
    ``checkpoint_every`` is the save cadence in iterations (every rank
    of the current generation commits through its checkpoint engine).
    ``heartbeat_interval`` / ``miss_threshold`` tune dead-rank
    detection; the defaults detect a death in ~0.25 s, far below the
    transport timeout.  ``retry`` is the
    :class:`~repro.resilience.transport.RetryPolicy` for each
    generation's hub; ``group_kwargs`` / ``ddp_kwargs`` forward to the
    process-group backend and the DDP wrapper.

    ``wrapper`` overrides the model wrap: ``wrapper(module, group) ->
    model`` (called instead of the default DDP construction, so e.g.
    ``repro.sharded`` stages can run elastically).  A ZeRO-2/3 wrapper
    checkpoints one shard per rank and restores with its own optimizer.

    ``allow_grow`` enables scale-up: matured
    :func:`~repro.resilience.faults.rejoin_rank` rules admit returning
    spots at generation boundaries, up to ``max_world_size`` (None
    leaves growth unbounded).  ``replication_factor`` /
    ``checkpoint_async`` / ``checkpoint_keep`` configure the
    :class:`~repro.checkpoint.engine.CheckpointEngine` whose per-rank
    files live under ``checkpoint_dir/rank{r}/``.
    """

    policy: str = "shrink"
    min_world_size: int = 1
    max_restarts: int = 5
    checkpoint_every: int = 1
    checkpoint_dir: str = "."
    heartbeat_interval: float = 0.05
    miss_threshold: float = 0.3
    grace: float = 2.0
    backend: str = "gloo"
    timeout: float = 10.0
    retry: Optional[RetryPolicy] = None
    seed: int = 0
    group_kwargs: Dict = field(default_factory=dict)
    ddp_kwargs: Dict = field(default_factory=dict)
    wrapper: Optional[Callable] = None
    allow_grow: bool = False
    max_world_size: Optional[int] = None
    replication_factor: int = 1
    checkpoint_async: bool = False
    checkpoint_keep: int = 2

    def __post_init__(self):
        if self.policy not in ("fail", "shrink", "pause_and_wait"):
            raise ValueError(
                f"unknown elastic policy {self.policy!r}; "
                "options: fail, shrink, pause_and_wait"
            )
        if self.min_world_size < 1:
            raise ValueError("min_world_size must be >= 1")
        if (
            self.max_world_size is not None
            and self.max_world_size < self.min_world_size
        ):
            raise ValueError(
                f"max_world_size={self.max_world_size} is below "
                f"min_world_size={self.min_world_size}"
            )
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")


@dataclass
class ElasticContext:
    """What a rank thread knows about its place in the elastic run.

    ``rank``/``world_size`` are the *current generation's* coordinates
    (ranks are renumbered densely after a shrink); ``spot`` is the
    original rank id from generation 0, stable across generations.
    """

    rank: int
    world_size: int
    generation: int
    spot: int
    store: Store
    namespace: str
    group: object = None
    #: The rank's liveness beacon; step functions may call
    #: ``ctx.heartbeat.suspend(seconds)`` to simulate a flapping rank.
    heartbeat: object = None


@dataclass
class ElasticResult:
    """Outcome of :func:`run_elastic`."""

    completed: bool
    iterations: int
    final_world_size: int
    generations: List[dict]
    losses: List[float]
    checkpoint_dir: str

    @property
    def final_loss(self) -> Optional[float]:
        """Last recorded per-iteration loss (rank 0's), or None."""
        return self.losses[-1] if self.losses else None

    @property
    def total_retries(self) -> int:
        """Transport retries summed over every generation."""
        return sum(
            g.get("resilience", {}).get("total_retries", 0)
            for g in self.generations
        )

    @property
    def deaths(self) -> List[int]:
        """Every spot that died, in generation order."""
        return [s for g in self.generations for s in g.get("died", [])]

    @property
    def admissions(self) -> List[int]:
        """Every spot admitted by a grow, in generation order."""
        return [s for g in self.generations for s in g.get("admitted", [])]

    @property
    def flaps(self) -> List[int]:
        """Every spot that flapped (declared dead, then recovered)."""
        return [s for g in self.generations for s in g.get("flapped", [])]


def _classify(error: BaseException) -> str:
    """Death flag kind for a rank-thread exception."""
    return "died" if isinstance(error, InjectedRankFailure) else "failed"


def run_elastic(
    world_size: int,
    setup: Callable,
    step: Callable,
    total_iterations: int,
    config: Optional[ElasticConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ElasticResult:
    """Run an elastic DDP training session and return its outcome.

    Parameters
    ----------
    world_size:
        Initial number of ranks.
    setup:
        ``setup(ctx: ElasticContext) -> (module, optimizer)`` — build
        the *local* model and its optimizer.  Called fresh on every rank
        in every generation; replicas must construct identically (the
        DDP wrap broadcasts rank 0's state regardless, and checkpoint
        restore then overwrites it with the saved trajectory).
    step:
        ``step(ctx, model, optimizer, iteration) -> float`` — one
        training iteration over the DDP-wrapped ``model``; returns the
        loss.  Shard data by ``ctx.rank`` / ``ctx.world_size``.
    total_iterations:
        Global iteration budget; checkpoints carry the cursor across
        generations, so a shrink resumes where the last save left off.
    config:
        :class:`ElasticConfig`; defaults are test-friendly.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`, installed
        on every generation's hub (rule trigger counts persist across
        generations, so ``times=1`` means once per *session*).
    """
    config = config or ElasticConfig()
    if (
        config.max_world_size is not None
        and world_size > config.max_world_size
    ):
        raise ValueError(
            f"initial world_size={world_size} exceeds "
            f"max_world_size={config.max_world_size}"
        )
    spots = list(range(world_size))
    generations: List[dict] = []
    losses: List[float] = []
    generation = 0

    while True:
        if generation > config.max_restarts:
            raise RankFailedError(
                spots, generation,
                f"exceeded max_restarts={config.max_restarts}",
            )
        with rank_threads(len(spots)):
            report = _run_generation(
                generation, spots, setup, step, total_iterations, config,
                fault_plan,
            )
        generations.append(report)
        losses.extend(report["losses"])
        if report["completed"]:
            return ElasticResult(
                completed=True,
                iterations=report["end_iteration"],
                final_world_size=len(spots),
                generations=generations,
                losses=losses,
                checkpoint_dir=config.checkpoint_dir,
            )

        died = report["died"]
        failed = report["failed"]
        if not died and failed:
            # A real (non-injected, non-collateral) failure: propagate.
            spot, error = failed[0]
            raise RuntimeError(
                f"rank spot {spot} failed in generation {generation}: {error}"
            ) from error
        if died:
            reason = (
                "; ".join(report["death_reasons"].values()) or "heartbeat lost"
            )
            if config.policy == "fail":
                raise RankFailedError(died, generation, reason)
            if config.policy == "shrink":
                spots = [s for s in spots if s not in died]
                if len(spots) < config.min_world_size:
                    raise RankFailedError(
                        died, generation,
                        f"only {len(spots)} survivor(s) left, below "
                        f"min_world_size={config.min_world_size} ({reason})",
                    )
                logger.warning(
                    "elastic: generation %d lost rank spot(s) %s (%s); "
                    "shrinking to world_size=%d",
                    generation, died, reason, len(spots),
                )
            else:  # pause_and_wait: respawn at the original membership.
                logger.warning(
                    "elastic: generation %d lost rank spot(s) %s (%s); "
                    "restarting at world_size=%d as if replaced",
                    generation, died, reason, len(spots),
                )
        elif report["flapped"]:
            logger.warning(
                "elastic: generation %d aborted for flapping rank spot(s) "
                "%s; heartbeats recovered, restarting with the same "
                "membership", generation, report["flapped"],
            )
        # Grow admission (scale-up): consume matured rejoin requests at
        # the boundary, capped by remaining max_world_size capacity.
        # Runs after the shrink filter so a kill + rejoin in the same
        # generation nets out correctly.
        if config.allow_grow and fault_plan is not None:
            capacity = (
                None
                if config.max_world_size is None
                else max(0, config.max_world_size - len(spots))
            )
            admitted = fault_plan.consume_rejoins(
                generation, exclude=spots, limit=capacity
            )
            if admitted:
                spots = sorted(set(spots) | set(admitted))
                logger.warning(
                    "elastic: generation %d admitting returning rank "
                    "spot(s) %s; growing to world_size=%d",
                    generation, admitted, len(spots),
                )
            report["admitted"] = admitted
        generation += 1


def _run_generation(
    generation: int,
    spots: List[int],
    setup: Callable,
    step: Callable,
    total_iterations: int,
    config: ElasticConfig,
    fault_plan: Optional[FaultPlan],
) -> dict:
    """Run one generation to completion or first detected death."""
    world = len(spots)
    ns = f"elastic/gen{generation}"
    store = Store(timeout=config.timeout)
    hub = ReliableTransportHub(
        world,
        default_timeout=config.timeout,
        retry=config.retry,
        seed=config.seed + generation,
    )
    if fault_plan is not None:
        hub.install_fault_plan(fault_plan)
    abort_key = f"{ns}/abort"
    rank0_losses: List[float] = []
    end_iteration = [0]
    errors: Dict[int, BaseException] = {}
    engine_stats: Dict[int, dict] = {}
    lock = threading.Lock()
    # The iteration each rank last entered, guarded by ``lock``: the
    # supervisor sets a grow's stop boundary under the same lock that
    # ranks read the abort under, so every rank stops at the same one.
    entered = [-1] * world

    def runner(rank: int) -> None:
        ctx = ElasticContext(
            rank=rank,
            world_size=world,
            generation=generation,
            spot=spots[rank],
            store=store,
            namespace=ns,
        )
        set_current_rank(rank)
        heartbeat = Heartbeat(
            store, ns, rank, interval=config.heartbeat_interval
        ).start()
        ctx.heartbeat = heartbeat
        engine: Optional[CheckpointEngine] = None
        try:
            # Re-rendezvous barrier: every admitted member — survivor or
            # returning spot — registers its join before the group
            # forms, so a grown generation cannot start lopsided.
            store.set(f"{ns}/join/rank{rank}", {"spot": spots[rank]})
            store.wait(
                [f"{ns}/join/rank{r}" for r in range(world)],
                timeout=config.timeout,
            )
            group = init_process_group(
                config.backend,
                store=store,
                hub=hub,
                rank=rank,
                world_size=world,
                timeout=config.timeout,
                group_id=f"e{generation}",
                **config.group_kwargs,
            )
            ctx.group = group
            module, optimizer = setup(ctx)

            if config.wrapper is not None:
                model = config.wrapper(module, group)
            else:
                from repro.core.ddp import DistributedDataParallel

                model = DistributedDataParallel(
                    module, process_group=group, **config.ddp_kwargs
                )
            engine = CheckpointEngine(
                config.checkpoint_dir,
                rank=rank,
                world=world,
                hub=hub,
                replication_factor=config.replication_factor,
                keep=config.checkpoint_keep,
                async_write=config.checkpoint_async,
                fault_plan=fault_plan,
            )
            # Saves are collective in cadence, not in communication:
            # every rank calls at iteration counts all ranks agree on.
            # ZeRO-2/3 wrappers own their optimizer and commit one shard
            # per rank; DDP commits rank 0's replicated payload.
            sharded = isinstance(
                model, (ShardedDataParallel, FullyShardedDataParallel)
            )
            if sharded:
                target, target_optimizer = model, model.optimizer
            else:
                target, target_optimizer = module, optimizer

            def save_state(iteration: int) -> None:
                if sharded:
                    engine.save_sharded(model, iteration=iteration)
                else:
                    engine.save_full(module, optimizer, iteration=iteration)

            info = engine.load_latest(target, target_optimizer)
            start = info["iteration"] if info is not None else 0
            if rank == 0:
                end_iteration[0] = start
            for iteration in range(start, total_iterations):
                with lock:
                    entered[rank] = iteration
                    abort = store.try_get(abort_key)
                if abort is not None:
                    # A death stops at once; a grow at its agreed
                    # boundary, after at least one iteration of progress.
                    stop_at = abort.get("stop_at")
                    if stop_at is None or iteration >= max(stop_at, start + 1):
                        raise _GenerationAborted()
                loss = step(ctx, model, optimizer, iteration)
                if rank == 0:
                    rank0_losses.append(float(loss))
                    end_iteration[0] = iteration + 1
                if (iteration + 1) % config.checkpoint_every == 0:
                    save_state(iteration + 1)
            if total_iterations % config.checkpoint_every:
                save_state(total_iterations)
            engine.wait(timeout=config.timeout)
            store.set(f"{ns}/done/rank{rank}", True)
        except _GenerationAborted:
            store.set(f"{ns}/done/rank{rank}", "aborted")
        except BaseException as exc:  # noqa: BLE001 - classified below
            kind = _classify(exc)
            if kind != "died" and store.try_get(abort_key) is not None:
                # Collateral damage of the supervisor's hub.close() (or
                # of the dead peer): this rank is a survivor.
                store.set(f"{ns}/done/rank{rank}", "aborted")
            else:
                with lock:
                    errors[rank] = exc
                store.set(
                    f"{ns}/dead/rank{rank}",
                    {"kind": kind, "reason": f"{type(exc).__name__}: {exc}"},
                )
            # A dead process takes its heartbeat with it.
            heartbeat.stop()
        finally:
            if engine is not None:
                engine.close(timeout=config.timeout)
                with lock:
                    engine_stats[rank] = engine.stats()
            heartbeat.stop()
            destroy_process_group()

    threads = [
        threading.Thread(
            target=runner, args=(r,), name=f"elastic-g{generation}-rank{r}",
            daemon=True,
        )
        for r in range(world)
    ]
    monitor = HeartbeatMonitor(
        store, ns, list(range(world)),
        miss_threshold=config.miss_threshold, grace=config.grace,
    )
    for thread in threads:
        thread.start()

    aborted = closed = False
    abort_dead: List[int] = []
    grow_ready: List[int] = []
    drain_deadline: Optional[float] = None
    deadline = time.monotonic() + config.timeout * (4 + total_iterations * 0.5)
    while any(t.is_alive() for t in threads):
        time.sleep(0.02)
        dead_now = _detect_deaths(store, ns, world, monitor)
        if dead_now and not closed:
            # Also cuts short a pending grow's drain.
            abort_dead = dead_now
            store.set(abort_key, {"generation": generation, "died": dead_now})
            hub.close()
            aborted = closed = True
        if (
            not aborted
            and config.allow_grow
            and fault_plan is not None
            and (
                config.max_world_size is None
                or world < config.max_world_size
            )
        ):
            # A matured rejoin ends the running generation — the grow
            # itself happens at the boundary, where run_elastic consumes
            # the request.  No rank is dead, so the hub stays open while
            # ranks finish their step and save and leave together at
            # the next boundary all of them can reach.  At zero
            # max_world_size capacity the request stays pending (a
            # later shrink may free a slot) and the generation is left
            # alone.
            matured = fault_plan.peek_rejoins(generation, exclude=spots)
            if matured:
                grow_ready = matured
                with lock:
                    store.set(abort_key, {
                        "generation": generation,
                        "grow": matured,
                        "stop_at": max(entered) + 1,
                    })
                drain_deadline = time.monotonic() + config.timeout
                aborted = True
        if (
            drain_deadline is not None
            and not closed
            and time.monotonic() > drain_deadline
        ):
            hub.close()
            closed = True
        if time.monotonic() > deadline:
            store.set(abort_key, {"generation": generation, "died": []})
            hub.close()
            aborted = True
            break
    for thread in threads:
        thread.join(timeout=config.timeout)
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise TimeoutError(
            f"elastic generation {generation}: rank thread(s) {stuck} did "
            "not exit after abort"
        )

    died_ranks = _detect_deaths(store, ns, world, monitor)
    # A rank that tripped the monitor mid-generation but is alive again
    # at the boundary (fresh beat, done flag set) was flapping, not
    # dead: it stays in the membership.
    flapped = sorted(
        spots[r] for r in abort_dead if r not in died_ranks
    )
    death_reasons = {}
    failed = []
    for rank, error in sorted(errors.items()):
        if _classify(error) == "died" or rank in died_ranks:
            death_reasons[spots[rank]] = f"{type(error).__name__}: {error}"
        else:
            failed.append((spots[rank], error))
    for rank in died_ranks:
        death_reasons.setdefault(spots[rank], "heartbeat lost")
    completed = not died_ranks and not failed and all(
        store.try_get(f"{ns}/done/rank{r}") is True for r in range(world)
    )
    hub.close()
    return {
        "generation": generation,
        "world_size": world,
        "spots": list(spots),
        "completed": completed,
        "end_iteration": end_iteration[0],
        "losses": rank0_losses,
        "died": sorted(spots[r] for r in died_ranks),
        "failed": failed,
        "death_reasons": death_reasons,
        "flapped": flapped,
        "grow_ready": grow_ready,
        "resilience": hub.resilience_stats(),
        "faults": fault_plan.stats() if fault_plan is not None else None,
        "checkpoint": dict(sorted(engine_stats.items())) or None,
    }


def _detect_deaths(store, ns: str, world: int, monitor) -> List[int]:
    """Ranks currently considered dead: explicit flags + stale heartbeats."""
    dead = []
    for rank in range(world):
        flag = store.try_get(f"{ns}/dead/rank{rank}")
        if flag is not None and flag.get("kind") == "died":
            dead.append(rank)
    for rank in monitor.dead_ranks():
        if rank in dead:
            continue
        if store.try_get(f"{ns}/done/rank{rank}") is not None:
            continue
        if store.try_get(f"{ns}/dead/rank{rank}") is not None:
            continue  # flagged "failed": collateral, not a death
        dead.append(rank)
    return sorted(dead)
