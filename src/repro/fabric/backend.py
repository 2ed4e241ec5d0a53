"""FabricBackend: the multi-host executor behind ``--backend fabric``.

Spawns a localhost :class:`~repro.fabric.coordinator.Coordinator` plus
``workers`` worker processes, then drives the run from the calling
thread: draining completions/verdicts (so cache writes, checkpoint
appends, and retry arbitration happen exactly where the pool backend
does them), expiring leases, and watching worker liveness.

Degradation ladder -- the run *completes* at every rung, it just gets
slower and says so:

1. a worker dies ⇒ its in-flight lease is charged as a crash (or
   absorbed by a stolen sibling), the remaining workers carry on, and
   ``fabric.workers_lost`` / ``summary.degraded`` record the loss;
2. every worker dies ⇒ outstanding leases are force-expired and the
   leftovers run serially in-process (``fabric.local_fallback_tasks``),
   exactly like the pool's serial path;
3. the *coordinator* dies (``coordinator-crash`` fault) ⇒ the
   supervisor rebuilds it from its fsynced lease ledger on the same
   port; reconnecting workers keep the leases they hold and the run
   continues (``fabric.coordinator_restarts``);
4. SIGINT/SIGTERM ⇒ same clean interrupt surface as the pool: workers
   torn down, in-flight and queued tasks recorded as ``interrupted``.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import tempfile
from pathlib import Path
from time import monotonic, sleep
from typing import Dict, List, Optional, Sequence

from repro.fabric.coordinator import Coordinator, CoordinatorLedger
from repro.fabric.worker import worker_main
from repro.obs.metrics import MetricsRegistry
from repro.sim.faults import active_injector
from repro.sim.executor import (
    CompletionCallback,
    ExecutionSummary,
    ExecutorBackend,
    SupervisedTask,
    handle_attempt_failure,
    mark_skipped,
)
from repro.sim.resilience import Checkpoint, FailureRecord, ResiliencePolicy
from repro.util.events import EventLog

#: Default lease TTL (seconds).  Heartbeats renew at a third of this.
DEFAULT_LEASE_TTL: float = 10.0

#: Supervisor poll granularity while waiting on the coordinator outbox.
POLL_SECONDS: float = 0.05

#: Grace period for worker processes to exit after a shutdown request.
SHUTDOWN_GRACE_SECONDS: float = 5.0

#: Upper bound on worker respawns, as a multiple of the worker count.
RESPAWN_CAP_FACTOR: int = 8


class FabricBackend(ExecutorBackend):
    """Socket-fabric execution: coordinator + leased worker processes.

    Parameters
    ----------
    workers:
        Worker-process count; ``None`` (default) uses the runner's
        ``jobs`` value.
    lease_ttl:
        Seconds a lease survives without a heartbeat before the
        coordinator expires it and requeues the task innocently.
    host:
        Address the coordinator binds; loopback by default.  Binding a
        routable address is what turns this into a *multi*-host fabric
        (remote workers run :func:`repro.fabric.worker.worker_main`
        against the advertised endpoint).
    respawn:
        Replace locally-spawned workers that die (the pool-parity
        behaviour, default).  ``False`` models remote hosts the
        coordinator cannot resurrect: losses are permanent and the run
        degrades onto the survivors.  Respawns are capped at
        ``RESPAWN_CAP_FACTOR × workers`` so a pathological crash storm
        still converges to the degraded path instead of thrashing.
    """

    name = "fabric"

    def __init__(
        self,
        workers: Optional[int] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        host: str = "127.0.0.1",
        respawn: bool = True,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self._workers = workers
        self._lease_ttl = float(lease_ttl)
        self._host = host
        self._respawn = respawn

    @property
    def lease_ttl(self) -> float:
        return self._lease_ttl

    def execute(
        self,
        pending: Sequence[SupervisedTask],
        *,
        jobs: int,
        policy: ResiliencePolicy,
        events: EventLog,
        on_complete: CompletionCallback,
        metrics: MetricsRegistry,
        checkpoint: "Optional[Checkpoint]" = None,
    ) -> ExecutionSummary:
        # Lazy import: runner imports executor, fabric imports runner.
        from repro.sim.runner import ProcessPoolBackend, _fault_spec_text, _picklable

        if not pending:
            return ExecutionSummary()
        if not _picklable([state.task for state in pending]):
            # Unpicklable tasks cannot cross the wire; run them the way
            # the pool backend would.
            events.record("fabric-serial-fallback", -1, reason="unpicklable")
            summary = ProcessPoolBackend().run_serial(
                pending, policy, events, on_complete, metrics
            )
            summary.jobs_used = 1
            return summary

        workers = self._workers if self._workers is not None else jobs
        workers = max(1, min(workers, max(len(pending), 1)))
        summary = ExecutionSummary(jobs_used=workers)
        outstanding: Dict[int, SupervisedTask] = {
            state.index: state for state in pending
        }
        #: Terminally-failed states a late commit may still heal.
        healable: Dict[int, SupervisedTask] = {}

        # Control-plane ledger: fresh per execute (leases reference
        # worker processes spawned below, so pre-run state is never
        # meaningful), durable *across in-run coordinator restarts*.
        scratch_dir: Optional[tempfile.TemporaryDirectory] = None
        if checkpoint is not None:
            ledger_path = checkpoint.path.with_name(
                checkpoint.path.name + ".coordinator"
            )
        else:
            scratch_dir = tempfile.TemporaryDirectory(prefix="repro-fabric-")
            ledger_path = Path(scratch_dir.name) / "coordinator.jsonl"
        ledger = CoordinatorLedger(ledger_path, resume=False)

        coordinator = Coordinator(
            pending,
            lease_ttl=self._lease_ttl,
            metrics=metrics,
            events=events,
            host=self._host,
            ledger=ledger,
        )
        host, port = coordinator.address
        metrics.gauge("fabric.workers", workers)
        fault_spec = _fault_spec_text()
        context = multiprocessing.get_context()
        next_worker = 0

        def spawn_worker() -> multiprocessing.Process:
            nonlocal next_worker
            worker_id = f"w{next_worker}"
            next_worker += 1
            shard = (
                str(checkpoint.shard_path(worker_id))
                if checkpoint is not None
                else None
            )
            # Fork-context children inherit the coordinator's listener
            # fd; each worker must close its copy at startup or the port
            # stays in LISTEN after a coordinator crash and the
            # replacement cannot rebind.  Under spawn the child's fd
            # table is fresh and the number would hit an unrelated fd.
            inherited_fds: "tuple[int, ...]" = ()
            if context.get_start_method() == "fork":
                inherited_fds = (coordinator.listener_fileno(),)
            process = context.Process(
                target=worker_main,
                name=f"fabric-{worker_id}",
                args=(
                    host,
                    port,
                    worker_id,
                    fault_spec,
                    policy.timeout,
                    self._lease_ttl,
                    shard,
                    inherited_fds,
                ),
                daemon=True,
            )
            process.start()
            return process

        processes: List[multiprocessing.Process] = [
            spawn_worker() for _ in range(workers)
        ]
        lost: set = set()
        respawns = 0
        respawn_cap = RESPAWN_CAP_FACTOR * workers
        injector = active_injector()
        crash_pending = False

        def complete(state: SupervisedTask, report, granted, late: bool) -> None:
            nonlocal crash_pending
            if state.index not in outstanding and state.index not in healable:
                return
            if late:
                events.record(
                    "late-commit", state.index, key=state.key[:12]
                )
            if state.index in healable:
                # The commit overturns an earlier terminal failure
                # (expired lease whose partition healed, worker verdicts
                # that all missed): the result is real, keep it.
                healable.pop(state.index)
                summary.failures.pop(state.index, None)
            state.elapsed += report.elapsed
            queue_wait = (
                max(report.started - granted, 0.0) if granted is not None else 0.0
            )
            harvest_latency = max(monotonic() - report.ended, 0.0)
            state.queue_seconds += queue_wait
            state.harvest_seconds += harvest_latency
            metrics.observe_seconds("runner/queue_wait", queue_wait)
            metrics.observe_seconds("runner/worker_run", report.elapsed)
            metrics.observe_seconds("runner/harvest_latency", harvest_latency)
            if report.metrics is not None:
                metrics.merge_snapshot(report.metrics)
            on_complete(state, report.result, report.elapsed)
            outstanding.pop(state.index, None)
            # Each task completes at most once, so a hit here schedules
            # exactly one crash -- after the rebuild this key is done and
            # never rolls again, guaranteeing convergence.
            if injector is not None and injector.coordinator_crash_now(state.key):
                crash_pending = True

        def charge(state: SupervisedTask, error: BaseException, kind: str) -> None:
            if state.index not in outstanding:
                return
            with coordinator.lock:
                handle_attempt_failure(
                    policy, state, error, kind, coordinator.ready, summary, events
                )
                # A retry just joined the ready queue: wake held fetches.
                coordinator.lock.notify_all()
            if state.index in summary.failures:
                outstanding.pop(state.index, None)
                healable[state.index] = state

        def drain(block: bool) -> bool:
            """Process one outbox batch; returns whether anything arrived."""
            drained = False
            while True:
                try:
                    item = coordinator.outbox.get(
                        timeout=POLL_SECONDS if (block and not drained) else 0.0
                    )
                except queue_module.Empty:
                    return drained
                drained = True
                if item[0] == "complete":
                    _, state, report, granted, late = item
                    complete(state, report, granted, late)
                else:
                    _, state, error, kind = item
                    charge(state, error, kind)

        def restart_coordinator() -> None:
            """Crash the coordinator and rebuild it from the ledger.

            The old incarnation's outbox is fully absorbed *before* the
            rebuild -- it lives in this (surviving) process, the way a
            real restart would first replay the journal's committed
            tail -- so no completion that was already committed can be
            lost or re-dispatched.
            """
            nonlocal coordinator, crash_pending
            crash_pending = False
            crash_host, crash_port = coordinator.crash()
            drain(block=False)
            metrics.inc("fabric.coordinator_restarts")
            events.record(
                "coordinator-restarted", -1, port=crash_port,
                outstanding=len(outstanding),
            )
            survivors = [state for state in pending if state.index in outstanding]
            # The replacement must rebind the *same* port -- that is the
            # endpoint every backing-off worker retries.  SO_REUSEADDR
            # makes this immediate on POSIX; tolerate a briefly lingering
            # socket anyway.
            last_error: Optional[OSError] = None
            for _ in range(40):
                try:
                    coordinator = Coordinator(
                        survivors,
                        lease_ttl=self._lease_ttl,
                        metrics=metrics,
                        events=events,
                        host=crash_host,
                        port=crash_port,
                        parked=list(healable.values()),
                        ledger=ledger,
                    )
                    return
                except OSError as error:
                    last_error = error
                    sleep(0.05)
            raise last_error  # type: ignore[misc]

        try:
            while outstanding:
                drain(block=True)
                if crash_pending:
                    restart_coordinator()
                coordinator.expire_leases()
                for slot, process in enumerate(processes):
                    if process.is_alive() or process.pid in lost:
                        continue
                    lost.add(process.pid)
                    metrics.inc("fabric.workers_lost")
                    events.record(
                        "worker-lost", -1, worker=process.name,
                        exitcode=process.exitcode,
                    )
                    if self._respawn and outstanding and respawns < respawn_cap:
                        respawns += 1
                        summary.pool_respawns += 1
                        metrics.inc("fabric.workers_respawned")
                        processes[slot] = spawn_worker()
                        events.record(
                            "worker-respawned", -1,
                            worker=processes[slot].name,
                        )
                    else:
                        # A lost worker with no replacement: the run
                        # continues on the survivors, degraded.
                        summary.degraded = True
                if policy.fail_fast and summary.failures:
                    with coordinator.lock:
                        skipped = [
                            state
                            for state in coordinator.ready
                            if state.index in outstanding
                        ]
                        coordinator.ready.clear()
                    for state in skipped:
                        summary.failures[state.index] = FailureRecord(
                            index=state.index,
                            key=state.key,
                            label=state.label,
                            kind="skipped",
                            attempts=state.attempts,
                        )
                        outstanding.pop(state.index, None)
                if outstanding and all(p.pid in lost for p in processes):
                    # Every worker died: absorb the straggler verdicts,
                    # force-expire surviving leases, and finish the
                    # leftovers serially in-process.
                    deadline = monotonic() + 1.0
                    while coordinator.active_leases() and monotonic() < deadline:
                        drain(block=True)
                    drain(block=False)
                    coordinator.expire_all_leases()
                    drain(block=False)
                    remaining = [
                        state
                        for state in coordinator.take_ready()
                        if state.index in outstanding
                    ]
                    if remaining:
                        metrics.inc("fabric.local_fallback_tasks", len(remaining))
                        events.record(
                            "fabric-local-fallback", -1, tasks=len(remaining)
                        )
                        from repro.sim.runner import ProcessPoolBackend

                        fallback = ProcessPoolBackend().run_serial(
                            remaining, policy, events, on_complete, metrics
                        )
                        summary.failures.update(fallback.failures)
                        summary.retries += fallback.retries
                        summary.interrupted |= fallback.interrupted
                        for state in remaining:
                            outstanding.pop(state.index, None)
                    # Whatever still lingers (completed via late commits
                    # already, or unreachable) drains on the next spin.
                    drain(block=False)
                    if outstanding and not coordinator.active_leases():
                        # Nothing can ever complete these now.
                        for index, state in list(outstanding.items()):
                            summary.failures[index] = FailureRecord(
                                index=index,
                                key=state.key,
                                label=state.label,
                                kind="crash",
                                attempts=state.attempts,
                            )
                            outstanding.pop(index, None)
        except KeyboardInterrupt:
            summary.interrupted = True
            with coordinator.lock:
                coordinator.ready.clear()
            for state in outstanding.values():
                summary.failures[state.index] = FailureRecord(
                    index=state.index,
                    key=state.key,
                    label=state.label,
                    kind="interrupted",
                    attempts=state.attempts,
                )
            outstanding.clear()
        finally:
            shutdown_started = monotonic()
            coordinator.request_shutdown()
            for process in processes:
                process.join(timeout=SHUTDOWN_GRACE_SECONDS)
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
            # Recovery invariant surfaced in manifests: a converged run
            # ends with zero outstanding (orphaned) leases.
            metrics.gauge("fabric.active_leases", coordinator.active_leases())
            coordinator.close()
            metrics.observe_seconds(
                "fabric/shutdown", monotonic() - shutdown_started
            )
            # The control-plane ledger is scratch outside this execute:
            # leases name worker processes that no longer exist.
            try:
                ledger_path.unlink()
            except OSError:
                pass
            if scratch_dir is not None:
                scratch_dir.cleanup()
        return summary
