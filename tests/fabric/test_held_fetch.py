"""Event-driven control plane: held fetches and a woken listener.

A fetch that finds nothing grantable is held on the coordinator's
condition until something can answer it.  Each test patches the hold
cap to a minute, so a fetch that returns within the join timeout was
woken by the path under test -- a notify, or a timer derived from a
retry stamp or a lease's steal eligibility -- never by the cap.
"""

import sys
import threading
import time

import pytest

from repro.fabric import backend as backend_module
from repro.fabric import coordinator as coordinator_module
from repro.fabric.backend import FabricBackend
from repro.fabric.coordinator import Coordinator, CoordinatorLedger
from repro.fabric.wire import Channel, ChannelClosed
from repro.obs.metrics import MetricsRegistry
from repro.sim.executor import SupervisedTask
from repro.sim.faults import FAULT_SPEC_ENV, install
from repro.sim.resilience import ResiliencePolicy
from repro.sim.runner import SimRunner, task_identity
from repro.util.events import EventLog

from tests.fabric.test_fabric import lifetimes, make_tasks

#: How long a woken fetch may take to come back.
JOIN_TIMEOUT = 5.0

#: Longest close()/crash() may block; a 0.2 s accept poll would exceed it.
PROMPT_SECONDS = 0.1


@pytest.fixture(autouse=True)
def _long_hold(monkeypatch):
    monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
    install(None)
    monkeypatch.setattr(coordinator_module, "FETCH_HOLD_SECONDS", 60.0)
    yield
    install(None)


def _pending(count, *, not_before=0.0):
    pending = []
    for index, task in enumerate(make_tasks(count)):
        key, label = task_identity(task)
        pending.append(
            SupervisedTask(
                index=index, task=task, key=key, label=label,
                not_before=not_before,
            )
        )
    return pending


def _coordinator(pending, *, lease_ttl=1000.0, ledger=None):
    metrics = MetricsRegistry()
    coordinator = Coordinator(
        pending,
        lease_ttl=lease_ttl,
        metrics=metrics,
        events=EventLog(),
        ledger=ledger,
    )
    return coordinator, metrics


class HeldFetch(threading.Thread):
    """One worker fetch, issued on its own thread so it can be held."""

    def __init__(self, coordinator, metrics, worker="b"):
        super().__init__(daemon=True)
        self.channel = Channel(coordinator.address, name=f"worker-{worker}")
        self.worker = worker
        self.reply = None
        self.error = None
        self._metrics = metrics
        self._before = metrics.counter("fabric.fetches")

    def run(self):
        try:
            self.reply = self.channel.request(
                {"type": "fetch", "worker": self.worker}
            )
        except ChannelClosed as error:
            self.error = error
        finally:
            self.channel.close()

    def start_held(self):
        """Start, then return once the coordinator is holding the fetch."""
        self.start()
        deadline = time.monotonic() + JOIN_TIMEOUT
        while self._metrics.counter("fabric.fetches") == self._before:
            assert time.monotonic() < deadline, "fetch never reached the coordinator"
            time.sleep(0.005)
        time.sleep(0.05)
        assert self.is_alive(), f"fetch was not held: {self.reply}"
        return self

    def result(self):
        self.join(JOIN_TIMEOUT)
        assert not self.is_alive(), "held fetch was never woken"
        return self.reply


def _fetch(coordinator, worker="a"):
    """Fetch on a fresh channel, returned open: closing a channel that
    holds a lease is how a worker dies."""
    channel = Channel(coordinator.address, name=f"worker-{worker}")
    return channel, channel.request({"type": "fetch", "worker": worker})


class TestHeldFetchWakes:
    def test_request_shutdown_answers_a_held_fetch(self):
        coordinator, metrics = _coordinator([])
        try:
            held = HeldFetch(coordinator, metrics).start_held()
            coordinator.request_shutdown()
            assert held.result() == {"type": "shutdown"}
        finally:
            coordinator.request_shutdown()
            coordinator.close()

    def test_expired_lease_requeue_is_granted_to_the_held_fetch(self):
        coordinator, metrics = _coordinator(_pending(1))
        worker, grant = _fetch(coordinator, "a")
        try:
            assert grant["type"] == "task"
            held = HeldFetch(coordinator, metrics).start_held()
            assert coordinator.expire_leases(now=time.monotonic() + 2000.0) == 1
            reply = held.result()
            assert reply["type"] == "task"
            assert reply["key"] == grant["key"]
            # Innocent requeue: the same attempt number replays.
            assert reply["attempt"] == grant["attempt"]
        finally:
            worker.close()
            coordinator.request_shutdown()
            coordinator.close()

    def test_retry_stamp_is_granted_once_it_passes_without_a_notify(self):
        stamp = time.monotonic() + 0.3
        coordinator, metrics = _coordinator(_pending(1, not_before=stamp))
        try:
            held = HeldFetch(coordinator, metrics).start_held()
            reply = held.result()
            assert reply["type"] == "task"
            assert time.monotonic() >= stamp
        finally:
            coordinator.request_shutdown()
            coordinator.close()

    def test_lease_past_half_its_ttl_is_stolen_by_the_held_fetch(self):
        coordinator, metrics = _coordinator(_pending(1), lease_ttl=0.6)
        worker, grant = _fetch(coordinator, "a")
        try:
            held = HeldFetch(coordinator, metrics).start_held()
            reply = held.result()
            assert reply["type"] == "task"
            assert reply["key"] == grant["key"]
            assert reply["attempt"] == grant["attempt"]
            assert metrics.counter("fabric.steals") == 1
        finally:
            worker.close()
            coordinator.request_shutdown()
            coordinator.close()

    def test_crash_releases_a_held_fetch_without_granting(self, tmp_path):
        """The held fetch waits on a retry stamp that passes after the
        crash: a crashed coordinator must not grant it then."""
        stamp = time.monotonic() + 0.5
        ledger_path = tmp_path / "coord.jsonl"
        coordinator, metrics = _coordinator(
            _pending(1, not_before=stamp), ledger=CoordinatorLedger(ledger_path)
        )
        held = HeldFetch(coordinator, metrics).start_held()
        coordinator.crash()
        reply = held.result()
        # The worker sees the torn-down channel or a ``wait`` (never
        # ``shutdown``: it must reconnect to the replacement).
        assert held.error is not None or reply == {"type": "wait"}
        time.sleep(max(stamp - time.monotonic(), 0.0) + 0.1)
        # Nothing was journalled to the ledger the replacement replays.
        assert not ledger_path.exists()

    def test_pipelined_duplicate_fetch_is_not_held(self):
        """A duplicated fetch frame gets two replies; the worker reads
        both before acting, so the second one must come back at once."""
        coordinator, metrics = _coordinator(_pending(1))
        worker, grant = _fetch(coordinator, "a")
        try:
            install("duplicate=1.0,seed=1")
            held = HeldFetch(coordinator, metrics).start_held()
            coordinator.expire_leases(now=time.monotonic() + 2000.0)
            reply = held.result()
            assert reply["type"] == "task"
            assert reply["key"] == grant["key"]
            assert metrics.counter("fabric.fetches") == 3
        finally:
            worker.close()
            install(None)
            coordinator.request_shutdown()
            coordinator.close()


class TestManyHeldFetches:
    def test_staggered_retries_are_each_granted_once_under_contention(self):
        """More fetching threads than cores, a tiny switch interval, and
        work coming due on staggered retry stamps: every task is granted
        exactly once, and each thread makes one fetch per grant plus its
        final ``shutdown`` fetch -- a lost wake-up would hang a join, a
        double grant would break the count."""
        tasks, threads = 24, 8
        start = time.monotonic() + 0.1
        pending = _pending(tasks)
        for index, state in enumerate(pending):
            state.not_before = start + 0.01 * index
        coordinator, metrics = _coordinator(pending)
        grants = []

        def work(name):
            channel = Channel(coordinator.address, name=f"worker-{name}")
            try:
                while True:
                    reply = channel.request({"type": "fetch", "worker": name})
                    if reply["type"] == "shutdown":
                        return
                    assert reply["type"] == "task"
                    grants.append(reply["key"])
                    channel.request({
                        "type": "commit", "worker": name,
                        "lease": reply["lease"], "key": reply["key"],
                        "report": None,
                    })
            finally:
                channel.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(f"w{n}",), daemon=True)
                for n in range(threads)
            ]
            for worker in workers:
                worker.start()
            for _ in range(tasks):
                assert coordinator.outbox.get(timeout=JOIN_TIMEOUT)[0] == "complete"
            coordinator.request_shutdown()
            for worker in workers:
                worker.join(JOIN_TIMEOUT)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
            coordinator.request_shutdown()
            coordinator.close()
        assert sorted(grants) == sorted(state.key for state in pending)
        assert metrics.counter("fabric.fetches") == tasks + threads


class TestWokenListener:
    def test_close_returns_promptly_with_the_accept_thread_dead(self):
        coordinator, _ = _coordinator(_pending(1))
        coordinator.request_shutdown()
        started = time.monotonic()
        coordinator.close()
        assert time.monotonic() - started < PROMPT_SECONDS
        assert not coordinator._accept_thread.is_alive()

    def test_crash_returns_promptly_and_the_port_rebinds(self):
        pending = _pending(1)
        coordinator, _ = _coordinator(pending)
        started = time.monotonic()
        host, port = coordinator.crash()
        assert time.monotonic() - started < PROMPT_SECONDS
        assert not coordinator._accept_thread.is_alive()
        replacement = Coordinator(
            pending,
            lease_ttl=1000.0,
            metrics=MetricsRegistry(),
            events=EventLog(),
            host=host,
            port=port,
        )
        try:
            assert replacement.address == (host, port)
            channel, reply = _fetch(replacement)
            assert reply["type"] == "task"
            channel.close()
        finally:
            replacement.request_shutdown()
            replacement.close()


class TestChargedRetry:
    def test_a_charged_retry_wakes_the_held_fetch(self, monkeypatch):
        """Seed 12 fails attempt 0 of the task and passes attempt 1.  The
        charge is delayed -- with the lock released -- until the lone
        worker's next fetch is held; the charge's notify, not the
        one-minute cap, must then hand it the retry."""
        coordinators = []
        original_init = Coordinator.__init__

        def capture(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            coordinators.append(self)

        original_charge = backend_module.handle_attempt_failure

        def late_charge(*args):
            coordinators[-1].lock.wait(0.3)
            original_charge(*args)

        monkeypatch.setattr(Coordinator, "__init__", capture)
        monkeypatch.setattr(backend_module, "handle_attempt_failure", late_charge)
        tasks = make_tasks(1)
        serial = SimRunner().run(tasks)
        monkeypatch.setenv(FAULT_SPEC_ENV, "transient=0.5,seed=12")
        started = time.monotonic()
        results, stats = SimRunner(
            backend=FabricBackend(workers=1),
            policy=ResiliencePolicy(retries=2, backoff=0.01, backoff_cap=0.05),
        ).run_detailed(tasks)
        assert time.monotonic() - started < 30.0
        assert stats.retries == 1
        assert lifetimes(results) == lifetimes(serial)


class TestFetchRoundTrips:
    def test_clean_run_fetches_once_per_grant_plus_one_shutdown_each(self):
        tasks = make_tasks(6)
        serial = SimRunner().run(tasks)
        metrics = MetricsRegistry()
        results, stats = SimRunner(
            backend=FabricBackend(workers=2), metrics=metrics
        ).run_detailed(tasks)
        assert lifetimes(results) == lifetimes(serial)
        granted = metrics.counter("fabric.leases_granted")
        assert granted == len(tasks)
        assert metrics.counter("fabric.fetches") == granted + stats.jobs
        shutdown = metrics.timing("fabric/shutdown")
        assert shutdown is not None and shutdown.count == 1
