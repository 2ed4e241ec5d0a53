"""Deterministic fault injection for the simulation execution layer.

The resilience machinery in :mod:`repro.sim.runner` (timeouts, retries,
pool respawns, checkpoint/resume) is only trustworthy if it can be
exercised on demand.  This module injects the failure modes a real fleet
sees -- worker crashes, hangs, transient exceptions, and corrupted cache
entries -- *deterministically*: every injection decision is a pure
function of the fault spec's seed, the fault kind, the task's stable
key, and the attempt number.  A retried task therefore re-rolls its
faults exactly the same way on every run of the harness, which is what
lets the tests assert that a faulty sweep converges to results
bit-identical to a fault-free one.

Activation
----------
Faults are off unless a spec is installed.  Three equivalent routes:

* the ``REPRO_FAULT_SPEC`` environment variable (inherited by worker
  processes, so pool workers inject without extra plumbing);
* ``install(spec)`` from test code;
* the CLI's ``--inject-faults SPEC`` flag (which sets the env var so
  workers see it too).

Spec grammar
------------
A spec is a comma-separated list of ``key=value`` pairs::

    crash=0.2,hang=0.05,transient=0.1,corrupt-cache=0.1,seed=7,hang-seconds=30

``crash``/``hang``/``transient``/``corrupt-cache``/``corrupt-state`` are
probabilities in ``[0, 1]`` (``corrupt-state`` is rolled per engine
round and flips live simulator state so the :mod:`repro.verify`
invariant layer can prove it detects corruption);
``coordinator-crash`` and ``service-kill`` target the *control plane*:
the fabric coordinator crash-restarts from its lease ledger, and a
dedicated service process hard-exits mid-dispatch (see
:func:`mark_service_process`);
``seed`` (int) decorrelates whole campaigns; and
``hang-seconds`` bounds an injected hang (default 3600 s -- effectively
forever next to any sane ``--timeout``, but the process stays killable).

Crash semantics
---------------
In a pool worker an injected crash calls :func:`os._exit`, which kills
the worker mid-task exactly like an OOM kill and surfaces to the
supervisor as a broken pool.  In-process (serial) execution raises
:class:`InjectedCrash` instead -- killing the caller's interpreter would
take the test runner down with it.  Worker processes self-identify via
the pool initializer (:func:`mark_worker_process`).
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

#: Environment variable holding the active fault spec (empty/absent = off).
FAULT_SPEC_ENV: str = "REPRO_FAULT_SPEC"

#: Exit code used by injected hard crashes (distinctive in core dumps/logs).
CRASH_EXIT_CODE: int = 77

#: Recognized spec keys and the FaultSpec field each maps to.
_SPEC_KEYS = {
    "crash": "crash",
    "hang": "hang",
    "transient": "transient",
    "corrupt-cache": "corrupt_cache",
    "corrupt-state": "corrupt_state",
    "drop": "drop",
    "duplicate": "duplicate",
    "delay": "delay",
    "partition": "partition",
    "slow-worker": "slow_worker",
    "coordinator-crash": "coordinator_crash",
    "service-kill": "service_kill",
    "seed": "seed",
    "hang-seconds": "hang_seconds",
    "delay-seconds": "delay_seconds",
    "partition-seconds": "partition_seconds",
    "slow-seconds": "slow_seconds",
}

#: FaultSpec fields that hold probabilities (validated to [0, 1] and
#: consulted by :attr:`FaultSpec.active`).
_PROBABILITY_FIELDS = (
    "crash",
    "hang",
    "transient",
    "corrupt_cache",
    "corrupt_state",
    "drop",
    "duplicate",
    "delay",
    "partition",
    "slow_worker",
    "coordinator_crash",
    "service_kill",
)

#: Corruption shapes a ``corrupt-state`` injection picks from, each
#: targeting a different invariant family (see
#: :func:`repro.sim.kernel.apply_state_corruption`).
CORRUPT_KINDS = ("wear", "mapping", "death")


class FaultSpecError(ValueError):
    """A fault spec string failed to parse or had out-of-range values."""


class InjectedCrash(RuntimeError):
    """An in-process stand-in for a worker crash (serial execution)."""


class TransientFault(RuntimeError):
    """An injected transient error; retryable by design."""


@dataclass(frozen=True)
class FaultSpec:
    """Probabilities and seed of one fault-injection campaign.

    Attributes
    ----------
    crash / hang / transient / corrupt_cache / corrupt_state:
        Per-attempt (per-store for ``corrupt_cache``, per-engine-round
        for ``corrupt_state``) injection probabilities in ``[0, 1]``.
    drop / duplicate / delay:
        Per-message network fault probabilities for the fabric wire
        layer: a dropped message is never sent (the sender's retransmit
        path recovers), a duplicated one is sent twice (the coordinator's
        idempotent commits absorb it), a delayed one sleeps
        ``delay_seconds`` before the send.
    partition:
        Per-lease probability that the worker holding the lease goes
        silent (no heartbeats, commit deferred ``partition_seconds`` over
        a fresh connection) -- the lease expires and the task is
        re-dispatched, exercising the duplicate-commit path.
    slow_worker:
        Per-attempt probability that a worker sleeps ``slow_seconds``
        before executing, long enough for a short lease to expire and
        the task to be stolen.
    coordinator_crash:
        Per-completed-task probability that the fabric *coordinator*
        crashes right after absorbing that task's completion -- the
        supervisor rebuilds it from the durable lease ledger and workers
        reconnect with backoff.
    service_kill:
        Per-dispatch probability that the job-service process hard-kills
        itself (``os._exit``) at the top of a dispatch, simulating a
        ``kill -9`` mid-batch; only armed in processes that called
        :func:`mark_service_process`, so embedded test services never
        take the test runner down.
    seed:
        Campaign seed; decorrelates otherwise-identical campaigns.
    hang_seconds / delay_seconds / partition_seconds / slow_seconds:
        Durations of the injected hang / message delay / partition /
        slow-worker stall.
    """

    crash: float = 0.0
    hang: float = 0.0
    transient: float = 0.0
    corrupt_cache: float = 0.0
    corrupt_state: float = 0.0
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    partition: float = 0.0
    slow_worker: float = 0.0
    coordinator_crash: float = 0.0
    service_kill: float = 0.0
    seed: int = 0
    hang_seconds: float = 3600.0
    delay_seconds: float = 0.05
    partition_seconds: float = 0.5
    slow_seconds: float = 0.25

    def __post_init__(self) -> None:
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultSpecError(
                    f"fault probability {name!r} must be in [0, 1], got {value!r}"
                )
        for key, field_name in _SPEC_KEYS.items():
            if not field_name.endswith("_seconds"):
                continue
            if getattr(self, field_name) < 0:
                raise FaultSpecError(
                    f"{key} must be >= 0, got {getattr(self, field_name)!r}"
                )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the ``key=value,...`` spec grammar (see module docstring)."""
        spec = cls()
        text = text.strip()
        if not text:
            return spec
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep:
                raise FaultSpecError(
                    f"malformed fault spec item {item!r}; expected key=value"
                )
            if key not in _SPEC_KEYS:
                raise FaultSpecError(
                    f"unknown fault spec key {key!r}; "
                    f"choose from {sorted(_SPEC_KEYS)}"
                )
            field_name = _SPEC_KEYS[key]
            try:
                value: object = int(raw) if field_name == "seed" else float(raw)
            except ValueError:
                raise FaultSpecError(
                    f"fault spec key {key!r} needs a number, got {raw!r}"
                ) from None
            spec = replace(spec, **{field_name: value})
        return spec

    def to_spec(self) -> str:
        """Render back to the spec grammar (parse/to_spec round-trips)."""
        parts = []
        defaults = FaultSpec()
        for key, field_name in _SPEC_KEYS.items():
            value = getattr(self, field_name)
            if value != getattr(defaults, field_name):
                rendered = str(int(value)) if field_name == "seed" else f"{value:g}"
                parts.append(f"{key}={rendered}")
        return ",".join(parts)

    @property
    def active(self) -> bool:
        """Whether any fault has a nonzero probability."""
        return any(getattr(self, name) > 0.0 for name in _PROBABILITY_FIELDS)


def _uniform(seed: int, kind: str, key: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one injection decision."""
    digest = hashlib.sha256(f"{seed}:{kind}:{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


class FaultInjector:
    """Executes one :class:`FaultSpec`'s injection decisions.

    All decisions are deterministic in ``(spec.seed, kind, key, attempt)``
    so a supervised retry of the same task re-rolls each fault
    independently of scheduling, process boundaries, or wall clock.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self._spec = spec
        self._injected = {
            "crash": 0,
            "hang": 0,
            "transient": 0,
            "corrupt-cache": 0,
            "corrupt-state": 0,
            "drop": 0,
            "duplicate": 0,
            "delay": 0,
            "partition": 0,
            "slow-worker": 0,
            "coordinator-crash": 0,
            "service-kill": 0,
        }

    @property
    def spec(self) -> FaultSpec:
        """The campaign spec this injector executes."""
        return self._spec

    @property
    def injected(self) -> dict:
        """Per-kind injection counts observed by *this process*."""
        return dict(self._injected)

    def _roll(self, kind: str, probability: float, key: str, attempt: int) -> bool:
        if probability <= 0.0:
            return False
        return _uniform(self._spec.seed, kind, key, attempt) < probability

    def before_execute(self, key: str, attempt: int) -> None:
        """Injection point at the top of a task attempt.

        Rolls crash, hang, and transient faults in that fixed order.  A
        crash either hard-exits (pool worker) or raises
        :class:`InjectedCrash` (in-process); a hang sleeps for
        ``hang_seconds``; a transient raises :class:`TransientFault`.
        """
        if self._roll("crash", self._spec.crash, key, attempt):
            self._injected["crash"] += 1
            if is_worker_process():
                os._exit(CRASH_EXIT_CODE)
            raise InjectedCrash(
                f"injected crash (task {key[:12]}..., attempt {attempt})"
            )
        if self._roll("hang", self._spec.hang, key, attempt):
            self._injected["hang"] += 1
            time.sleep(self._spec.hang_seconds)
        if self._roll("transient", self._spec.transient, key, attempt):
            self._injected["transient"] += 1
            raise TransientFault(
                f"injected transient fault (task {key[:12]}..., attempt {attempt})"
            )

    def message_fault(self, kind: str, channel: str, seq: int) -> bool:
        """Per-message network fault roll for the fabric wire layer.

        ``kind`` is ``"drop"``, ``"duplicate"``, or ``"delay"``;
        ``channel`` identifies the sender (shard id) and ``seq`` its
        message counter, so every retransmission re-rolls independently
        -- a dropped commit's resend can get through, exactly as a
        retried attempt can escape a transient.
        """
        probability = getattr(self._spec, kind)
        hit = self._roll(kind, probability, f"msg:{channel}", seq)
        if hit:
            self._injected[kind] += 1
        return hit

    def partition_now(self, channel: str, lease_seq: int) -> bool:
        """Whether the worker should simulate a partition for this lease
        (silent heartbeats + deferred commit over a fresh connection)."""
        hit = self._roll("partition", self._spec.partition, f"lease:{channel}", lease_seq)
        if hit:
            self._injected["partition"] += 1
        return hit

    def slow_worker_stall(self, key: str, attempt: int) -> float:
        """Pre-execution stall seconds for a slow-worker injection
        (0.0 when the roll misses); deterministic in ``(key, attempt)``
        like the crash/hang/transient rolls."""
        if not self._roll("slow-worker", self._spec.slow_worker, key, attempt):
            return 0.0
        self._injected["slow-worker"] += 1
        return self._spec.slow_seconds

    def coordinator_crash_now(self, key: str) -> bool:
        """Whether the coordinator should crash after absorbing the
        completion of the task identified by ``key``.

        Rolled once per task (attempt 0): a task completes exactly once,
        so a hit schedules exactly one crash and the campaign always
        converges -- after the rebuild that key is done and never
        re-rolls.
        """
        hit = self._roll(
            "coordinator-crash", self._spec.coordinator_crash, f"coord:{key}", 0
        )
        if hit:
            self._injected["coordinator-crash"] += 1
        return hit

    def service_kill_now(self, batch_key: str, dispatch_attempt: int) -> bool:
        """Whether the service process should hard-kill itself at the top
        of this dispatch of ``batch_key``.

        ``dispatch_attempt`` is the job's durable dispatch counter, so a
        restarted service re-rolls with a fresh attempt number and a
        sub-1.0 probability always lets the job through eventually.
        Only returns ``True`` in a process marked via
        :func:`mark_service_process`.
        """
        if not is_service_process():
            return False
        hit = self._roll(
            "service-kill", self._spec.service_kill, f"svc:{batch_key}", dispatch_attempt
        )
        if hit:
            self._injected["service-kill"] += 1
        return hit

    def corrupt_cache_entry(self, key: str) -> bool:
        """Whether the cache entry being stored under ``key`` should be
        written corrupted (truncated mid-JSON)."""
        hit = self._roll("corrupt-cache", self._spec.corrupt_cache, key, 0)
        if hit:
            self._injected["corrupt-cache"] += 1
        return hit

    def corrupt_state(self, key: str, round_index: int) -> Optional[str]:
        """Injection point at the top of an engine round.

        Returns the corruption kind to apply (one of
        :data:`CORRUPT_KINDS`) or ``None``.  Both the hit decision and
        the kind are deterministic in ``(seed, key, round_index)`` so a
        replayed bundle re-corrupts the same round the same way.
        """
        if not self._roll(
            "corrupt-state", self._spec.corrupt_state, key, round_index
        ):
            return None
        self._injected["corrupt-state"] += 1
        draw = _uniform(self._spec.seed, "corrupt-state-kind", key, round_index)
        return CORRUPT_KINDS[int(draw * len(CORRUPT_KINDS)) % len(CORRUPT_KINDS)]


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------

_installed: Optional[FaultInjector] = None
_env_injector: Optional[FaultInjector] = None
_env_text: Optional[str] = None
_is_worker = False
_is_service = False
_task_local = threading.local()


@contextmanager
def task_scope(key: str) -> Iterator[None]:
    """Pin the supervised task key for the duration of one attempt.

    The engine's state-corruption rolls and the shadow-audit sampler key
    off the executing task so decisions survive retries, process
    boundaries, and scheduling order.  Standalone runs (no supervisor)
    see an empty key and derive one from the run's own identity.

    The pin is thread-local: the job service's dispatcher threads run
    attempts concurrently with other code in the same process, and a
    run on one thread must never inherit the key of a task executing
    on another -- the corruption rolls would silently re-key.
    """
    previous = getattr(_task_local, "key", "")
    _task_local.key = key
    try:
        yield
    finally:
        _task_local.key = previous


def active_task_key() -> str:
    """The task key pinned by the calling thread's :func:`task_scope` (or "")."""
    return getattr(_task_local, "key", "")


def install(spec: "FaultSpec | str | None") -> Optional[FaultInjector]:
    """Install ``spec`` as this process's active injector (None = off).

    Test-code route; takes precedence over the environment variable.
    Returns the installed injector (``None`` for an inactive spec).
    """
    global _installed
    if spec is None:
        _installed = None
        return None
    if isinstance(spec, str):
        spec = FaultSpec.parse(spec)
    _installed = FaultInjector(spec) if spec.active else None
    return _installed


def active_injector() -> Optional[FaultInjector]:
    """The process's active injector, or ``None`` when faults are off.

    Resolution order: an explicitly :func:`install`-ed injector, then the
    ``REPRO_FAULT_SPEC`` environment variable (parsed once per distinct
    value, so workers pay the parse cost only on their first task).
    """
    global _env_injector, _env_text
    if _installed is not None:
        return _installed
    text = os.environ.get(FAULT_SPEC_ENV, "")
    if not text:
        return None
    if text != _env_text:
        spec = FaultSpec.parse(text)
        _env_injector = FaultInjector(spec) if spec.active else None
        _env_text = text
    return _env_injector


def mark_worker_process(fault_spec_text: str = "") -> None:
    """Pool-worker initializer: enable hard crashes and seed the spec.

    Passing the spec text explicitly makes workers independent of
    environment inheritance quirks (e.g. ``forkserver`` preloading).
    Also restores the default SIGTERM disposition: forked workers would
    otherwise inherit the supervisor's SIGTERM-to-KeyboardInterrupt
    handler and die with spurious tracebacks when the pool is torn down.
    """
    global _is_worker
    _is_worker = True
    if fault_spec_text:
        os.environ[FAULT_SPEC_ENV] = fault_spec_text
    try:
        import signal

        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ImportError, ValueError, OSError, AttributeError):
        pass


def is_worker_process() -> bool:
    """Whether this process marked itself as a pool worker."""
    return _is_worker


def mark_service_process() -> None:
    """Arm ``service-kill`` injections in this process.

    Called by the ``repro.service`` entry point only.  Embedded services
    (a :class:`~repro.service.core.SimService` constructed inside a test
    process) never mark themselves, so a ``service-kill`` spec can be
    active fleet-wide without ever hard-exiting the test runner.
    """
    global _is_service
    _is_service = True


def is_service_process() -> bool:
    """Whether this process marked itself as a dedicated service process."""
    return _is_service
