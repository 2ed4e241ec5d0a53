"""The trial-stacked ``fluid-ensemble`` lifetime engine.

``simulate_lifetime`` runs one device; a Monte-Carlo study runs hundreds
of statistically independent replicas whose per-run cost is dominated by
dispatch and initialization, not kernel math (see BENCH_engine.json).
This engine amortizes that overhead by advancing ``T`` trials through
one engine invocation:

* **Stacked scheme state** -- per-trial sparing bookkeeping lives in
  ``(trials, ...)`` tensors behind the
  :class:`~repro.sparing.base.BatchedSchemeState` protocol.  Eligible
  schemes (Max-WE in the paper configuration) build all ``T`` allocation
  plans with one batch of cross-trial array operations; everything else
  falls back to real per-trial instances
  (:class:`~repro.sparing.base.FallbackSchemeState`), which is always
  correct, just without the stacked-init speedup.
* **Shared spectral quantities** -- the wear-weight ``math.fsum`` and
  ``w_max`` are computed once per distinct weight vector and reused
  across trials (identical inputs give identical floats, so sharing is
  bit-safe).

Every trial then runs the one batched epoch kernel,
:func:`repro.sim.kernel.advance_trial`, on its own row -- the same loop
solo ``fluid-batched`` runs as a one-trial case -- so per-trial
:class:`~repro.sim.result.SimulationResult` objects are bit-identical to
solo runs of the same seeds (only ``metadata["engine"]`` differs), which
the differential tests pin.

Trials that die early simply stop: advancement is per-trial over the
stacked state, so a trial failing in epoch 0 contributes no further
work.  Paranoia guards are supported through the fallback scheme state
(one :class:`~repro.verify.invariants.EngineGuard` per trial, views
tagged with the trial index); ``shadow_sample > 0`` delegates each
member to the solo engine so the audit machinery applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import PROFILE_UNIFORM, AttackModel
from repro.device.faults import FaultModel
from repro.endurance.emap import EnduranceMap
from repro.obs.metrics import MetricsRegistry, maybe_span
from repro.sim.faults import FaultInjector, active_injector, active_task_key
from repro.sim.kernel import advance_trial, set_up_trial, weight_stats
from repro.sim.result import SimulationResult
from repro.sparing.base import (
    BatchedSchemeState,
    FallbackSchemeState,
    SpareScheme,
)
from repro.util.rng import RandomState, derive_rng
from repro.verify.invariants import EngineGuard, InvariantViolation, normalize_paranoia
from repro.verify.snapshot import write_violation_bundle
from repro.wearlevel.base import WearLeveler
from repro.wearlevel.none import NoWearLeveling

#: The engine name this module implements.
ENGINE_NAME = "fluid-ensemble"

@dataclass
class EnsembleMember:
    """One trial of an ensemble: a full device/attack/defence combination.

    Components must be fresh per member (schemes and wear-levelers are
    stateful); ``rng`` is the member's master seed, forked exactly as the
    solo engine forks it.
    """

    emap: EnduranceMap
    attack: AttackModel
    sparing: SpareScheme
    wearleveler: Optional[WearLeveler] = None
    fault_model: Optional[FaultModel] = None
    rng: RandomState = None


def _delegate_with_shadow(
    member: EnsembleMember,
    *,
    record_timeline: bool,
    metrics: Optional[MetricsRegistry],
    paranoia: str,
    shadow_sample: float,
) -> SimulationResult:
    """Run one member on the solo engine so shadow audits apply unchanged."""
    from repro.sim.lifetime import simulate_lifetime

    result = simulate_lifetime(
        member.emap,
        member.attack,
        member.sparing,
        member.wearleveler,
        member.fault_model,
        member.rng,
        engine="fluid-batched",
        record_timeline=record_timeline,
        metrics=metrics,
        paranoia=paranoia,
        shadow_sample=shadow_sample,
    )
    metadata = dict(result.metadata)
    metadata["engine"] = ENGINE_NAME
    return SimulationResult(
        writes_served=result.writes_served,
        total_endurance=result.total_endurance,
        deaths=result.deaths,
        replacements=result.replacements,
        failure_reason=result.failure_reason,
        metadata=metadata,
        timeline=result.timeline,
    )


def simulate_ensemble(
    members: Sequence[EnsembleMember],
    *,
    record_timeline: bool = False,
    max_timeline_events: int = 100_000,
    metrics: Optional[MetricsRegistry] = None,
    paranoia: str = "off",
    shadow_sample: float = 0.0,
) -> List[SimulationResult]:
    """Advance every member to device failure; one result per member.

    Results are index-aligned with ``members`` and bit-identical to solo
    ``fluid-batched`` runs of the same members (``metadata["engine"]``
    aside), independent of how members are grouped into ensembles.
    """
    if not members:
        raise ValueError("an ensemble needs at least one member")
    paranoia = normalize_paranoia(paranoia)
    shadow_sample = float(shadow_sample)
    if not 0.0 <= shadow_sample <= 1.0:
        raise ValueError(f"shadow_sample must be in [0, 1], got {shadow_sample!r}")
    if shadow_sample > 0.0:
        for member in members:
            if not isinstance(member.rng, (int, np.integer)):
                raise ValueError(
                    "shadow audits require integer rng seeds: the audit "
                    "re-executes each member from scratch, which a stateful "
                    "Generator (or None) cannot reproduce deterministically"
                )
        return [
            _delegate_with_shadow(
                member,
                record_timeline=record_timeline,
                metrics=metrics,
                paranoia=paranoia,
                shadow_sample=shadow_sample,
            )
            for member in members
        ]

    schemes = [member.sparing for member in members]
    emaps = [member.emap for member in members]
    with maybe_span(metrics, "sim/init"):
        # Stacked scheme state skips the RMT/LMT ledgers the guards
        # audit, so it is only eligible with paranoia off.
        state: Optional[BatchedSchemeState] = None
        if paranoia == "off":
            state = type(schemes[0]).make_batched_state(schemes, emaps)
        if state is None:
            for member in members:
                member.sparing.initialize(
                    member.emap, derive_rng(member.rng, "sparing")
                )
            state = FallbackSchemeState(schemes)

    injector = active_injector()
    corruptor: Optional[FaultInjector] = (
        injector
        if injector is not None and injector.spec.corrupt_state > 0.0
        else None
    )
    task_key = active_task_key() if corruptor is not None else ""

    # Distinct weight vectors are rare (one per attack/wear-level config),
    # so fsum and w_max are shared across trials with equal weights; a
    # short cache keeps the comparison cost linear for mixed ensembles.
    weight_cache: List[Tuple[np.ndarray, float, float]] = []
    # NoWearLeveling's uniform-profile distribution is a pure function of
    # the slot count (np.full(slots, 1/slots), eta 1, no rng use), so the
    # first such member's build serves every later member with the same
    # count -- skipping attach(), wear_weights() and the element-wise
    # weight-cache comparison entirely.  Keyed by slot count.
    uniform_cache: dict = {}
    from repro.sim.lifetime import accounting_tolerance

    results: List[SimulationResult] = []
    for index, member in enumerate(members):
        with maybe_span(metrics, "sim/init"):
            fault_model = (
                member.fault_model if member.fault_model is not None else FaultModel()
            )
            endurance = fault_model.effective_endurance(member.emap.line_endurance)
            total_endurance = float(endurance.sum())

            backing = state.backing(index)
            slots = backing.size
            min_user_slots = min(state.min_user_slots(index), slots)

            profile = member.attack.profile(slots)

            # Generator rngs are excluded from the cached path: a hit
            # would skip attach()'s derive_rng, which for a Generator
            # consumes parent state that later members observe.  Integer
            # seeds derive purely, so skipping the draw changes nothing.
            cache_eligible = (
                member.wearleveler is None
                and profile.kind == PROFILE_UNIFORM
                and not isinstance(member.rng, np.random.Generator)
            )
            w_scalar: Optional[float] = None
            cached_uniform = uniform_cache.get(slots) if cache_eligible else None
            if cached_uniform is not None:
                weights, eta, active_weight, w_max, wl_desc = cached_uniform
                w_scalar = float(weights[0])
                current_death = set_up_trial(
                    endurance, backing, profile, member.rng, uniform=(weights, eta)
                ).current_death
            else:
                wl = (
                    member.wearleveler
                    if member.wearleveler is not None
                    else NoWearLeveling()
                )
                weights, eta, current_death, all_prone = set_up_trial(
                    endurance, backing, profile, member.rng, wearleveler=wl
                )

                active_weight = None
                w_max = 0.0
                for cached, cached_sum, cached_max in weight_cache:
                    if cached.shape == weights.shape and np.array_equal(
                        cached, weights
                    ):
                        active_weight, w_max = cached_sum, cached_max
                        break
                if active_weight is None:
                    active_weight, w_max, _ = weight_stats(weights)
                    if len(weight_cache) < 8:
                        weight_cache.append((weights, active_weight, w_max))
                wl_desc = wl.describe()
                if cache_eligible and all_prone:
                    uniform_cache[slots] = (
                        weights, eta, active_weight, w_max, wl_desc
                    )

            attack_desc = member.attack.describe()
            sparing_desc = state.describe(index)
            fault_desc = fault_model.describe()

            guard: Optional[EngineGuard] = None
            if paranoia != "off":
                scheme = state.scheme(index)
                assert scheme is not None  # guards force the fallback state
                guard = EngineGuard(
                    paranoia,
                    sparing=scheme,
                    endurance=endurance,
                    weights=weights,
                    eta=eta,
                    total_endurance=total_endurance,
                    tolerance=accounting_tolerance,
                    metrics=metrics,
                    repro={
                        "seed": repr(member.rng),
                        "engine": ENGINE_NAME,
                        "attack": attack_desc,
                        "sparing": sparing_desc,
                        "wearleveler": wl_desc,
                        "paranoia": paranoia,
                        "shadow_sample": shadow_sample,
                        "trial": index,
                    },
                )
                guard.start(backing)

            integrity_key = ""
            if corruptor is not None:
                identity = "|".join(
                    (attack_desc, sparing_desc, wl_desc, repr(member.rng), ENGINE_NAME)
                )
                integrity_key = (
                    f"{task_key}#trial={index}" if task_key else identity
                )

        with maybe_span(metrics, "sim/kernel"):
            try:
                served, deaths, replacements, failure_reason, timeline, extra_meta = (
                    advance_trial(
                        state,
                        index,
                        endurance=endurance,
                        backing=backing,
                        weights=weights,
                        eta=eta,
                        current_death=current_death,
                        min_user_slots=min_user_slots,
                        active_weight=active_weight,
                        w_max=w_max,
                        guard=guard,
                        corruptor=corruptor,
                        integrity_key=integrity_key,
                        total_endurance=total_endurance,
                        record_timeline=record_timeline,
                        max_timeline_events=max_timeline_events,
                        w_scalar=w_scalar,
                        metrics=metrics,
                    )
                )
            except InvariantViolation as violation:
                write_violation_bundle(violation)
                raise

        if metrics is not None:
            metrics.inc("sim.runs")
            metrics.inc("sim.deaths", deaths)
            metrics.inc("sim.replacements", replacements)
            for name, value in extra_meta.items():
                metrics.inc(f"sim.{name}", value)
            metrics.observe("sim.deaths_per_run", deaths)

        metadata = {
            "attack": attack_desc,
            "wearleveler": wl_desc,
            "sparing": sparing_desc,
            "fault_model": fault_desc,
            "slots": slots,
            "engine": ENGINE_NAME,
            **extra_meta,
        }
        results.append(
            SimulationResult(
                writes_served=served,
                total_endurance=total_endurance,
                deaths=deaths,
                replacements=replacements,
                failure_reason=failure_reason,
                metadata=metadata,
                timeline=tuple(timeline),
            )
        )
    if metrics is not None:
        metrics.inc("sim.ensembles")
    return results
