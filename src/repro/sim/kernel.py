"""The batched epoch kernel shared by ``fluid-batched`` and ``fluid-ensemble``.

:func:`advance_trial` advances one trial's death-time row to device
failure.  Solo ``fluid-batched`` runs it once over a one-trial
:class:`~repro.sparing.base.FallbackSchemeState`; ``fluid-ensemble``
runs it per trial over a stacked state.  Both engines therefore share
one selection pipeline, one accounting order and one set of counters,
and a trial's result does not depend on which engine drove it.  They
also share one per-trial set-up, :func:`set_up_trial`, which builds the
trial's wear weights and initial death-time row.

Each epoch selects the next deaths in ``(time, slot)`` order, cuts them
to the chronologically safe prefix ``time < first + floor / w_max``
(see :mod:`repro.sim.lifetime`), decides them in one
``replace_batch`` call and integrates the served writes with a
cumulative sum.  Four accelerators change how an epoch is *found*,
never which deaths it holds:

* **Work set.**  When the scheme never removes slots, every slot is
  wear-prone and the scheme bounds its remaining replacements
  (``capacity``), only the ``capacity + BATCH_LIMIT`` smallest initial
  death times can ever be selected.  One value partition at start-up
  copies those slots into compact rows; every excluded slot dies at or
  after the partition threshold, the *sentinel*.  :func:`select_epoch`
  then scans the compact row, and an epoch is accepted only when its
  boundary provably sits below the sentinel: either the safe-prefix
  bound does, or the ``BATCH_LIMIT`` cap binds strictly below both the
  bound and the sentinel (every time below the sentinel is in the row,
  so the row's ``BATCH_LIMIT``-th smallest value is the full array's).
  Otherwise the rows are published back and the trial continues on the
  full arrays.
* **Near window.**  The same construction one level down: when the work
  row is longer than ``NEAR_WINDOW_ENGAGE`` windows, a second compact
  row holds every work-row time below a *cut* (the ``NEAR_WINDOW``
  smallest, ties at the cut left out), and epochs are selected on it
  with ``min(cut, sentinel)`` as the sentinel.  Deaths of window slots
  are written to both rows.  A window that cannot prove an epoch is
  refreshed once from the work row; if the fresh one cannot either, the
  epoch is selected on the work row as before.  The window is dropped
  when the frontier regime starts or an epoch is selected elsewhere,
  and rebuilt lazily.
* **Death frontier.**  After ``SEQUENTIAL_ENTER_STREAK`` one-death
  epochs, a :class:`~repro.sim.frontier.DeathFrontier` over the row
  pops provably identical epochs in O(log work set) per death, with the
  work-set sentinel as its ceiling.
* **Scalar one-death path.**  When the trial has a real scheme instance,
  a one-death frontier epoch calls the scalar
  :meth:`~repro.sparing.base.SpareScheme.replace` and evaluates the
  element-wise forms of the array expressions, bit for bit.

Counters returned as extra metadata: ``epochs`` (passes that processed
deaths), ``sequential_rounds`` (frontier-served epochs),
``regime_switches`` (frontier entries and exits) and ``full_scans``
(O(slots) selection passes: each work-set build and each epoch selected
over the full death-time array; passes over the compact work row are not
counted).  ``window_refreshes`` (near-window builds, each one partition
of the work row) goes to the metrics registry only, as
``sim.window_refreshes``, so result bodies stay unchanged.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.attacks.base import AccessProfile
from repro.obs.metrics import MetricsRegistry
from repro.sim.faults import FaultInjector
from repro.sim.frontier import DeathFrontier
from repro.sim.result import TimelineEvent
from repro.sparing.base import (
    BATCH_EXTEND,
    BATCH_FAIL,
    BATCH_REMOVE,
    BATCH_REPLACE,
    BatchedSchemeState,
    ExtendBudget,
    RemoveSlot,
    ReplaceWith,
)
from repro.util.rng import RandomState, derive_rng
from repro.verify.invariants import EngineGuard
from repro.wearlevel.base import WearLeveler

DEGENERATE_REASON = "no wear-prone traffic (simulation degenerate)"
EXHAUSTED_REASON = "all wear-prone slots exhausted"

ACTION_NAMES = {
    BATCH_REPLACE: "replaced",
    BATCH_EXTEND: "extended",
    BATCH_REMOVE: "removed",
    BATCH_FAIL: "device-failed",
}

#: Shared empty index array for schemes that never remove slots.
_EMPTY_POSITIONS = np.empty(0, dtype=np.intp)

KernelResult = Tuple[float, int, int, str, List[TimelineEvent], dict]


def apply_state_corruption(
    kind: str,
    served: float,
    backing: np.ndarray,
    current_death: np.ndarray,
    total_endurance: float,
) -> float:
    """Apply one injected ``corrupt-state`` fault to live engine state.

    Returns the (possibly corrupted) served-writes accumulator.  Three
    deterministic corruption shapes, each targeted at a different
    invariant family:

    * ``wear`` -- inflate the served-writes integral (wear conservation);
    * ``mapping`` -- point one live slot at another's backing line
      (mapping consistency / duplicate physical lines);
    * ``death`` -- schedule a slot to die in the past (non-negative
      endurance).

    Falls back to ``wear`` when the targeted corruption needs live slots
    the current state no longer has, so an injection never no-ops.
    """
    finite = np.flatnonzero(np.isfinite(current_death))
    if kind == "mapping" and finite.size >= 2:
        backing[finite[0]] = backing[finite[1]]
        return served
    if kind == "death":
        slot = int(finite[0]) if finite.size else 0
        current_death[slot] = -1.0
        return served
    return served + 0.25 * total_endurance + 1.0


def weight_stats(weights: np.ndarray) -> Tuple[float, float, Optional[float]]:
    """``(total, maximum, constant)`` of a wear-weight vector.

    ``total`` is the correctly rounded sum, as :func:`math.fsum` computes
    it: a uniform 20-slot profile must sum to 1.0, not 1.0 + 1ulp, or
    every served increment carries the error.  A constant vector skips
    the element-by-element fsum -- ``n * w`` is the correctly rounded
    value of the same exact sum -- and reports ``w`` as ``constant``
    (``None`` otherwise).
    """
    if not weights.size:
        return 0.0, 0.0, None
    w_max = float(weights.max())
    if float(weights.min()) == w_max:
        return weights.size * w_max, w_max, w_max
    return math.fsum(weights), w_max, None


class TrialSetup(NamedTuple):
    """One trial's wear weights and initial death-time row."""

    weights: np.ndarray
    eta: float
    current_death: np.ndarray
    #: Every weight is positive (every slot can die).
    all_prone: bool


def set_up_trial(
    endurance: np.ndarray,
    backing: np.ndarray,
    profile: AccessProfile,
    rng: RandomState,
    wearleveler: Optional[WearLeveler] = None,
    uniform: Optional[Tuple[np.ndarray, float]] = None,
) -> TrialSetup:
    """Build a trial's weights and initial death times from its backing.

    Gathers the slots' budgets ``endurance[backing]`` once (converted only
    when not already float64), attaches ``wearleveler`` to them and asks
    it for the weights of ``profile``.  The attached wear-leveler keeps
    the budget buffer, so the death times are a fresh quotient: one
    unmasked divide when every weight is positive, otherwise ``inf`` for
    the slots that never wear.

    ``uniform = (weights, eta)`` instead reuses a constant, all-positive
    distribution built for an earlier trial of the same slot count: no
    wear-leveler is attached (its endurance validation is kept), and the
    budgets, which nothing else holds, are divided in place by the
    scalar weight -- bit-identical to the element-wise quotient.
    """
    budgets = endurance[backing]
    if budgets.dtype != np.float64:
        budgets = budgets.astype(float)
    if uniform is not None:
        if not budgets.min() > 0:
            raise ValueError("slot endurances must be strictly positive")
        weights, eta = uniform
        current_death = np.divide(budgets, float(weights[0]), out=budgets)
        return TrialSetup(weights, eta, current_death, True)
    assert wearleveler is not None
    wearleveler.attach(budgets, derive_rng(rng, "wearlevel"))
    distribution = wearleveler.wear_weights(profile)
    weights = np.asarray(distribution.weights, dtype=float)
    if weights.size != backing.size:
        raise ValueError(
            f"wear-leveler produced {weights.size} weights for {backing.size} slots"
        )
    # ``min() > 0`` is the allocation-free spelling of
    # ``(weights > 0).all()``; weights are finite by contract.
    all_prone = backing.size > 0 and bool(weights.min() > 0.0)
    if all_prone:
        current_death = budgets / weights
    else:
        prone = weights > 0.0
        current_death = np.full(backing.size, math.inf)
        current_death[prone] = budgets[prone] / weights[prone]
    return TrialSetup(weights, distribution.useful_fraction, current_death, all_prone)


def _partition_below(
    row: np.ndarray, limit: int, batch_limit: int
) -> Optional[Tuple[np.ndarray, float]]:
    """Positions of every value of ``row`` strictly below its
    ``limit + 1``-th smallest value, ascending, and that value.

    This builds both compact rows of :func:`advance_trial`, the work set
    and the near window.  Ties at the threshold land outside, so every
    value left out is at or above it: the threshold is the ``sentinel``
    :func:`select_epoch` needs.  Returns ``None`` unless more than
    ``batch_limit`` positions qualify, so in-row partitions stay possible.
    Requires ``limit < row.size``.
    """
    threshold = float(np.partition(row, limit)[limit])
    positions = np.flatnonzero(row < threshold)
    if positions.size <= batch_limit:
        return None
    return positions, threshold


def select_epoch(
    row: np.ndarray,
    floor: float,
    w_max: float,
    batch_limit: int,
    sentinel: float = math.inf,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Select one epoch from a row of finite death times.

    Returns ``(positions, times)`` sorted by ``(time, position)``, the
    exact epoch the general pipeline of :func:`_scan_epoch` selects --
    ``batch_limit`` nearest deaths, trimmed to a complete time prefix,
    cut at the safe bound ``min + floor / w_max`` -- but found by value:

    * with fewer than ``batch_limit`` times below the bound, the epoch is
      exactly ``{time < bound}`` and no partition runs (the common case);
    * otherwise the ``batch_limit``-th smallest time ``t_max`` caps it:
      ``{time < t_max}``, or the whole tie class at ``t_max`` when
      nothing lies strictly below.

    With a finite ``sentinel`` the row is a work set: every death time
    missing from it is ``>= sentinel``.  The epoch is then returned only
    when its boundary is provably below the sentinel -- the bound is at
    or below it, or the cap binds strictly below both bound and
    sentinel, in which case the row holds every time below the sentinel
    and so the full array's ``batch_limit``-th smallest value.  ``None``
    means the row cannot prove the epoch.
    """
    over = row.size > batch_limit
    bound = math.inf
    capped = False
    if math.isinf(floor):
        capped = over
        if not capped:
            pos = np.arange(row.size, dtype=np.intp)
    else:
        t_min = float(row.min())
        bound = t_min + floor / w_max
        if bound <= sentinel:
            pos = np.flatnonzero(row < bound)
            if over and pos.size >= batch_limit:
                # The cap binds inside the bound: the batch_limit-th
                # smallest time of the row is that of ``row[pos]``.
                below = row[pos]
                t_max = np.partition(below, batch_limit - 1)[batch_limit - 1]
                cut = below < t_max
                pos = pos[cut] if cut.any() else pos[below == t_max]
            elif not pos.size:
                # Degenerate floor == 0.0: the safe prefix keeps exactly
                # the earliest death, ties broken by position.
                if not t_min < sentinel:
                    return None
                pos = np.flatnonzero(row == t_min)[:1]
        elif over:
            # Only the batch cap can still put the boundary below the
            # sentinel.
            capped = True
        else:
            return None
    if capped:
        t_max = np.partition(row, batch_limit - 1)[batch_limit - 1]
        if not (t_max < sentinel and t_max < bound):
            return None
        pos = np.flatnonzero(row < t_max)
        if not pos.size:
            pos = np.flatnonzero(row == t_max)
    times = row[pos]
    # Positions ascend, so a stable time sort is the (time, position)
    # order.  Ties are common (region-mates share an endurance).
    order = np.argsort(times, kind="stable")
    return pos[order], times[order]


def _scan_epoch(
    current_death: np.ndarray,
    floor: Optional[float],
    w_max: float,
    batch_limit: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """General epoch selection over every finite death time.

    Takes the ``batch_limit`` nearest deaths, trims them to a complete
    time prefix, sorts by ``(time, slot)`` and cuts at the safe bound
    (``floor is None`` delivers one death).  Returns ``None`` when no
    slot can die any more.
    """
    candidates = np.flatnonzero(np.isfinite(current_death))
    if candidates.size == 0:
        return None
    if candidates.size > batch_limit:
        nearest = np.argpartition(current_death[candidates], batch_limit - 1)[
            :batch_limit
        ]
        sel = candidates[nearest]
        times = current_death[sel]
        # argpartition breaks time ties arbitrarily at the cut, so trim
        # to a *complete* time-prefix: everything strictly before the
        # selection's max time, or -- when the whole selection ties --
        # the full tie class.
        t_max = times.max()
        strictly_before = times < t_max
        if strictly_before.any():
            sel = sel[strictly_before]
            times = times[strictly_before]
        else:
            sel = candidates[current_death[candidates] == t_max]
            times = current_death[sel]
    else:
        sel = candidates
        times = current_death[sel]
    order = np.lexsort((sel, times))
    sel = sel[order]
    times = times[order]
    if floor is None:
        prefix = 1
    elif math.isinf(floor):
        prefix = sel.size
    else:
        bound = times[0] + floor / w_max
        prefix = max(int(np.searchsorted(times, bound, side="left")), 1)
    return sel[:prefix], times[:prefix]


def _tighten_w_max(
    weights: np.ndarray,
    current_death: np.ndarray,
    w_max_active: float,
    w_max_live: int,
    dead_w: np.ndarray,
) -> Tuple[float, int]:
    """Update the still-prone maximum weight after removals.

    Slots only ever leave the prone set, so the last recomputed maximum
    stays a valid bound; ``w_max_live`` lazily counts the prone slots at
    it (``-1`` = not yet counted) and the maximum is recomputed only when
    that count reaches zero.
    """
    hits = int(np.count_nonzero(dead_w == w_max_active))
    if not hits:
        return w_max_active, w_max_live
    if w_max_live < 0:
        w_max_live = int(
            np.count_nonzero(weights[np.isfinite(current_death)] == w_max_active)
        )
    else:
        w_max_live -= hits
    if w_max_live == 0:
        survivors = weights[np.isfinite(current_death)]
        if survivors.size:
            w_max_active = float(survivors.max())
            w_max_live = int(np.count_nonzero(survivors == w_max_active))
    return w_max_active, w_max_live


def advance_trial(
    state: BatchedSchemeState,
    trial: int,
    *,
    endurance: np.ndarray,
    backing: np.ndarray,
    weights: np.ndarray,
    eta: float,
    current_death: np.ndarray,
    min_user_slots: int,
    active_weight: float,
    w_max: float,
    guard: Optional[EngineGuard] = None,
    corruptor: Optional[FaultInjector] = None,
    integrity_key: str = "",
    total_endurance: float = 0.0,
    record_timeline: bool = False,
    max_timeline_events: int = 100_000,
    w_scalar: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    tag_views: bool = True,
) -> KernelResult:
    """Advance trial ``trial`` of ``state`` to device failure.

    ``backing`` and ``current_death`` are the trial's live slot-to-line
    map and death-time row (mutated in place); ``active_weight`` must be
    the ``math.fsum`` of ``weights`` and ``w_max`` their maximum.
    ``w_scalar`` may be set when every weight equals it: scalar
    divisions then replace the element-wise gathers bit-identically.
    ``tag_views=False`` leaves guard views untagged, as solo runs report
    them.  Returns ``(served, deaths, replacements, failure_reason,
    timeline, extra_meta)``.

    The tuning constants are read from :mod:`repro.sim.lifetime` at call
    time, so tests can patch them there.
    """
    from repro.sim import lifetime as tuning

    batch_limit = tuning.BATCH_LIMIT
    epoch_cap = min(tuning.SEQUENTIAL_EPOCH_CAP, batch_limit - 1)
    served = 0.0
    v_now = 0.0
    deaths = 0
    rounds = 0
    replacements = 0
    epochs = 0
    live_count = backing.size
    failure_reason = DEGENERATE_REASON
    timeline: List[TimelineEvent] = []
    floor = state.replacement_extra_floor(trial)
    # A real scheme instance serves one-death frontier epochs through its
    # scalar replace(); stacked states have none.
    scheme = state.scheme(trial)
    # Safe-prefix bound over the largest weight among *still prone*
    # slots (see _tighten_w_max).
    w_max_active = w_max
    w_max_live = -1
    # Guards re-inspect full state every round and corruption mutates it
    # behind any index's back, so both pin the kernel to full-array
    # vectorized epochs.
    audited = guard is not None or corruptor is not None
    frontier: Optional[DeathFrontier] = None
    sequential_ok = not audited
    size1_streak = 0
    sequential_rounds = 0
    regime_switches = 0
    full_scans = 0

    # Value selection needs every death time finite for the trial's whole
    # life: no removals (scheme promise) and every slot wear-prone.
    fast = (
        state.never_removes
        and not audited
        and floor is not None
        and backing.size > 0
        and bool(weights.min() > 0.0)
    )

    # The rows every epoch reads and scatters: the full arrays, or --
    # with a work set -- compact copies of the work slots (``work`` maps
    # row positions to slots; ``None`` is the identity).  A replacement's
    # next death lands at or above the bound of the epoch that granted
    # it, so with at most ``capacity`` replacements left and at most
    # ``BATCH_LIMIT`` deaths per epoch, every epoch draws from the
    # ``capacity + BATCH_LIMIT`` smallest initial death times.
    work: Optional[np.ndarray] = None
    sentinel = math.inf
    cd_row, bk_row = current_death, backing
    w_row: Optional[np.ndarray] = weights
    if fast:
        capacity = state.replacement_capacity(trial)
        if capacity is not None:
            limit = int(capacity) + batch_limit + 1
            if limit < current_death.size:
                full_scans += 1
                built = _partition_below(current_death, limit, batch_limit)
                if built is not None:
                    work, sentinel = built
                    cd_row = current_death[work]
                    bk_row = backing[work]
                    w_row = weights[work] if w_scalar is None else None

    # The near window over a long work row: ``cd_near`` holds every
    # work-row time below ``cut`` (``near`` maps its positions to
    # work-row positions; ``None`` = no window), so every full-array time
    # below ``min(cut, sentinel)`` is in it -- the work-set proof one
    # level down.
    near: Optional[np.ndarray] = None
    cd_near = cd_row
    cut = math.inf
    window_size = tuning.NEAR_WINDOW
    window_engage = tuning.NEAR_WINDOW_ENGAGE * window_size
    window_refreshes = 0

    def refresh_window() -> bool:
        nonlocal near, cd_near, cut, window_refreshes
        near = None
        if cd_row.size <= window_engage:
            return False
        window_refreshes += 1
        built = _partition_below(cd_row, window_size, batch_limit)
        if built is None:
            return False
        near, cut = built
        cd_near = cd_row[near]
        return True

    def window_epoch() -> Optional[Tuple[np.ndarray, np.ndarray]]:
        return select_epoch(
            cd_near, floor, w_max_active, batch_limit, min(cut, sentinel)
        )

    def view():
        assert guard is not None
        return guard.make_view(
            served=served,
            v_now=v_now,
            deaths=deaths,
            backing=backing,
            current_death=current_death,
            trial=trial if tag_views else None,
        )

    def record(slot: int, dead_line: int, action: int, line: int) -> None:
        timeline.append(
            TimelineEvent(
                writes_served=served,
                slot=slot,
                dead_line=dead_line,
                action=ACTION_NAMES[action],
                replacement_line=line if action == BATCH_REPLACE else None,
            )
        )

    while True:
        # A "round" is every pass through the loop (including the final
        # empty one); ``epochs`` counts passes that processed deaths.
        rounds += 1
        if corruptor is not None:
            kind = corruptor.corrupt_state(integrity_key, rounds)
            if kind is not None:
                served = apply_state_corruption(
                    kind, served, backing, current_death, total_endurance
                )
        if guard is not None:
            guard.on_round(view)

        pos = None
        if frontier is not None:
            # Sequential regime: pop the epoch off the index (row
            # positions are keys) and fall back the moment equivalence
            # to the vectorized selection is unproven.
            picked = frontier.pop_epoch(
                floor, w_max_active, epoch_cap, ceiling=sentinel
            )
            if picked is None:
                frontier = None
                size1_streak = 0
                regime_switches += 1
            elif not picked[0]:
                if deaths > 0:
                    failure_reason = EXHAUSTED_REASON
                break
            elif scheme is not None and len(picked[0]) == 1:
                # One-death epoch: the vectorized body below collapses to
                # these scalar IEEE operations (each the element-wise form
                # of its array counterpart) and the scheme's scalar
                # replace(), pinned equivalent to replace_batch by the
                # differential suite.
                sequential_rounds += 1
                epochs += 1
                key = picked[0][0]
                v = picked[1][0]
                slot = key if work is None else int(work[key])
                served = served + (v - v_now) * active_weight * eta
                v_now = v
                deaths += 1
                dead_line = int(bk_row[key])
                outcome = scheme.replace(slot, dead_line)
                if metrics is not None:
                    metrics.observe("sim.epoch_size", 1)
                line = -1
                if isinstance(outcome, (ReplaceWith, ExtendBudget)):
                    replacements += 1
                    if isinstance(outcome, ReplaceWith):
                        action, line = BATCH_REPLACE, int(outcome.line)
                        bk_row[key] = line
                        extra = endurance[line]
                    else:
                        action, extra = BATCH_EXTEND, outcome.wear
                    divisor = w_row[key] if w_scalar is None else w_scalar
                    new_death = v + extra / divisor
                    cd_row[key] = new_death
                    frontier.push(key, new_death)
                elif isinstance(outcome, RemoveSlot):
                    action = BATCH_REMOVE
                    cd_row[key] = math.inf
                    live_count -= 1
                    active_weight -= float(weights[slot])
                    if floor is not None and not math.isinf(floor):
                        w_max_active, w_max_live = _tighten_w_max(
                            weights, current_death, w_max_active, w_max_live,
                            weights[slot : slot + 1],
                        )
                else:
                    action = BATCH_FAIL
                    cd_row[key] = math.inf
                    failure_reason = outcome.reason
                if record_timeline and len(timeline) < max_timeline_events:
                    record(slot, dead_line, action, line)
                if action == BATCH_FAIL:
                    break
                if action == BATCH_REMOVE and live_count < min_user_slots:
                    failure_reason = (
                        f"capacity degraded below user capacity "
                        f"({live_count} < {min_user_slots} slots)"
                    )
                    break
                continue
            else:
                sequential_rounds += 1
                pos = np.asarray(picked[0], dtype=np.intp)
                times = np.asarray(picked[1], dtype=float)
        near_pos = None
        if pos is None:
            epoch = None
            if work is not None:
                fresh = near is None
                if fresh:
                    refresh_window()
                if near is not None:
                    epoch = window_epoch()
                    if epoch is None and not fresh and refresh_window():
                        epoch = window_epoch()
                    if epoch is None:
                        near = None
                    else:
                        near_pos = epoch[0]
                        # ``near`` ascends, so (time, window position)
                        # order is (time, work position) order.
                        epoch = (near[near_pos], epoch[1])
            if work is not None and epoch is None:
                epoch = select_epoch(
                    cd_row, floor, w_max_active, batch_limit, sentinel
                )
                if epoch is None:
                    # The row cannot prove this epoch: publish it and
                    # run on the full arrays from here on.
                    current_death[work] = cd_row
                    backing[work] = bk_row
                    cd_row, bk_row, w_row = current_death, backing, weights
                    work, sentinel = None, math.inf
            if epoch is None:
                full_scans += 1
                if fast:
                    epoch = select_epoch(
                        current_death, floor, w_max_active, batch_limit
                    )
                else:
                    epoch = _scan_epoch(
                        current_death, floor, w_max_active, batch_limit
                    )
                    if epoch is None:
                        if deaths > 0:
                            failure_reason = EXHAUSTED_REASON
                        break
            pos, times = epoch
        epochs += 1
        sel = pos if work is None else work[pos]

        dead_lines = bk_row[pos]  # fancy index: a copy, safe to keep
        actions, out_lines, out_wear, fail_reason = state.replace_batch(
            trial, sel, dead_lines
        )
        count = int(actions.size)

        # Capacity-degradation failure truncates like the scalar loop:
        # the first removal dropping live slots below the floor is still
        # counted, everything after it never happens.
        if fast:
            removal_positions = _EMPTY_POSITIONS
        else:
            removal_positions = np.flatnonzero(actions == BATCH_REMOVE)
        allowed_removals = live_count - min_user_slots
        if removal_positions.size > allowed_removals:
            count = int(removal_positions[allowed_removals]) + 1
            actions = actions[:count]
            removal_positions = removal_positions[: allowed_removals + 1]
            fail_reason = None  # capacity failure preempts a later one
            capacity_failed = True
        else:
            capacity_failed = False
        pos = pos[:count]
        if near_pos is not None:
            near_pos = near_pos[:count]
        sel = sel[:count]
        times = times[:count]
        dead_lines = dead_lines[:count]
        lines = out_lines[:count]
        wear = out_wear[:count]
        deaths += count
        if guard is not None:
            guard.record_batch(sel, dead_lines, actions, lines, wear)

        # Served-writes integral: the active weight steps down at each
        # removal.  Without removals ``active_weight`` multiplies every
        # interval directly, the same rounding as ``active_weight - 0.0``.
        dv = np.empty(count)
        dv[0] = times[0] - v_now
        if count > 1:
            np.subtract(times[1:], times[:-1], out=dv[1:])
        if removal_positions.size:
            removed_w = np.zeros(count)
            removed_w[removal_positions] = weights[sel[removal_positions]]
            drained = np.cumsum(removed_w)
            increments = dv * (active_weight - (drained - removed_w)) * eta
            active_weight -= float(drained[-1])
        else:
            increments = dv * active_weight * eta
        served_at = served + np.cumsum(increments)
        served = float(served_at[-1])
        v_now = float(times[-1])

        # Apply the verdicts.
        for verdict in (BATCH_REPLACE, BATCH_EXTEND):
            hit = np.flatnonzero(actions == verdict)
            if not hit.size:
                continue
            replacements += int(hit.size)
            # A uniform epoch (the Max-WE steady state) skips the gathers.
            every = hit.size == count
            hit_pos = pos if every else pos[hit]
            if verdict == BATCH_REPLACE:
                hit_lines = lines if every else lines[hit]
                bk_row[hit_pos] = hit_lines
                extra = endurance[hit_lines]
            else:
                extra = wear if every else wear[hit]
            divisor = w_row[hit_pos] if w_scalar is None else w_scalar
            new_deaths = (times if every else times[hit]) + extra / divisor
            cd_row[hit_pos] = new_deaths
            if near_pos is not None:
                cd_near[near_pos if every else near_pos[hit]] = new_deaths
            if frontier is not None:
                for key, death in zip(hit_pos.tolist(), new_deaths.tolist()):
                    frontier.push(key, death)
        if removal_positions.size:
            # Removals never occur on the fast path, so the rows here are
            # the full arrays.
            removed_slots = sel[removal_positions]
            current_death[removed_slots] = math.inf
            live_count -= int(removal_positions.size)
            if floor is not None and not math.isinf(floor):
                w_max_active, w_max_live = _tighten_w_max(
                    weights, current_death, w_max_active, w_max_live,
                    weights[removed_slots],
                )
        if fail_reason is not None:
            cd_row[pos[count - 1]] = math.inf

        if record_timeline and len(timeline) < max_timeline_events:
            room = max_timeline_events - len(timeline)
            for k in range(min(count, room)):
                action = int(actions[k])
                timeline.append(
                    TimelineEvent(
                        writes_served=float(served_at[k]),
                        slot=int(sel[k]),
                        dead_line=int(dead_lines[k]),
                        action=ACTION_NAMES[action],
                        replacement_line=int(lines[k])
                        if action == BATCH_REPLACE
                        else None,
                    )
                )

        if metrics is not None:
            metrics.observe("sim.epoch_size", count)
        if capacity_failed:
            failure_reason = (
                f"capacity degraded below user capacity "
                f"({live_count} < {min_user_slots} slots)"
            )
            break
        if fail_reason is not None:
            failure_reason = fail_reason
            break
        if frontier is None and sequential_ok:
            if count == 1:
                size1_streak += 1
                if size1_streak >= tuning.SEQUENTIAL_ENTER_STREAK and batch_limit > 1:
                    candidate = DeathFrontier(cd_row, limit=tuning.FRONTIER_LIMIT)
                    if candidate.degenerate:
                        # A minimum tie class wider than the work set can
                        # only keep degenerating; stay vectorized.
                        sequential_ok = False
                    else:
                        frontier = candidate
                        near = None
                        size1_streak = 0
                        regime_switches += 1
            else:
                size1_streak = 0

    if work is not None:
        # Publish the compact rows so post-trial consumers of the full
        # arrays observe exactly the values the loop computed.
        current_death[work] = cd_row
        backing[work] = bk_row
    if guard is not None:
        guard.final_check(view)
    if metrics is not None:
        metrics.inc("sim.window_refreshes", window_refreshes)
    extra_meta = {
        "epochs": epochs,
        "sequential_rounds": sequential_rounds,
        "regime_switches": regime_switches,
        "full_scans": full_scans,
    }
    return served, deaths, replacements, failure_reason, timeline, extra_meta
