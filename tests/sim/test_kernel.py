"""The shared batched epoch kernel (``repro.sim.kernel``).

Solo ``fluid-batched`` and ``fluid-ensemble`` run the same loop, so
these tests pin what that loop promises on top of the differential
suites: the work-set proof (including its batch-cap refinement) stays
exact, the near window inside the work set keeps the same epochs as it
drains and refreshes, UAA at realistic geometries selects without
rescanning the device, and Max-WE reports the replacement capacity the
work set needs.
"""

import numpy as np
import pytest

import repro.sim.kernel as kernel_module
import repro.sim.lifetime as lifetime_module
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.emap import EnduranceMap
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import ExperimentConfig
from repro.sim.lifetime import simulate_lifetime
from repro.sparing.base import BATCH_REPLACE
from repro.sparing.ps import PS

from tests.sim.test_engine_equivalence import assert_engines_agree

SCHEMES = {
    "max-we": lambda: MaxWE(0.1, 0.9),
    "ps": lambda: PS.average_case(0.1),
}


def run_engines(emap_factory, scheme_name, seed, engines):
    return {
        engine: simulate_lifetime(
            emap_factory(),
            UniformAddressAttack(),
            SCHEMES[scheme_name](),
            rng=seed,
            engine=engine,
            record_timeline=False,
        )
        for engine in engines
    }


def death_key(event):
    """A timeline event without its served-writes stamp."""
    return (event.slot, event.dead_line, event.action, event.replacement_line)


def assert_bit_identical(a, b):
    assert a.writes_served == b.writes_served
    assert a.deaths == b.deaths
    assert a.replacements == b.replacements
    assert a.failure_reason == b.failure_reason


class TestRefinedSentinelProof:
    """An epoch whose safe bound passes the work-set sentinel is still
    served from the work row when the batch cap binds strictly below
    both; an epoch capped *at* the sentinel (its tie class lies outside
    the row) falls back to the full arrays."""

    @staticmethod
    def straddling_map():
        # 461 working slots under PS(0.1); with BATCH_LIMIT = 4 the work
        # set is the 56 smallest of them, and rank 56 falls inside the
        # 40-line tie class at 1040, so the whole class sits at the
        # sentinel.  The pool floor (>= 1000) puts every safe bound past
        # the sentinel, so only the batch cap can prove an epoch.
        values = np.concatenate(
            [
                np.arange(1000.0, 1040.0),
                np.full(40, 1040.0),
                np.linspace(1041.0, 1500.0, 432),
            ]
        )
        np.random.default_rng(3).shuffle(values)
        return EnduranceMap(values, regions=64)

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_capped_epochs_stay_exact(self, monkeypatch, scheme_name):
        monkeypatch.setattr(lifetime_module, "BATCH_LIMIT", 4)
        runs = run_engines(
            self.straddling_map,
            scheme_name,
            seed=11,
            engines=("fluid-exact", "fluid-batched", "fluid-ensemble"),
        )
        batched = runs["fluid-batched"]
        assert_engines_agree(runs["fluid-exact"], batched)
        assert_bit_identical(batched, runs["fluid-ensemble"])
        meta = batched.metadata
        # Epochs served from the work row are not full scans; without
        # the cap refinement every epoch here would be one.
        assert meta["full_scans"] < meta["epochs"]

    def test_tie_class_at_sentinel_falls_back(self, monkeypatch):
        monkeypatch.setattr(lifetime_module, "BATCH_LIMIT", 4)
        runs = run_engines(
            self.straddling_map, "ps", seed=11, engines=("fluid-exact", "fluid-batched")
        )
        batched = runs["fluid-batched"]
        assert_engines_agree(runs["fluid-exact"], batched)
        # The work-set build, then full-array epochs once the row's
        # smallest times reach the tie class at the sentinel.
        assert 1 < batched.metadata["full_scans"] < batched.metadata["epochs"]


class TestUaaSelectsWithoutRescans:
    """UAA on Max-WE and PS: one work-set build, then every epoch from
    the compact row -- at most two O(slots) passes whatever the size --
    with the epoch schedule unchanged."""

    #: (regions, lines_per_region, scheme) -> epochs of the full-scan kernel.
    EPOCHS = {
        (16384, 8, "max-we"): 6,
        (16384, 8, "ps"): 6,
        (256, 512, "max-we"): 5,
        (256, 512, "ps"): 6,
    }

    @pytest.mark.parametrize("point", sorted(EPOCHS))
    def test_structure(self, point):
        regions, per, scheme_name = point
        runs = run_engines(
            lambda: ExperimentConfig(
                regions=regions, lines_per_region=per, seed=2019
            ).make_emap(),
            scheme_name,
            seed=2019,
            engines=("fluid-exact", "fluid-batched"),
        )
        batched = runs["fluid-batched"]
        assert_engines_agree(runs["fluid-exact"], batched)
        assert batched.metadata["full_scans"] <= 2
        assert batched.metadata["epochs"] == self.EPOCHS[point]


class TestNearWindow:
    """Epochs selected on the near window -- every work-row time below a
    cut -- are the work row's epochs, however often the window drains
    and is refreshed.  The window constants are patched down so the
    small devices here engage it."""

    @staticmethod
    def run(monkeypatch, emap_factory, scheme_name, seed, window, batch_limit=None):
        if batch_limit is not None:
            monkeypatch.setattr(lifetime_module, "BATCH_LIMIT", batch_limit)
        monkeypatch.setattr(lifetime_module, "NEAR_WINDOW", window)
        monkeypatch.setattr(lifetime_module, "NEAR_WINDOW_ENGAGE", 2)
        metrics = MetricsRegistry()
        runs = {
            engine: simulate_lifetime(
                emap_factory(),
                UniformAddressAttack(),
                SCHEMES[scheme_name](),
                rng=seed,
                engine=engine,
                metrics=metrics if engine == "fluid-batched" else None,
            )
            for engine in ("fluid-exact", "fluid-batched", "fluid-ensemble")
        }
        exact, batched = runs["fluid-exact"], runs["fluid-batched"]
        assert_engines_agree(exact, batched)
        assert_bit_identical(batched, runs["fluid-ensemble"])
        # Aggregates cannot see a tie class decided in the wrong order
        # (equal-weight slots are interchangeable); the death sequence can.
        assert [death_key(e) for e in batched.timeline] == [
            death_key(e) for e in exact.timeline
        ]
        assert batched.timeline == runs["fluid-ensemble"].timeline
        assert "window_refreshes" not in batched.metadata
        return batched, metrics.snapshot()["counters"]["sim.window_refreshes"]

    @pytest.mark.parametrize("point", sorted(TestUaaSelectsWithoutRescans.EPOCHS))
    def test_refreshes_keep_the_schedule(self, monkeypatch, point):
        regions, per, scheme_name = point
        batched, refreshes = self.run(
            monkeypatch,
            lambda: ExperimentConfig(
                regions=regions, lines_per_region=per, seed=2019
            ).make_emap(),
            scheme_name,
            seed=2019,
            window=6144,
        )
        # The ~17k-slot work row drains several 6144-slot windows.
        assert refreshes >= 2
        assert batched.metadata["full_scans"] <= 2
        assert batched.metadata["epochs"] == TestUaaSelectsWithoutRescans.EPOCHS[point]

    @staticmethod
    def tied_map():
        # Every endurance value occurs 8 times -- twice BATCH_LIMIT = 4 --
        # so with a 12-slot window the cut usually falls inside a tie
        # class that could fill an epoch on its own.
        values = np.repeat(np.linspace(1000.0, 1500.0, 64), 8)
        np.random.default_rng(3).shuffle(values)
        return EnduranceMap(values, regions=64)

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_tie_class_straddling_the_cut(self, monkeypatch, scheme_name):
        straddles = []
        build = kernel_module._partition_below

        def spy(row, limit, batch_limit):
            built = build(row, limit, batch_limit)
            if built is not None and limit == 12:
                positions, cut = built
                # The window is exactly the work-row times below the cut:
                # its tie class stays outside whole, as at the sentinel.
                assert np.array_equal(positions, np.flatnonzero(row < cut))
                straddles.append(np.count_nonzero(row <= cut) > limit > positions.size)
            return built

        monkeypatch.setattr(kernel_module, "_partition_below", spy)
        batched, refreshes = self.run(
            monkeypatch, self.tied_map, scheme_name, seed=11, window=12, batch_limit=4
        )
        assert any(straddles)
        assert refreshes >= 2
        assert batched.metadata["full_scans"] <= 2


class TestMaxWECapacity:
    """The solo scheme's capacity matches the stacked state's formula."""

    @staticmethod
    def emap():
        values = np.random.default_rng(5).uniform(100.0, 1000.0, 64 * 4)
        return EnduranceMap(values, regions=64)

    def test_matches_stacked_state(self):
        solo = MaxWE(0.25, 0.5)
        solo.initialize(self.emap(), rng=0)
        state = MaxWE.make_batched_state([MaxWE(0.25, 0.5)], [self.emap()])
        assert state is not None
        assert solo.ensemble_replacement_capacity() == state.replacement_capacity(0)

        backing = solo.initial_backing
        assert np.array_equal(backing, state.backing(0))
        rng = np.random.default_rng(9)
        capacities = [solo.ensemble_replacement_capacity()]
        for _ in range(12):
            slots = np.sort(rng.choice(backing.size, size=4, replace=False))
            dead = backing[slots]
            outcome = solo.replace_batch(slots, dead)
            actions, lines, _, reason = state.replace_batch(0, slots, dead.copy())
            assert np.array_equal(outcome.actions, actions)
            assert reason == outcome.fail_reason
            assert solo.ensemble_replacement_capacity() == state.replacement_capacity(0)
            capacities.append(solo.ensemble_replacement_capacity())
            if reason is not None:
                break
            replaced = outcome.actions == BATCH_REPLACE
            backing[slots[replaced]] = outcome.lines[replaced]
        # Every replacement consumed one unit of capacity.
        assert capacities == sorted(capacities, reverse=True)
        assert capacities[-1] < capacities[0]
