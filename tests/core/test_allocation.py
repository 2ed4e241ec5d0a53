"""Tests for weak-priority selection and weak-strong matching."""

import numpy as np
import pytest

from repro.core.allocation import AllocationPlan, plan_allocation
from repro.device.errors import ConfigurationError
from repro.endurance.emap import EnduranceMap


def figure3_emap():
    """The paper's Figure 3 device: 7 regions, ascending order 2<3<5<1<6<0<4."""
    region_endurance = {2: 10.0, 3: 20.0, 5: 30.0, 1: 40.0, 6: 50.0, 0: 60.0, 4: 70.0}
    endurance = np.empty(7)
    for region, value in region_endurance.items():
        endurance[region] = value
    return EnduranceMap(endurance, regions=7)


class TestFigure3Example:
    """The worked example of Section 4.1, exactly."""

    @pytest.fixture
    def plan(self):
        # 3/7 of regions spare, 2/3 of spares as SWRs -> 2 SWRs, 1 additional.
        return plan_allocation(figure3_emap(), spare_fraction=3 / 7, swr_fraction=2 / 3)

    def test_swrs_are_weakest_two(self, plan):
        assert sorted(plan.swr_regions.tolist()) == [2, 3]

    def test_rwrs_are_next_weakest_two(self, plan):
        assert sorted(plan.rwr_regions.tolist()) == [1, 5]

    def test_additional_is_region_six(self, plan):
        assert plan.additional_regions.tolist() == [6]

    def test_weak_strong_matching(self, plan):
        """Weakest SWR (2) rescues strongest RWR (1); 3 rescues 5."""
        pairs = dict(zip(plan.rwr_regions.tolist(), plan.swr_regions.tolist()))
        assert pairs == {1: 2, 5: 3}

    def test_working_regions(self, plan):
        assert plan.working_regions.tolist() == [0, 1, 4, 5]

    def test_partner_lookup(self, plan):
        assert plan.partner_of_rwr(1) == 2
        assert plan.partner_of_rwr(5) == 3
        with pytest.raises(KeyError):
            plan.partner_of_rwr(0)

    def test_is_rwr(self, plan):
        assert plan.is_rwr(1) and plan.is_rwr(5)
        assert not plan.is_rwr(2) and not plan.is_rwr(0)

    def test_spare_region_count(self, plan):
        assert plan.spare_region_count == 3


class TestMatchingPolicies:
    def test_identity_matching_pairs_by_rank(self):
        plan = plan_allocation(
            figure3_emap(), 3 / 7, 2 / 3, matching="identity"
        )
        pairs = dict(zip(plan.rwr_regions.tolist(), plan.swr_regions.tolist()))
        # Weakest SWR (2) with weakest RWR (5); 3 with 1.
        assert pairs == {5: 2, 1: 3}

    def test_random_matching_is_a_valid_pairing(self):
        plan = plan_allocation(
            figure3_emap(), 3 / 7, 2 / 3, matching="random", rng=5
        )
        assert sorted(plan.rwr_regions.tolist()) == [1, 5]
        assert sorted(plan.swr_regions.tolist()) == [2, 3]

    def test_unknown_matching_rejected(self):
        with pytest.raises(ConfigurationError, match="matching"):
            plan_allocation(figure3_emap(), 3 / 7, 2 / 3, matching="zigzag")


class TestSelectionPolicies:
    def test_strong_priority_wastes_strong_regions(self):
        plan = plan_allocation(
            figure3_emap(), 3 / 7, 2 / 3, spare_selection="strong-priority"
        )
        assert sorted(plan.swr_regions.tolist()) == [0, 4]  # strongest two
        assert sorted(plan.rwr_regions.tolist()) == [2, 3]  # weakest two

    def test_random_selection_partitions_regions(self):
        plan = plan_allocation(
            figure3_emap(), 3 / 7, 2 / 3, spare_selection="random", rng=7
        )
        all_regions = np.concatenate(
            [plan.swr_regions, plan.additional_regions, plan.working_regions]
        )
        assert sorted(all_regions.tolist()) == list(range(7))

    def test_unknown_selection_rejected(self):
        with pytest.raises(ConfigurationError, match="spare_selection"):
            plan_allocation(figure3_emap(), 3 / 7, 2 / 3, spare_selection="weird")


class TestBudgeting:
    def test_zero_swr_fraction_all_dynamic(self):
        plan = plan_allocation(figure3_emap(), 3 / 7, swr_fraction=0.0)
        assert plan.swr_regions.size == 0
        assert plan.additional_regions.size == 3

    def test_full_swr_fraction_no_dynamic(self):
        plan = plan_allocation(figure3_emap(), 2 / 7, swr_fraction=1.0)
        assert plan.swr_regions.size == 2
        assert plan.additional_regions.size == 0

    def test_overcommit_rejected(self):
        # 3 SWRs need 3 RWRs: 6 of 7 regions, plus 1 additional = 7; but
        # 4 spare regions at swr=0.75 -> 3 SWRs + 1 additional + 3 RWRs = 7 OK;
        # push beyond with 5 spare regions.
        with pytest.raises(ConfigurationError, match="exceeding"):
            plan_allocation(figure3_emap(), 5 / 7, swr_fraction=0.8)

    def test_zero_spares(self):
        plan = plan_allocation(figure3_emap(), 0.0)
        assert plan.spare_region_count == 0
        assert plan.working_regions.size == 7


class TestPlanValidation:
    """A plan gives every region exactly one role."""

    def test_region_in_two_roles_rejected(self):
        # Region 6 is both an additional spare and a working region.
        with pytest.raises(ConfigurationError, match="two roles"):
            AllocationPlan(
                swr_regions=[2, 3],
                rwr_regions=[1, 5],
                additional_regions=[6],
                working_regions=[0, 1, 4, 5, 6],
            )

    def test_region_twice_in_one_role_rejected(self):
        with pytest.raises(ConfigurationError, match="two roles"):
            AllocationPlan(
                swr_regions=[2, 2],
                rwr_regions=[1, 5],
                additional_regions=[],
                working_regions=[0, 1, 4, 5],
            )

    def test_disjoint_roles_accepted(self):
        plan = AllocationPlan(
            swr_regions=[2, 3],
            rwr_regions=[1, 5],
            additional_regions=[6],
            working_regions=[0, 1, 4, 5],
        )
        assert plan.spare_region_count == 3

    @pytest.mark.parametrize("selection", ["weak-priority", "random", "strong-priority"])
    def test_working_regions_are_the_non_spares(self, selection):
        emap = EnduranceMap(np.random.default_rng(4).uniform(10.0, 100.0, 40), regions=40)
        plan = plan_allocation(emap, 0.3, 0.5, spare_selection=selection, rng=1)
        spares = set(plan.swr_regions.tolist()) | set(plan.additional_regions.tolist())
        assert plan.working_regions.tolist() == [
            region for region in range(40) if region not in spares
        ]
        assert plan.working_regions.dtype == np.intp
