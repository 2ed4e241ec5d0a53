"""The uniform execution surface: one ExecutionOptions, seven entry points.

Every evaluation entry point takes the :class:`ExecutionOptions` fields
as keywords.  Each must accept all of them, return results identical to
its default-options call, and reject an unknown keyword.
"""

import dataclasses
import functools

import pytest

from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.obs.metrics import MetricsRegistry
from repro.sim.batch import BatchResult, run_batch
from repro.sim.cache import ResultCache
from repro.sim.config import ExperimentConfig
from repro.sim.experiments import (
    bpa_scheme_comparison,
    spare_fraction_sweep,
    swr_fraction_sweep,
    uaa_scheme_comparison,
)
from repro.sim.montecarlo import MonteCarloResult, monte_carlo_lifetime
from repro.sim.resilience import ResiliencePolicy
from repro.sim.result import SimulationResult
from repro.sim.runner import ExecutionOptions, SimRunner
from repro.sim.sensitivity import sensitivity_analysis

CONFIG = ExperimentConfig(regions=64, lines_per_region=2)
SPECS = [
    {"label": "a", "attack": "uaa", "sparing": "max-we"},
    {"label": "b", "attack": "bpa", "sparing": "pcd", "wearlevel": "wawl"},
]

ENTRY_POINTS = {
    "spare_fraction_sweep": lambda **options: spare_fraction_sweep(
        CONFIG, fractions=(0.0, 0.1), **options
    ),
    "swr_fraction_sweep": lambda **options: swr_fraction_sweep(
        CONFIG, swr_fractions=(0.0, 0.9), wearlevelers=("tlsr", "wawl"), **options
    ),
    "bpa_scheme_comparison": lambda **options: bpa_scheme_comparison(
        CONFIG, wearlevelers=("tlsr",), **options
    ),
    "uaa_scheme_comparison": lambda **options: uaa_scheme_comparison(
        CONFIG, **options
    ),
    "run_batch": lambda **options: run_batch(SPECS, CONFIG, **options),
    "monte_carlo_lifetime": lambda **options: monte_carlo_lifetime(
        UniformAddressAttack,
        functools.partial(MaxWE, 0.1, 0.9),
        config=CONFIG,
        replicas=4,
        **options,
    ),
    "sensitivity_analysis": lambda **options: sensitivity_analysis(
        CONFIG, **options
    ),
}


def every_option(tmp_path) -> dict:
    """A non-default value for every ExecutionOptions field."""
    return {
        "jobs": 2,
        "cache": ResultCache(tmp_path / "cache"),
        "engine": "fluid-ensemble",
        "policy": ResiliencePolicy(retries=1),
        "checkpoint": tmp_path / "journal.jsonl",
        "metrics": MetricsRegistry(),
        "paranoia": "cheap",
        "shadow_sample": 0.5,
        "trials_per_task": 2,
        "backend": "pool",
    }


def canonical(value):
    """A comparable form of an entry point's return value.

    ``metadata["engine"]`` names the engine that ran; it is the one
    result field allowed to differ between the ensemble and solo engines.
    """
    if isinstance(value, SimulationResult):
        payload = value.to_dict(include_timeline=False)
        payload["metadata"].pop("engine", None)
        return payload
    if isinstance(value, (BatchResult, MonteCarloResult)):
        return canonical(value.results)
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def test_every_option_covers_every_field(tmp_path):
    names = {field.name for field in dataclasses.fields(ExecutionOptions)}
    assert set(every_option(tmp_path)) == names


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
class TestEntryPoint:
    def test_accepts_every_option_with_identical_results(self, name, tmp_path):
        entry = ENTRY_POINTS[name]
        options = every_option(tmp_path)
        assert canonical(entry(**options)) == canonical(entry())
        assert options["metrics"].counter("runner.tasks") > 0

    def test_unknown_keyword_raises_type_error(self, name):
        with pytest.raises(TypeError):
            ENTRY_POINTS[name](bogus_option=1)

    @pytest.mark.parametrize(
        "options",
        [
            {"engine": "bogus"},
            {"paranoia": "extreme"},
            {"shadow_sample": 1.5},
            {"trials_per_task": 0},
            {"jobs": -1},
        ],
    )
    def test_bad_value_raises_value_error(self, name, options):
        with pytest.raises(ValueError):
            ENTRY_POINTS[name](**options)


class TestValidation:
    @pytest.mark.parametrize(
        "options",
        [{"engine": "bogus"}, {"trials_per_task": 0}, {"trials_per_task": -3}],
    )
    def test_bad_values_raise_value_error(self, options):
        with pytest.raises(ValueError):
            ExecutionOptions(**options)

    @pytest.mark.parametrize("trials", ["abc", [1], 2.5, True])
    def test_non_int_chunk_size_raises_type_error(self, trials):
        with pytest.raises(TypeError):
            ExecutionOptions(trials_per_task=trials)

    def test_engine_alias_is_canonicalized(self):
        assert ExecutionOptions(engine="fluid").engine == "fluid-exact"

    def test_runner_and_task_fields(self):
        options = ExecutionOptions(jobs=3, trials_per_task=4, paranoia="full")
        runner = options.runner()
        assert isinstance(runner, SimRunner)
        assert (runner.jobs, runner.trials_per_task) == (3, 4)
        assert options.task_fields() == {
            "engine": "fluid-batched",
            "paranoia": "full",
            "shadow_sample": 0.0,
        }
