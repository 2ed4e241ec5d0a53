"""Execution options in a job payload are validated at submit.

A bad ``engine`` or ``trials_per_task`` must be a ``ValidationError``
(HTTP 400) before anything is persisted or queued, and an engine alias
must share the canonical name's batch key.  A bad default engine stops
the service at start-up instead.
"""

import pytest

from repro.service.__main__ import build_parser
from repro.service.core import ServiceConfig, SimService, ValidationError

SPECS = [{"label": "a", "attack": "uaa", "sparing": "max-we"}]
SMALL = {"regions": 64, "lines_per_region": 2}


@pytest.fixture
def service(tmp_path):
    instance = SimService(ServiceConfig(state_dir=tmp_path / "state", dispatchers=1))
    instance.start()
    yield instance
    instance.stop()


@pytest.mark.parametrize(
    "options",
    [
        {"engine": "bogus"},
        {"engine": ["fluid-batched"]},
        {"trials_per_task": "abc"},
        {"trials_per_task": 0},
        {"trials_per_task": -3},
        {"trials_per_task": [1]},
        {"trials_per_task": 2.5},
        {"trials_per_task": True},
    ],
)
def test_bad_options_rejected_at_submit(service, options):
    with pytest.raises(ValidationError):
        service.submit("alice", {"specs": SPECS, "config": SMALL, **options})
    assert service.list_jobs() == []
    assert list(service.records_dir.glob("*.json")) == []


def test_engine_alias_shares_the_canonical_batch_key(service):
    canonical = service.submit(
        "alice", {"specs": SPECS, "config": SMALL, "engine": "fluid-exact"}
    )
    alias = service.submit("bob", {"specs": SPECS, "config": SMALL, "engine": "fluid"})
    assert alias.options["engine"] == "fluid-exact"
    assert alias.batch_key == canonical.batch_key
    assert canonical.wait(120.0) and alias.wait(120.0)
    assert alias.status == canonical.status == "done"


def test_bad_default_engine_rejected_at_start_up():
    with pytest.raises(ValueError):
        ServiceConfig(engine="bogus")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--engine", "bogus"])
    assert ServiceConfig(engine="fluid").engine == "fluid-exact"
