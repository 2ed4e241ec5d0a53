"""BENCH_runner -- serial vs pool vs fabric throughput of the simulation runner.

Times one fixed sweep (the Figure-7 task grid on a mid-size device)
through :class:`~repro.sim.runner.SimRunner`: serially (``jobs=1``), on
the process pool over every CPU, and on the socket fabric with as many
workers, with the cache disabled so the measurement is honest.  The
fabric leg records its ``fabric.fetches`` round trips beside the grants,
so control-plane chatter is visible next to the wall time.  Asserts
every leg's results stay bit-identical to serial, then emits
``BENCH_runner.json`` at the repo root (and a copy under
``benchmarks/results/``) to seed the performance trajectory:

    PYTHONPATH=src python benchmarks/bench_runner.py

The pytest wrapper runs the same harness so ``pytest benchmarks/`` keeps
the number fresh.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

from repro.fabric.backend import FabricBackend
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import ExperimentConfig
from repro.sim.runner import SimRunner, SimTask

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_bench  # noqa: E402


def _phases(stats) -> dict:
    """Per-phase totals from a leg's metrics snapshot, for the payload."""
    timings = (stats.metrics or {}).get("timings", {})
    return {
        name: {
            "calls": int(timing["count"]),
            "total_seconds": round(float(timing["sum"]), 4),
        }
        for name, timing in timings.items()
    }

#: Fixed measurement sweep: Figure 7's grid on a mid-size device.
BENCH_CONFIG = ExperimentConfig(regions=1024, lines_per_region=4, seed=2019)
BENCH_WEARLEVELERS = ("tlsr", "pcm-s", "bwl", "wawl")
BENCH_SWR_FRACTIONS = (0.0, 0.2, 0.6, 0.8, 0.9, 1.0)


def bench_tasks() -> list[SimTask]:
    """The fixed 24-task sweep every measurement uses."""
    return [
        SimTask(
            attack="bpa",
            sparing="max-we",
            wearlevel=wl_name,
            p=BENCH_CONFIG.spare_fraction,
            swr=swr_fraction,
            config=BENCH_CONFIG,
            label=f"{wl_name}/swr={swr_fraction:.0%}",
        )
        for wl_name in BENCH_WEARLEVELERS
        for swr_fraction in BENCH_SWR_FRACTIONS
    ]


def _check_identical(tasks, serial_results, results, leg: str) -> None:
    mismatched = [
        task.label
        for task, a, b in zip(tasks, serial_results, results)
        if a.normalized_lifetime != b.normalized_lifetime
    ]
    if mismatched:
        raise AssertionError(f"{leg} diverged from serial on {mismatched}")


def run_fabric_leg(tasks, serial_results, serial, workers: int) -> dict:
    """Run the sweep on the socket fabric; wall, phases and round trips.

    A clean run makes one fetch per grant plus one final ``shutdown``
    fetch per worker; more means fetches came back empty.
    """
    metrics = MetricsRegistry()
    results, stats = SimRunner(
        jobs=workers, backend=FabricBackend(workers=workers), metrics=metrics
    ).run_detailed(tasks)
    _check_identical(tasks, serial_results, results, "fabric")
    return {
        "workers": stats.jobs,
        "wall_seconds": round(stats.wall_seconds, 4),
        "sims_per_second": round(stats.sims_per_second, 3),
        "vs_serial": (
            round(stats.sims_per_second / serial.sims_per_second, 3)
            if serial.sims_per_second
            else None
        ),
        "phases": _phases(stats),
        "fetches": int(metrics.counter("fabric.fetches")),
        "leases_granted": int(metrics.counter("fabric.leases_granted")),
    }


def run_bench(jobs: int | None = None) -> dict:
    """Measure the sweep serially, on the pool and on the fabric with
    ``jobs`` workers (default: all CPUs); returns the BENCH_runner payload.

    On a single-CPU box the pool leg is skipped (a process pool can
    only lose there) and recorded as ``null`` with an explanatory note,
    so the payload never reports a fake "parallel" measurement.  The
    fabric leg always runs: what it measures is control-plane overhead.
    """
    cpus = os.cpu_count() or 1
    tasks = bench_tasks()
    serial_results, serial = SimRunner(jobs=1).run_detailed(tasks)

    payload = {
        "bench": "runner",
        "description": "serial vs pool vs fabric sims/sec on the fixed "
        "Figure-7 task grid (24 BPA simulations, cache disabled)",
        "platform": platform.platform(),
        "cpus": cpus,
        "config": {
            "regions": BENCH_CONFIG.regions,
            "lines_per_region": BENCH_CONFIG.lines_per_region,
            "q": BENCH_CONFIG.q,
            "endurance_model": BENCH_CONFIG.endurance_model,
            "seed": BENCH_CONFIG.seed,
        },
        "tasks": len(tasks),
        "serial": {
            "jobs": 1,
            "wall_seconds": round(serial.wall_seconds, 4),
            "sims_per_second": round(serial.sims_per_second, 3),
            "phases": _phases(serial),
        },
        "fabric": run_fabric_leg(tasks, serial_results, serial, jobs or cpus),
    }

    if cpus == 1:
        payload["parallel"] = None
        payload["speedup"] = None
        payload["note"] = (
            "parallel leg skipped: os.cpu_count() == 1, a process pool "
            "cannot beat the serial loop on this box"
        )
        payload["results_identical"] = True
        return payload

    parallel_results, parallel = SimRunner(jobs=jobs or 0).run_detailed(tasks)
    _check_identical(tasks, serial_results, parallel_results, "parallel")

    payload["parallel"] = {
        "jobs": parallel.jobs,
        "wall_seconds": round(parallel.wall_seconds, 4),
        "sims_per_second": round(parallel.sims_per_second, 3),
        "phases": _phases(parallel),
        "queue_seconds": round(parallel.queue_seconds, 4),
        "harvest_seconds": round(parallel.harvest_seconds, 4),
    }
    payload["speedup"] = (
        round(parallel.sims_per_second / serial.sims_per_second, 3)
        if serial.sims_per_second
        else None
    )
    payload["results_identical"] = True
    return payload


def emit(payload: dict) -> Path:
    """Write the payload under benchmarks/results/ with a root copy."""
    return emit_bench("runner", payload)


def test_runner_throughput_bench():
    """Pytest entry point: pool and fabric must match serial, and the
    pool must not be pathologically slower; emits BENCH_runner.json as a
    side effect."""
    payload = run_bench()
    emit(payload)
    assert payload["results_identical"]
    assert payload["serial"]["sims_per_second"] > 0
    # On a multi-core box the pool should never lose badly to serial;
    # keep the bound loose so CI boxes with 2 cores still pass.  On a
    # single-CPU box the parallel leg is skipped entirely.
    if payload["cpus"] >= 2:
        assert payload["speedup"] > 0.5
    else:
        assert payload["parallel"] is None and "skipped" in payload["note"]


def main() -> int:
    payload = run_bench()
    target = emit(payload)
    print(json.dumps(payload, indent=2))
    print(f"[saved to {target}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
