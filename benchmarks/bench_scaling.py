"""BENCH_scaling -- batched kernel cost as the device grows.

Runs ``fluid-batched`` lifetime simulations over a device-size ladder in
two shapes -- 8 lines per region (``lpr8``) and the paper's 2048-region
layout (``r2048``, whose 2^22-line point is the paper's 1 GB device of
256-B lines) -- for UAA and BPA against Max-WE and PS.  Every point
records its ``sim/init`` and ``sim/kernel`` spans and the kernel's
structural counters (epochs, full scans, near-window refreshes,
sequential rounds); every
(shape, attack, scheme) series gets a least-squares kernel exponent
``k`` in ``kernel_s ~ lines^k``.  Emits ``BENCH_scaling.json`` at the
repo root (and a copy under ``benchmarks/results/``):

    PYTHONPATH=src python benchmarks/bench_scaling.py [--quick]

The structural check is what CI gates on, never wall time: UAA selection
must stay at most two O(slots) passes (``full_scans``) at every size --
one work-set build, then epochs from the compact row -- and BPA's
one-death stream must ride the sequential regime (full scans bounded by
the entry streak per regime switch).  UAA's near window must stay cheap:
at most ``window_refresh_bound(deaths)`` refreshes per run, and on
``WINDOW_POINT`` (a work row long enough to engage the window) at least
one.  ``--quick`` runs a small ladder (2^13 .. 2^16 lines) plus
``WINDOW_POINT`` for the CI smoke job; the script exits 1 when the check
fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

from repro.obs.metrics import MetricsRegistry
from repro.sim.config import ExperimentConfig
import repro.sim.lifetime as tuning
from repro.sim.lifetime import SEQUENTIAL_ENTER_STREAK, simulate_lifetime
from repro.sim.runner import build_attack, build_sparing

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_bench  # noqa: E402

#: log2 of the device sizes (lines) of the full ladder and of --quick.
FULL_EXPONENTS = tuple(range(16, 23))
QUICK_EXPONENTS = tuple(range(13, 17))

#: Device shapes: name -> lines -> (regions, lines_per_region).
SHAPES = {
    "lpr8": lambda lines: (lines // 8, 8),
    "r2048": lambda lines: (2048, lines // 2048),
}

ATTACKS = ("uaa", "bpa")
SCHEMES = ("max-we", "ps")
SEED = 2019

#: UAA may spend at most this many O(slots) selection passes per run.
UAA_FULL_SCAN_BOUND = 2

#: (shape, lines, attack, scheme) of a point whose ~110k-slot work row
#: engages the near window; --quick adds it to its small ladder.
WINDOW_POINT = ("r2048", 2**20, "uaa", "max-we")


def window_refresh_bound(deaths: int) -> float:
    """Most near-window refreshes a UAA run with ``deaths`` deaths may do.

    A fresh window holds the ``NEAR_WINDOW`` smallest work-row times and
    is refreshed only once fewer than ``BATCH_LIMIT`` of them remain, so
    one refresh per ``NEAR_WINDOW - BATCH_LIMIT`` deaths, after the first
    build.  The factor 2 covers a fresh window that cannot prove its
    first epoch (it is rebuilt at the next one) and tie classes at the
    cut, which shrink a window.  At the defaults that is one refresh per
    ~14k deaths against an epoch of up to 4096.
    """
    return 2 * (1 + deaths / (tuning.NEAR_WINDOW - tuning.BATCH_LIMIT))


def _point(shape: str, lines: int, attack: str, scheme: str) -> dict:
    regions, per = SHAPES[shape](lines)
    config = ExperimentConfig(regions=regions, lines_per_region=per, seed=SEED)
    emap = config.make_emap()
    metrics = MetricsRegistry()
    started = perf_counter()
    result = simulate_lifetime(
        emap,
        build_attack(attack),
        build_sparing(scheme, config.spare_fraction, config.swr_fraction),
        rng=SEED,
        record_timeline=False,
        metrics=metrics,
    )
    seconds = perf_counter() - started
    snapshot = metrics.snapshot()
    timings = snapshot["timings"]
    kernel = float(timings["sim/kernel"]["sum"])
    meta = result.metadata
    return {
        "shape": shape,
        "attack": attack,
        "sparing": scheme,
        "lines": lines,
        "regions": regions,
        "lines_per_region": per,
        "seconds": round(seconds, 4),
        "init_s": round(float(timings["sim/init"]["sum"]), 4),
        "kernel_s": round(kernel, 4),
        "deaths": result.deaths,
        "kernel_us_per_death": round(1e6 * kernel / result.deaths, 3)
        if result.deaths
        else None,
        "epochs": meta.get("epochs"),
        "full_scans": meta.get("full_scans"),
        "window_refreshes": snapshot["counters"].get("sim.window_refreshes", 0),
        "sequential_rounds": meta.get("sequential_rounds"),
        "regime_switches": meta.get("regime_switches"),
        "failure_reason": result.failure_reason,
    }


def _exponent(points: list[dict]) -> float | None:
    """Least-squares slope of log(kernel_s) against log(lines)."""
    pairs = [
        (math.log(p["lines"]), math.log(p["kernel_s"]))
        for p in points
        if p["kernel_s"] > 0
    ]
    if len(pairs) < 2:
        return None
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    spread = sum((x - mean_x) ** 2 for x, _ in pairs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in pairs) / spread
    return round(slope, 3)


def _measure(shape: str, lines: int, attack: str, scheme: str) -> dict:
    point = _point(shape, lines, attack, scheme)
    print(
        f"{shape:6s} {attack} {scheme:6s} 2^{lines.bit_length() - 1}: "
        f"init {point['init_s']:.3f} s  kernel {point['kernel_s']:.3f} s  "
        f"epochs {point['epochs']}  full_scans {point['full_scans']}  "
        f"window_refreshes {point['window_refreshes']}",
        flush=True,
    )
    return point


def run_bench(quick: bool = False) -> dict:
    exponents = QUICK_EXPONENTS if quick else FULL_EXPONENTS
    _point("lpr8", 2**10, "uaa", "max-we")  # untimed warm-up
    points = []
    series = {}
    for shape, attack, scheme in itertools.product(SHAPES, ATTACKS, SCHEMES):
        members = [
            _measure(shape, 2**exponent, attack, scheme) for exponent in exponents
        ]
        points.extend(members)
        series[f"{shape}/{attack}/{scheme}"] = {
            "kernel_exponent": _exponent(members),
            "largest_lines": members[-1]["lines"],
            "largest_kernel_s": members[-1]["kernel_s"],
            "largest_init_s": members[-1]["init_s"],
            "full_scans": [p["full_scans"] for p in members],
            "window_refreshes": [p["window_refreshes"] for p in members],
            "epochs": [p["epochs"] for p in members],
        }
    if quick:
        points.append(_measure(*WINDOW_POINT))
    return {
        "bench": "scaling",
        "description": "fluid-batched init/kernel cost and selection counters "
        "over a device-size ladder, two shapes x UAA/BPA x Max-WE/PS",
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "quick": quick,
        "seed": SEED,
        "sizes": [2**e for e in exponents],
        "points": points,
        "series": series,
    }


def check_structure(payload: dict) -> list[str]:
    """Counter-only gate: a list of violations (empty when it holds)."""
    problems = []
    for point in payload["points"]:
        label = f"{point['shape']}/{point['attack']}/{point['sparing']}@{point['lines']}"
        scans = point["full_scans"]
        if point["attack"] == "uaa" and scans > UAA_FULL_SCAN_BOUND:
            problems.append(f"{label}: {scans} full scans > {UAA_FULL_SCAN_BOUND}")
        refreshes = point["window_refreshes"]
        if point["attack"] == "uaa":
            bound = window_refresh_bound(point["deaths"])
            if refreshes > bound:
                problems.append(
                    f"{label}: {refreshes} window refreshes > {bound:.1f} "
                    f"({point['epochs']} epochs)"
                )
        key = (point["shape"], point["lines"], point["attack"], point["sparing"])
        if key == WINDOW_POINT and refreshes < 1:
            problems.append(f"{label}: near window never engaged")
        if point["attack"] == "bpa":
            switches = point["regime_switches"]
            if switches < 1:
                problems.append(f"{label}: sequential regime never engaged")
            elif scans > SEQUENTIAL_ENTER_STREAK * switches + 1:
                problems.append(f"{label}: {scans} full scans for {switches} switches")
    return problems


def test_scaling_structure():
    """Pytest entry point: the quick ladder must pass the counter gate."""
    payload = run_bench(quick=True)
    assert check_structure(payload) == []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2^13..2^16 lines plus one window point (CI smoke; gates on counters)",
    )
    args = parser.parse_args()
    payload = run_bench(quick=args.quick)
    target = emit_bench("scaling", payload)
    for name, entry in payload["series"].items():
        print(
            f"{name:22s} kernel exponent {entry['kernel_exponent']}  "
            f"full_scans {entry['full_scans']}"
        )
    print(f"[saved to {target}]")
    problems = check_structure(payload)
    for problem in problems:
        print(f"STRUCTURE: {problem}", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
