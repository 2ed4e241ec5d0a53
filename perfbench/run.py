"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload paper-uaa --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from anywhere inside a checkout; it builds nothing (the program
is pure Python under ``src/``) and writes only under ``.perfbench/`` in
the checkout, which it removes again.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines
before it are for people: host facts, the workload's headline metrics
under their own names, and with ``--trace 1`` a per-layer table.

``--workload all`` runs every workload untraced and traced, each in its
own interpreter, and prints all of the above for each.

See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import suppress
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    ROOT,
    SRC,
    apply_env,
    become_subreaper,
    child_env,
    host_facts,
    load1,
    reap_strays,
)
from workloads import WORKLOADS, Context  # noqa: E402

#: Workload seed used for nothing while the benchmark or a change is
#: tuned; a claimed gain must also hold on it (``--seed held-out``).
HELD_OUT_SEED = 90210

def _seed(text: str) -> int:
    if text == "held-out":
        return HELD_OUT_SEED
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=_seed, default=1, help="workload seed, or 'held-out'")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _declared() -> dict:
    """Metric names and units, from the benchmark's own declaration."""
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {entry["name"]: entry["unit"] for entry in declaration["end_to_end"]},
        "per_layer": {entry["name"]: entry["unit"] for entry in declaration["per_layer"]},
    }


def run_one(args: argparse.Namespace) -> int:
    declared = _declared()
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_work_root()))
    try:
        apply_env(work)
        become_subreaper()
        load_start = load1()
        ctx = Context(
            seed=args.seed % 2**31, seconds=args.seconds, trace=bool(args.trace),
            work=work, env=child_env(work),
        )
        outcome = WORKLOADS[args.workload](ctx)
        strays = reap_strays()
        if strays:
            outcome.problems.append(f"{strays} stray child process(es) left behind")
        load_end = load1()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work.parent.rmdir()  # fails while another run still uses it

    family = "per_layer" if args.trace else "end_to_end"
    values = outcome.per_layer if args.trace else outcome.end_to_end
    if not values:
        print(f"perfbench: {args.workload} measured nothing: {outcome.problems}", file=sys.stderr)
        return 1
    # A layer the workload never exercises reads 0 (the README lists
    # which layers each workload exercises).
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared[family].items()
    }
    unknown = set(values) - set(metrics)
    if unknown:
        raise RuntimeError(f"undeclared metrics {sorted(unknown)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {**host_facts(), "load1_start": load_start, "load1_end": load_end},
        "problems": outcome.problems,
        "detail": outcome.detail,
    }
    print("record " + json.dumps(record, sort_keys=True, default=str))
    failed_frac = outcome.failed / outcome.attempted
    for name, value, unit in [*outcome.headline, ("failed_frac", failed_frac, "ratio")]:
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"{args.workload}  {family} {name} = {entry['value']:.6g} {entry['unit']}")
    if outcome.table:
        print(f"{args.workload}  per-layer spans (traced operations)")
        print(outcome.table)
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if completed.returncode != 0 or not lines:
                print(f"perfbench: {workload} --trace {trace} failed", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(summary))
    return 0


def _work_root() -> Path:
    root = ROOT / ".perfbench"
    root.mkdir(exist_ok=True)
    return root


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
