"""The benchmark's three workloads.

Each workload times calls into the program's public functions from
outside ``src/`` and reads the program's own spans and counters through
the public ``metrics=`` argument (in-process workloads) or
``GET /v1/metrics`` (the service).  It returns an :class:`Outcome`;
``run.py`` turns that into the printed result.

An *operation* is the unit a workload times: one simulation
(``paper-uaa``), one 256-replica study (``mc-ensemble``) or one job from
submit to results fetched (``service-sweep``).  Operations run back to
back until ``--seconds`` have passed; the last one may overrun.

With tracing on, operations alternate between untraced and traced, so
one run yields both the per-layer numbers and the cost of collecting
them (``trace_overhead_frac``) under the same machine conditions.
"""

from __future__ import annotations

import functools
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from harness import (
    SETUP_SAMPLES,
    ServiceProcess,
    median,
    peak_rss_mb,
    percentile_90,
    reap_strays,
    render_rows,
    time_setup,
)

#: Spans of the program nested inside each other, parent -> children.
#: ``bench/op`` is the benchmark's own span around the public call.
SPAN_CHILDREN: Dict[str, Tuple[str, ...]] = {
    "bench/op": ("runner/total",),
    "runner/total": ("runner/scan", "runner/execute", "runner/finalize"),
    "runner/scan": ("cache/get",),
    "runner/execute": ("runner/worker_run", "cache/put", "checkpoint/append"),
    "runner/worker_run": (
        "sim/endurance", "sim/components", "sim/init", "sim/kernel",
        "verify/invariants", "verify/shadow",
    ),
}

#: Client-side spans of one service job, parent -> children.  The
#: service's ``runner/total`` runs inside the wait for the job's end.
SERVICE_SPAN_CHILDREN: Dict[str, Tuple[str, ...]] = {
    "bench/job": ("bench/submit", "bench/stream", "bench/results", "bench/trace_read"),
    "bench/stream": ("runner/total",),
    **{name: children for name, children in SPAN_CHILDREN.items() if name != "bench/op"},
}


@dataclass
class Context:
    """What every workload gets from the command line."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    env: Dict[str, str]


@dataclass
class Outcome:
    """What a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: The workload's headline metrics under their own names, printed
    #: for people: ``(name, value, unit)``.
    headline: List[Tuple[str, float, str]] = field(default_factory=list)
    #: Gates that did not hold; any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)
    table: str = ""


def _minimum_ops(ctx: Context) -> int:
    """A traced run needs one untraced and one traced operation."""
    return 2 if ctx.trace else 1


def _closed_loop(
    ctx: Context, operation: Callable[[int], None], minimum: int = 0
) -> float:
    """Run ``operation(index)`` back to back for ``ctx.seconds``."""
    started = perf_counter()
    index = 0
    while index < max(minimum, _minimum_ops(ctx)) or perf_counter() - started < ctx.seconds:
        operation(index)
        index += 1
    return perf_counter() - started


def _traced(ctx: Context, index: int) -> bool:
    return ctx.trace and index % 2 == 1


def _overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


def _fingerprint(result) -> tuple:
    """The simulated quantities every engine and backend must agree on."""
    return (
        float(result.writes_served),
        float(result.total_endurance),
        int(result.deaths),
        int(result.replacements),
        str(result.failure_reason),
    )


def _structure(result) -> tuple:
    """Kernel structure counters a simulation reports in its metadata."""
    return tuple(str(result.metadata.get(name)) for name in ("epochs", "full_scans"))


def _merge(snapshots: Sequence[dict]) -> dict:
    """Sum counters and timing totals (and span calls) of several snapshots."""
    counters: Dict[str, float] = {}
    timings: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, timing in snapshot.get("timings", {}).items():
            timings[name] = timings.get(name, 0.0) + float(timing["sum"])
            calls[name] = calls.get(name, 0) + int(timing["count"])
    return {"counters": counters, "timings": timings, "calls": calls}


def _diff(after: dict, before: dict) -> dict:
    """``after - before`` of two service manifests, in :func:`_merge` form."""
    merged_after = _merge([after])
    merged_before = _merge([before])
    return {
        family: {
            name: value - merged_before[family].get(name, 0)
            for name, value in merged_after[family].items()
        }
        for family in ("counters", "timings", "calls")
    }


def _layer_metrics(totals: dict, per: int, workers: int) -> Dict[str, float]:
    """Per-layer metrics per operation from summed counters and timings."""
    per = max(per, 1)
    timing = totals["timings"].get
    count = totals["counters"].get

    def seconds(name: str) -> float:
        return timing(name, 0.0) / per

    def counted(name: str) -> float:
        return count(name, 0) / per

    deaths = count("sim.deaths", 0)
    leases = count("fabric.leases_granted", 0)
    return {
        "endurance.emap_s": seconds("sim/endurance"),
        "sim.init_s": seconds("sim/init"),
        "sim.kernel_s": seconds("sim/kernel"),
        "sim.epochs": counted("sim.epochs"),
        "sim.full_scans": counted("sim.full_scans"),
        "sim.deaths": counted("sim.deaths"),
        "sim.kernel_us_per_death": timing("sim/kernel", 0.0) / deaths * 1e6 if deaths else 0.0,
        "runner.scan_s": seconds("runner/scan"),
        "runner.queue_wait_s": seconds("runner/queue_wait"),
        "runner.harvest_latency_s": seconds("runner/harvest_latency"),
        "runner.worker_run_s": seconds("runner/worker_run"),
        "runner.overhead_s": (
            timing("runner/execute", 0.0) - timing("runner/worker_run", 0.0) / workers
        ) / per,
        "runner.tasks": counted("runner.tasks"),
        "runner.retries": counted("runner.retries"),
        "runner.failures": counted("runner.failures"),
        "cache.get_s": seconds("cache/get"),
        "cache.put_s": seconds("cache/put"),
        "cache.hits": counted("cache.hits"),
        "checkpoint.append_s": seconds("checkpoint/append"),
        "fabric.leases_granted": counted("fabric.leases_granted"),
        "fabric.leases_expired": counted("fabric.leases_expired"),
        "fabric.requeues": counted("fabric.requeues"),
        "fabric.useful_frac": count("runner.tasks", 0) / leases if leases else 0.0,
    }


def _span_table(
    totals: dict,
    children: Dict[str, Tuple[str, ...]],
    workers: int,
    ops: int,
    label: str,
) -> str:
    """Per-layer table: calls, total, self time, self time as a share of
    the benchmark's own span around the operation (the first parent)."""
    timings = totals["timings"]
    # worker_run runs on every worker at once, so it covers its parent's
    # wall time only divided by the worker count.
    divisor = {"runner/worker_run": float(workers)}
    root = timings.get(next(iter(children)), 0.0)
    table = []
    for name in sorted(timings):
        covered = sum(
            timings.get(child, 0.0) / divisor.get(child, 1.0)
            for child in children.get(name, ())
        )
        own = timings[name] - covered
        table.append([
            name, totals["calls"].get(name, 0), timings[name] / ops, own / ops,
            f"{own / root:.1%}" if root else "-",
        ])
    header = ["span", "calls", f"total s/{label}", f"self s/{label}", "self share"]
    note = (
        f"self = total - time covered by child spans; runner/worker_run and the "
        f"spans inside it are summed over {workers} worker(s), so worker_run "
        f"covers its parent / {workers}"
    )
    return render_rows(header, table) + "\n" + note


# ----------------------------------------------------------------------
# paper-uaa
# ----------------------------------------------------------------------

#: The paper's device: 1 GB of 256-B lines = 2048 regions x 2048 lines.
PAPER_GEOMETRY = {"regions": 2048, "lines_per_region": 2048}

#: Endurance maps a run cycles through.  The kernel's ``argpartition``
#: costs up to ~20% more on some placements than on others (seconds per
#: simulation ranged 7.9-9.5 s over nine seeds on a 2-CPU host), so a run
#: samples several maps and reports their median.
PAPER_MAPS = 3

PAPER_SETUP = """
from repro.sim.batch import RunSpec, run_batch
from repro.sim.config import ExperimentConfig
ExperimentConfig(regions=2048, lines_per_region=2048, seed={seed}).make_emap()
print("ready", flush=True)
"""


def paper_seeds(seed: int) -> List[int]:
    """``ExperimentConfig.seed`` of each map: the workload seed, then
    seeds drawn from it."""
    rng = random.Random(f"paper-uaa/{seed}")
    return [seed] + [rng.randrange(2**31) for _ in range(PAPER_MAPS - 1)]


def paper_uaa(ctx: Context) -> Outcome:
    """One UAA / Max-WE simulation at the paper's 2^22-line geometry."""
    outcome = Outcome()
    setup_code = PAPER_SETUP.format(seed=ctx.seed)
    setup = time_setup(setup_code, ctx.env, SETUP_SAMPLES // 2, warm_up=True)

    from repro.obs.metrics import MetricsRegistry
    from repro.sim.batch import RunSpec, run_batch
    from repro.sim.config import ExperimentConfig

    seeds = paper_seeds(ctx.seed)
    spec = RunSpec(label="paper-uaa", attack="uaa", sparing="max-we")
    ops: List[dict] = []

    def operation(index: int) -> None:
        # A traced run starts with one untraced simulation, the only one
        # that pays for first-touch allocation, then pairs each traced
        # simulation with an untraced one on the same map, so the cost
        # of tracing is not confounded with either.
        if ctx.trace:
            seed = seeds[max(index - 1, 0) // 2 % PAPER_MAPS]
        else:
            seed = seeds[index % PAPER_MAPS]
        registry = MetricsRegistry() if _traced(ctx, index) else None
        outcome.attempted += 1
        started = perf_counter()
        try:
            batch = run_batch(
                [spec], ExperimentConfig(**PAPER_GEOMETRY, seed=seed),
                jobs=1, cache=None, metrics=registry,
            )
        except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
            outcome.failed += 1
            outcome.problems.append(f"simulation raised {error!r}")
            return
        elapsed = perf_counter() - started
        op = {
            "index": index, "seed": seed, "seconds": elapsed,
            "result": batch.results[0], "snapshot": None,
        }
        if registry is not None:
            op["snapshot"] = registry.snapshot()
            op["snapshot"]["timings"]["bench/op"] = {"sum": elapsed, "count": 1}
        ops.append(op)

    window = _closed_loop(ctx, operation, minimum=3 if ctx.trace else 1)
    peak = peak_rss_mb()
    setup += time_setup(setup_code, ctx.env, SETUP_SAMPLES - SETUP_SAMPLES // 2)

    # Reference: the scalar exact engine on each map, outside the timed
    # window (and after the RSS reading: it needs twice the memory).
    structure = {}
    for seed in sorted({op["seed"] for op in ops}):
        reference = run_batch(
            [spec], ExperimentConfig(**PAPER_GEOMETRY, seed=seed), engine="fluid-exact"
        ).results[0]
        same_map = [op for op in ops if op["seed"] == seed]
        for op in same_map:
            if _fingerprint(op["result"]) != _fingerprint(reference):
                outcome.failed += 1
        _check_structure(outcome, seed, same_map)
        first = same_map[0]["result"]
        structure[seed] = dict(zip(("epochs", "full_scans"), _structure(first)), deaths=first.deaths)
    outcome.detail.update(reference="fluid-exact", structure=structure)

    untraced = [op["seconds"] for op in ops if op["snapshot"] is None]
    traced = [op for op in ops if op["snapshot"] is not None]
    if untraced:
        outcome.end_to_end = {
            "op_p50_s": median(untraced),
            "ops_per_s": len(ops) / window,
            "setup_s": median(setup),
            "peak_rss_mb": peak,
        }
        outcome.headline = [("sim_s", median(untraced), "s")]
    outcome.detail.update(
        setup_samples=setup,
        op_samples=[(op["seed"], op["seconds"]) for op in ops if op["snapshot"] is None],
        traced_samples=[(op["seed"], op["seconds"]) for op in traced],
    )
    if ctx.trace and traced:
        snapshots = [op["snapshot"] for op in traced]
        totals = _merge(snapshots)
        outcome.per_layer = _layer_metrics(totals, len(snapshots), workers=1)
        outcome.per_layer["trace_overhead_frac"] = _overhead(
            [op["seconds"] for op in traced],
            [op["seconds"] for op in ops if op["snapshot"] is None and op["index"]],
        )
        outcome.table = _span_table(totals, SPAN_CHILDREN, 1, len(snapshots), "sim")
    return outcome


def _check_structure(outcome: Outcome, seed: int, ops: Sequence[dict]) -> None:
    """Simulations of one map must repeat their kernel structure exactly,
    and a traced one's counters must agree with its own result."""
    seen = {_structure(op["result"]) for op in ops}
    if len(seen) > 1:
        outcome.problems.append(f"seed {seed}: kernel structure drifted: {seen}")
    for op in ops:
        if op["snapshot"] is None:
            continue
        result = op["result"]
        expected = {
            "sim.epochs": result.metadata.get("epochs"),
            "sim.full_scans": result.metadata.get("full_scans"),
            "sim.deaths": result.deaths,
        }
        for counter, value in expected.items():
            seen_value = op["snapshot"]["counters"].get(counter)
            if seen_value != (None if value is None else int(value)):
                outcome.problems.append(
                    f"seed {seed}: {counter} = {seen_value}, result says {value}"
                )


# ----------------------------------------------------------------------
# mc-ensemble
# ----------------------------------------------------------------------

#: Small rows stacked many at a time: 8192 regions x 8 lines (2^16 lines).
MC_GEOMETRY = {"regions": 8192, "lines_per_region": 8}
MC_REPLICAS = 256
MC_JOBS = 2

#: Replicas re-run one by one on ``fluid-batched`` as the reference.
#: Replica seeds are forked as one stream, so the first K replicas of a
#: 256-replica study are exactly the replicas of a K-replica study.
MC_SAMPLE = 32

MC_SETUP = """
from repro.sim.montecarlo import monte_carlo_lifetime
from repro.sim.runner import build_attack, build_sparing
print("ready", flush=True)
"""


def mc_ensemble(ctx: Context) -> Outcome:
    """A 256-replica UAA / Max-WE study on the ensemble engine, pool of 2."""
    outcome = Outcome()
    setup = time_setup(MC_SETUP, ctx.env, SETUP_SAMPLES // 2, warm_up=True)

    from repro.obs.metrics import MetricsRegistry
    from repro.sim.config import ExperimentConfig
    from repro.sim.montecarlo import monte_carlo_lifetime
    from repro.sim.runner import build_attack, build_sparing

    config = ExperimentConfig(**MC_GEOMETRY, seed=ctx.seed)
    attack = functools.partial(build_attack, "uaa")
    sparing = functools.partial(build_sparing, "max-we", 0.1, 0.9)
    untraced: List[float] = []
    traced: List[float] = []
    snapshots: List[dict] = []
    studies: List[list] = []

    def operation(index: int) -> None:
        registry = MetricsRegistry() if _traced(ctx, index) else None
        outcome.attempted += 1
        started = perf_counter()
        try:
            study = monte_carlo_lifetime(
                attack, sparing, config=config, replicas=MC_REPLICAS,
                engine="fluid-ensemble", jobs=MC_JOBS, backend="pool",
                metrics=registry,
            )
        except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
            outcome.failed += 1
            outcome.problems.append(f"study raised {error!r}")
            return
        elapsed = perf_counter() - started
        studies.append([_fingerprint(result) for result in study.results])
        if registry is None:
            untraced.append(elapsed)
            return
        traced.append(elapsed)
        snapshot = registry.snapshot()
        snapshot["timings"]["bench/op"] = {"sum": elapsed, "count": 1}
        snapshots.append(snapshot)

    window = _closed_loop(ctx, operation)
    peak = peak_rss_mb()
    setup += time_setup(MC_SETUP, ctx.env, SETUP_SAMPLES - SETUP_SAMPLES // 2)

    if studies:
        reference = monte_carlo_lifetime(
            attack, sparing, config=config, replicas=MC_SAMPLE,
            engine="fluid-batched", jobs=1,
        )
        expected = [_fingerprint(result) for result in reference.results]
        for study in studies:
            if study[:MC_SAMPLE] != expected or study != studies[0]:
                outcome.failed += 1
        outcome.detail["reference"] = f"fluid-batched per-task, first {MC_SAMPLE} replicas"

    if untraced:
        outcome.end_to_end = {
            "op_p50_s": median(untraced),
            "ops_per_s": len(studies) / window,
            "setup_s": median(setup),
            "peak_rss_mb": peak,
        }
        outcome.headline = [("replica_ms", median(untraced) / MC_REPLICAS * 1e3, "ms")]
    outcome.detail.update(setup_samples=setup, op_samples=untraced, traced_samples=traced)
    if ctx.trace and snapshots:
        totals = _merge(snapshots)
        names = ("sim.epochs", "sim.full_scans", "sim.deaths", "runner.tasks")
        seen = {tuple(snapshot["counters"].get(name) for name in names) for snapshot in snapshots}
        if len(seen) > 1:
            outcome.problems.append(f"structural counters drifted between studies: {seen}")
        tasks = snapshots[0]["counters"].get("runner.tasks")
        if tasks != MC_REPLICAS:
            outcome.problems.append(f"runner.tasks = {tasks}, expected {MC_REPLICAS}")
        outcome.per_layer = _layer_metrics(totals, len(snapshots), workers=MC_JOBS)
        outcome.per_layer["trace_overhead_frac"] = _overhead(traced, untraced)
        outcome.table = _span_table(totals, SPAN_CHILDREN, MC_JOBS, len(snapshots), "study")
    return outcome


# ----------------------------------------------------------------------
# service-sweep
# ----------------------------------------------------------------------

SERVICE_ARGV = ("--backend", "fabric", "--jobs", "2", "--dispatchers", "1")
SERVICE_CLIENTS = 2
SERVICE_GEOMETRY = {"regions": 1024, "lines_per_region": 8}

#: Every batch: 3 attacks x 4 sparing schemes = 12 specs.
SERVICE_SPECS = tuple(
    {"label": f"{attack}/{sparing}", "attack": attack, "sparing": sparing}
    for attack in ("uaa", "bpa", "repeated")
    for sparing in ("max-we", "ps", "pcd", "none")
)

#: Every DUPLICATE_EVERY-th submission of a client repeats one of its
#: earlier batches, so store dedup reads run beside fresh computation.
DUPLICATE_EVERY = 4

#: Schedule length per client; far more jobs than any window completes.
SCHEDULE_LENGTH = 2000

def service_schedule(seed: int) -> List[List[Tuple[int, bool]]]:
    """Per client, the ``(batch seed, is_duplicate)`` of each submission.

    Fresh batches get seeds no other batch of the run uses, so their
    specs are new to the result cache; a duplicate repeats one of the
    same client's earlier (already finished) batches.
    """
    rng = random.Random(f"service-sweep/{seed}")
    used = set()
    schedules = []
    for _client in range(SERVICE_CLIENTS):
        fresh: List[int] = []
        schedule = []
        for index in range(SCHEDULE_LENGTH):
            if index % DUPLICATE_EVERY == DUPLICATE_EVERY - 1:
                schedule.append((rng.choice(fresh), True))
                continue
            batch_seed = rng.randrange(2**31)
            while batch_seed in used:
                batch_seed = rng.randrange(2**31)
            used.add(batch_seed)
            fresh.append(batch_seed)
            schedule.append((batch_seed, False))
        schedules.append(schedule)
    return schedules


def _client_loop(
    ctx: Context,
    client_index: int,
    port: int,
    schedule: Sequence[Tuple[int, bool]],
    started: float,
    records: List[dict],
) -> None:
    """One closed-loop client: submit, stream to the end, fetch results."""
    from repro.service.client import ServiceClient

    client = ServiceClient(port=port, timeout=60.0)
    for index, (batch_seed, duplicate) in enumerate(schedule):
        if index >= _minimum_ops(ctx) and perf_counter() - started >= ctx.seconds:
            break
        record = {
            "client": client_index, "index": index, "seed": batch_seed,
            "duplicate": duplicate, "traced": _traced(ctx, index), "fallback": False,
        }
        try:
            t0 = perf_counter()
            job = client.submit(list(SERVICE_SPECS), {**SERVICE_GEOMETRY, "seed": batch_seed})
            t1 = perf_counter()
            events = list(client.stream_events(job["job_id"]))
            terminal = events[-1].get("event") if events else None
            if terminal not in ("done", "failed"):
                # The stream ended without the job's end: fall back to
                # polling, and count it, since it distorts the latency.
                record["fallback"] = True
                terminal = client.wait(job["job_id"], timeout=60.0)["status"]
            t2 = perf_counter()
            if terminal != "done":
                raise RuntimeError(f"job ended {terminal}")
            record["body"] = client.results(job["job_id"])
            t3 = perf_counter()
            if record["traced"]:
                client.metrics()
            t4 = perf_counter()
            record.update(
                ok=True, submit=t1 - t0, stream=t2 - t1, results=t3 - t2,
                trace_read=t4 - t3, latency=t4 - t0, finished=t4,
            )
        except Exception as error:  # noqa: BLE001 - the client reports failures and keeps going
            record.update(ok=False, error=repr(error), finished=perf_counter())
        records.append(record)


def service_sweep(ctx: Context) -> Outcome:
    """Two closed-loop clients against the job service on the fabric backend."""
    outcome = Outcome()
    from repro.service.client import ServiceClient

    # Set-up is timed as in the other workloads: an untimed warm-up
    # start, half the starts before the window (the last one serves it),
    # half after it.
    setup: List[float] = []
    first_half = SETUP_SAMPLES // 2
    for attempt in range(first_half + 1):
        service = ServiceProcess(SERVICE_ARGV, ctx.work / f"service-{attempt}", ctx.env)
        if attempt:
            setup.append(service.ready_seconds)
        if attempt < first_half:
            service.stop()
    strays = reap_strays(keep=(service.process.pid,))

    records: List[dict] = []
    schedules = service_schedule(ctx.seed)
    client = ServiceClient(port=service.port, timeout=60.0)
    try:
        before = client.metrics()
        started = perf_counter()
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(ctx, index, service.port, schedules[index], started, records),
                name=f"perfbench-client-{index}",
            )
            for index in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(ctx.seconds + 120.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a service client did not finish")
        window = max(record["finished"] for record in records) - started
        after = client.metrics()
    finally:
        exit_code = service.stop()
    strays += reap_strays()
    peak = peak_rss_mb()
    for attempt in range(first_half + 1, SETUP_SAMPLES + 1):
        extra = ServiceProcess(SERVICE_ARGV, ctx.work / f"service-{attempt}", ctx.env)
        setup.append(extra.ready_seconds)
        extra.stop()
    strays += reap_strays()

    outcome.attempted = len(records)
    ok = [record for record in records if record["ok"]]
    outcome.failed = len(records) - len(ok)
    for record in records:
        if not record["ok"]:
            outcome.problems.append(f"job failed: {record['error']}")

    # Every body must be byte-identical to a direct run_batch of its batch.
    from repro.sim.batch import run_batch
    from repro.sim.config import ExperimentConfig

    references: Dict[int, str] = {}
    for record in ok:
        seed = record["seed"]
        if seed not in references:
            references[seed] = run_batch(
                list(SERVICE_SPECS), ExperimentConfig(**SERVICE_GEOMETRY, seed=seed)
            ).to_json()
        if record.pop("body") != references[seed]:
            outcome.failed += 1

    totals = _diff(after, before)
    counters = totals["counters"]
    fresh = [record for record in ok if not record["duplicate"]]
    duplicates = len(ok) - len(fresh)
    gates = {
        "runner.tasks": (counters.get("runner.tasks", 0), len(SERVICE_SPECS) * len(fresh)),
        "fabric.leases_granted": (counters.get("fabric.leases_granted", 0), counters.get("runner.tasks", 0)),
        "service.dedup_hits": (counters.get("service.dedup_hits", 0), duplicates),
        "service.submitted": (counters.get("service.submitted", 0), len(records)),
        "cache.hits": (counters.get("cache.hits", 0), 0),
        "stray_processes": (strays, 0),
        "service_exit_code": (exit_code, 0),
    }
    for name, (seen, expected) in gates.items():
        if seen != expected:
            outcome.problems.append(f"{name} = {seen}, expected {expected}")
    outcome.detail["gates"] = {name: seen for name, (seen, _expected) in gates.items()}
    fallbacks = sum(record["fallback"] for record in records)

    latencies = [record["latency"] for record in ok if not record["traced"]]
    if latencies:
        outcome.end_to_end = {
            "op_p50_s": median(latencies),
            "ops_per_s": len(ok) / window,
            "setup_s": median(setup),
            "peak_rss_mb": peak,
        }
        outcome.headline = [
            ("job_p50_s", median(latencies), "s"),
            ("job_p90_s", percentile_90(latencies), "s"),
            ("jobs_per_s", len(ok) / window, "1/s"),
        ]
    outcome.detail.update(
        setup_samples=setup, jobs=len(records), fresh_jobs=len(fresh),
        duplicate_jobs=duplicates, wait_fallbacks=fallbacks,
        latency_samples=len(latencies), window_s=window,
    )
    if ctx.trace and ok:
        for span, key in (
            ("bench/job", "latency"), ("bench/submit", "submit"), ("bench/stream", "stream"),
            ("bench/results", "results"), ("bench/trace_read", "trace_read"),
        ):
            totals["timings"][span] = sum(record[key] for record in ok)
            totals["calls"][span] = len(ok)
        per_layer = _layer_metrics(totals, len(fresh), workers=2)
        per_layer.update({
            "service.submit_s": median([record["submit"] for record in ok]),
            "service.results_s": median([record["results"] for record in ok]),
            "service.dedup_frac": (
                counters.get("service.dedup_hits", 0) / counters["service.submitted"]
                if counters.get("service.submitted") else 0.0
            ),
            "service.wait_fallbacks": float(fallbacks),
            "job_p90_s": percentile_90([record["latency"] for record in ok]),
            "trace_overhead_frac": _overhead(
                [r["latency"] for r in fresh if r["traced"]],
                [r["latency"] for r in fresh if not r["traced"]],
            ),
        })
        outcome.per_layer = per_layer
        outcome.table = _span_table(totals, SERVICE_SPAN_CHILDREN, 2, len(ok), "job")
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "paper-uaa": paper_uaa,
    "mc-ensemble": mc_ensemble,
    "service-sweep": service_sweep,
}
