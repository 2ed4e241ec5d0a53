"""Shared machinery of the benchmark: statistics, host facts, processes, tables.

Nothing here imports the program under test: ``run.py`` puts the
checkout's ``src/`` on ``sys.path`` only after it has checked that the
sources are there, and the workloads import ``repro`` themselves.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import suppress
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: The program's sources inside the checkout.
SRC = ROOT / "src"

#: Fresh interpreters timed per run; ``setup_s`` is their median.  On a
#: shared 2-CPU host, speed swings between states lasting a few seconds
#: (start-up took ~0.3 s or ~0.5 s), and back-to-back starts all land in
#: one state, so each workload spreads its starts over the whole run:
#: half before the measured window, half after it.
SETUP_SAMPLES = 6

#: Seconds any one child process gets to report ready or to exit.
CHILD_TIMEOUT_SECONDS = 60.0


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def percentile_90(values: Sequence[float]) -> float:
    """90th percentile (inclusive method; exact sample value at n=1)."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def host_facts() -> Dict[str, object]:
    """Machine facts recorded beside every result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def load1() -> float:
    """The 1-minute load average."""
    return round(os.getloadavg()[0], 2)


def child_env(work: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    Any ambient ``REPRO_*`` setting (a fault spec, a cache directory)
    would change what the program does, so none is inherited; scratch
    files and the result cache land in the run's own work directory.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    return env


def apply_env(work: Path) -> None:
    """Make this process run under :func:`child_env` too."""
    env = child_env(work)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({key: env[key] for key in ("TMPDIR", "REPRO_CACHE_DIR")})
    (work / "tmp").mkdir(parents=True, exist_ok=True)


def time_setup(
    code: str, env: Dict[str, str], repeats: int, warm_up: bool = False
) -> List[float]:
    """Seconds from starting ``python -c code`` until it prints ``ready``.

    ``warm_up`` adds an untimed first start, so every timed start finds
    the bytecode already compiled, as every later run does.
    """
    samples = []
    for attempt in range(repeats + warm_up):
        started = perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=str(ROOT),
            text=True,
        )
        try:
            line = process.stdout.readline()
            elapsed = perf_counter() - started
            process.stdout.read()
        finally:
            process.stdout.close()
            status = process.wait(CHILD_TIMEOUT_SECONDS)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"set-up probe failed (exit {status}): {line!r}")
        if attempt or not warm_up:
            samples.append(elapsed)
    return samples


class ServiceProcess:
    """One ``python -m repro.service`` process on a free port."""

    def __init__(self, argv: Sequence[str], state_dir: Path, env: Dict[str, str]) -> None:
        state_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(state_dir.parent / f"{state_dir.name}.log", "w")
        started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--state-dir", str(state_dir), *argv],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(ROOT),
            text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://[^ ]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"service did not report its port: {line!r}")
        self.port = int(match.group(1))
        from repro.service.client import ServiceClient

        client = ServiceClient(port=self.port, timeout=5.0, retries=0)
        deadline = monotonic() + CHILD_TIMEOUT_SECONDS
        while not client.healthz():
            if monotonic() > deadline:
                self.stop()
                raise RuntimeError("service never became healthy")
            sleep(0.005)
        #: Seconds from spawn until ``/healthz`` answered ok.
        self.ready_seconds = perf_counter() - started

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it overstays; reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=CHILD_TIMEOUT_SECONDS / 2)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._log.close()
        return self.process.returncode


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A fabric worker whose service died would otherwise be re-parented
    to init and go on taxing the next run unseen; as a subreaper this
    process sees it as its own child and can reap it.
    """
    with suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def _children() -> List[Tuple[int, str]]:
    """``(pid, state)`` of every child of this process, zombies included."""
    own = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        state, parent = stat[stat.rindex(")") + 2:].split()[:2]
        # multiprocessing's resource tracker serves this process for its
        # whole life and exits with it; it is not a leftover of a run.
        if int(parent) == own and b"resource_tracker" not in cmdline:
            found.append((int(entry), state))
    return found


def reap_strays(keep: Sequence[int] = ()) -> int:
    """Kill and reap every child still alive but those in ``keep``;
    returns how many there were."""
    strays = 0
    for pid, state in _children():
        if pid in keep:
            continue
        if state != "Z":
            strays += 1
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)
    return strays


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def render_rows(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A plain aligned text table."""
    cells = [[str(cell) for cell in header]] + [
        [f"{cell:.6g}" if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    widths = [max(len(row[index]) for row in cells) for index in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    )
