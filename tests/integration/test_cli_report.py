"""`repro report` runs on the shared execution flags.

A parallel fabric report must print the serial report's document, and
its ``--metrics-out`` file must validate against the metrics schema.
"""

import os
import subprocess
import sys

from repro.cli import main

SMALL = ["--regions", "256", "--lines-per-region", "4", "--no-cache"]


def test_fabric_report_matches_serial_and_writes_valid_metrics(capsys, tmp_path):
    assert main(["report", *SMALL]) == 0
    serial = capsys.readouterr().out

    metrics_path = tmp_path / "report.jsonl"
    argv = ["report", *SMALL, "--jobs", "2", "--backend", "fabric"]
    assert main([*argv, "--metrics-out", str(metrics_path)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[-1] == f"[metrics written to {metrics_path}]\n"
    assert "".join(lines[:-1]) == serial

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    validated = subprocess.run(
        [sys.executable, "-m", "repro.obs", "validate", str(metrics_path)],
        env=dict(os.environ, PYTHONPATH=src_root),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert validated.returncode == 0, validated.stdout + validated.stderr
