"""Smoke runs of the command-line scripts under scripts/."""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )


def test_sweep_spectrum_writes_csv():
    proc = run_script("sweep_spectrum.py", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "p1,fef,protocol,certificate,sdp"
    assert len(lines) == 4


def test_sweep_spectrum_solves_every_point():
    proc = run_script("sweep_spectrum.py", "--steps", "2", "--sdp")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert abs(float(row[4]) - float(row[1])) < 1e-3


def test_incomplete_bounds_scan_writes_csv():
    proc = run_script("incomplete_bounds_scan.py", "--dim", "2", "--spectrum", "0.8,0.2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "n_states,lower_completion,lower_projector,upper,sdp"
    assert len(lines) == 3


def test_incomplete_bounds_scan_rejects_wrong_length_spectrum():
    proc = run_script("incomplete_bounds_scan.py", "--dim", "3", "--spectrum", "0.5,0.5")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_incomplete_bounds_scan_solves_every_size():
    proc = run_script(
        "incomplete_bounds_scan.py", "--dim", "2", "--spectrum", "0.8,0.2", "--sdp"
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["3", "4"]
    # F = (sqrt(0.8) + sqrt(0.2))^2 / 2 = 0.9; the complete row meets it
    assert abs(float(rows[1][4]) - 0.9) <= 1e-4 + 1e-6


def test_incomplete_bounds_scan_refuses_oversized_runs():
    start = time.perf_counter()
    proc = run_script("incomplete_bounds_scan.py", "--dim", "100")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert elapsed < 1.0
