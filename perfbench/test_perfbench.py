"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke mode runs one d=2 case per workload, so the whole file takes
seconds. It checks the harness's output contract, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# subset_d3 runs but is not in BENCHMARK.json; its smoke case is checked too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["subset_d3"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=180,
        cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_named_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    record, result = json.loads(record_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for metric in named:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"] == record["metrics"][metric["name"]]["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["metrics"]["failed_frac"]["value"] == 0
    assert record["environment"]["threads"] == 1
    assert set(record["digests"]) == set(record["cases"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = _run(tmp_path, "--workload", "qubit_sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_rebinds_every_namespace_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import numpy as np

    import entdist
    import entdist.cli as cli
    import entdist.sdp as sdp
    import spans

    before = (cli.solve_primal_ppt, sdp.verify_dual_feasibility, entdist.frobenius, np.linalg.eigh)
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.solve_primal_ppt is not before[0]
        assert sdp.verify_dual_feasibility is not before[1]
        assert entdist.frobenius is not before[2]
        assert np.linalg.eigh is not before[3]
        assert cli.main(["fef", "--dim", "2", "--spectrum", "0.7,0.3"]) == 0
    after = (cli.solve_primal_ppt, sdp.verify_dual_feasibility, entdist.frobenius, np.linalg.eigh)
    assert after == before
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"cli.main", "cli.resolve_config", "cli.emit", "states.weyl_basis"} <= names
