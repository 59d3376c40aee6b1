"""Self-test of the benchmark.  Slow: about four minutes on two cores.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload untraced once and traced twice, with the shortest run
length, and checks that the traced counts repeat exactly, that every metric
declared in BENCHMARK.json is printed with its unit and that every output
check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

JOBS = {
    "analytic-sweep": ["mean_decodable", "nearest", "throughput", "hypotheses", "count_bound"],
    "monte-carlo": ["simulate", "mc_sweep", "validate", "dist"],
    "link-check": ["link_profile", "link_closed_form"],
}


def bench(workload, trace, cwd=ROOT):
    cmd = SPEC["command"][1:]
    return subprocess.run([sys.executable, *cmd, "--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for w in WORKLOADS:
        for key, trace in (("plain", 0), ("traced", 1), ("traced_again", 1)):
            done = bench(w, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            out[w, key] = (lines[:-1], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_correct(runs, workload):
    for key in ("plain", "traced", "traced_again"):
        lines, result = runs[workload, key]
        assert result["correct"] and result["failed"] == 0, lines
        assert result["attempted"] >= len(JOBS[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_unit(runs, workload):
    for key, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        lines, result = runs[workload, key]
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared
        for name, unit in declared.items():
            assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines), name
    plain_lines = runs[workload, "plain"][0]
    for job in JOBS[workload]:
        assert any(ln.startswith(f"{job}_s ") and ln.endswith(" s") for ln in plain_lines), job
    assert any(ln.startswith("failed_frac 0 ") for ln in plain_lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(runs, workload):
    first = runs[workload, "traced"][1]["metrics"]
    again = runs[workload, "traced_again"][1]["metrics"]
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert "simulation.sample_snapshot.calls" in counts and "quadrature.nodes" in counts
    for name in counts:
        assert first[name]["value"] == again[name]["value"], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
