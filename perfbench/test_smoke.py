"""Smoke test of the benchmark itself, on small grids (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced.  The tests check that
each metric BENCHMARK.json declares is emitted with its unit, that no job
failed a check, that the traced counts match what the code does, and that
the benchmark refuses to run without the package sources.
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
SEED = 7


def bench(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--small", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


def values(out):
    return {k: v["value"] for k, v in out["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: result(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    out = result(workload, 0)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values(out).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(traced, workload):
    assert {k: v["unit"] for k, v in traced[workload]["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_traced_counts_match_the_code(traced):
    decay = values(traced["decay_nonlinear_512"])
    steps = decay["timestepper.step_ifrk4.calls"]
    assert steps > 0
    assert decay["operators.nonlinear_coeffs.calls"] == 4 * steps
    # 9 per step, 1 per sample, and the initial forward transform
    assert decay["spectral.fft.calls"] == 9 * steps + decay["norms.record.calls"] + 1

    assert values(traced["linear_sampled_512"])["operators.nonlinear_coeffs.calls"] == 0

    lab = values(traced["ineq_lab"])
    record = json.loads((HERE / "results" / f"ineq_lab_seed{SEED}_trace1.json").read_text())
    fields_per_job = record["counts"]["fields"] // record["counts"]["jobs"]
    assert lab["spectral.forward_transform.calls"] == 3 * fields_per_job


def test_traced_counts_repeat(traced):
    again = values(result("decay_nonlinear_512", 1))
    first = values(traced["decay_nonlinear_512"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert {k: again[k] for k in counts} == {k: first[k] for k in counts}


def test_missing_hook_target_is_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing

    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + [
        ("spectral.removed", "anisoflow.spectral", "no_such_function"),
        ("gone.module", "anisoflow.no_such_module", "f"),
    ])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["spectral.removed", "gone.module"]
    metrics = tracing.layer_metrics(tracer.summary(), 1.0, 1.0, jobs=1)
    assert list(metrics) == list(tracing.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
