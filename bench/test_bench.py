"""Smoke tests of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _package_attributes() -> dict:
    """Identity of every attribute the tracer may replace."""
    run.import_package()
    from lyubich_lab import bimodule_basis, operator_lab
    import numpy as np

    owners = [m for key, m in sorted(sys.modules.items())
              if key == "lyubich_lab" or key.startswith("lyubich_lab.")]
    owners += [bimodule_basis.PartitionOfUnity, operator_lab.OperatorModel, np.linalg]
    return {(id(owner), attr): id(value)
            for owner in owners for attr, value in list(vars(owner).items())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json_and_wrappers_do_not_leak(workload):
    before = _package_attributes()

    plain = _bench(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert not tracing.wrappers_installed()

    traced = _bench(workload, 1)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert not tracing.wrappers_installed()
    assert _package_attributes() == before


def test_traced_layers_follow_the_workloads():
    tree = _bench("tree_deep", 1)["metrics"]
    dense = _bench("verify_dense", 1)["metrics"]
    pointwise = _bench("transfer_pointwise", 1)["metrics"]
    assert tree["preimage_solver.atoms"]["value"] > 0
    assert tree["transfer_operator.cached_fiber_calls"]["value"] == 0
    assert all(v["value"] == 0 for k, v in tree.items() if k.startswith("operator_lab."))
    assert dense["operator_lab.eigvalsh_calls"]["value"] > 0
    assert dense["operator_lab.dense_bytes_computed"]["value"] > 0
    assert pointwise["transfer_operator.cached_fiber_calls"]["value"] > 0
    assert 0 < pointwise["transfer_operator.hit_ratio"]["value"] < 1


def test_known_defect_is_reported_not_fatal():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", "tree_deep", "--seed", "1", "--seconds", "0",
                  "--trace", "0", "--tiny"])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"]
    assert result["metrics"]["check_pass_frac"]["value"] < 1
    assert any("KNOWN FAILURE cheb3/invariance" in line for line in lines)
    assert any("reason:" in line for line in lines)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
