"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest fermibench/test_harness.py

Runs every workload once untraced and once traced through run.py, and
checks that each metric named in BENCHMARK.json is printed with its unit
and that traced self times account for the traced wall time.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check, load_references  # noqa: E402
from workloads import WORKLOADS, Outcome, passes  # noqa: E402

# self times cover the traced wall time up to the harness's own loop code
# between spans
TRACE_GAP_FRAC = 0.05


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    res = _run(workload, trace, seed=7)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in res["metrics"].items()}
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", ["total-sweep", "full-mode-spectra"])
def test_self_times_sum_to_traced_wall(workload):
    # single-threaded workloads: spans nest without overlap
    m = {k: v["value"] for k, v in _run(workload, 1)["metrics"].items()}
    wall = m["trace.wall_s"]
    assert m["trace.spans"] > 0
    assert abs(m["trace.self_sum_s"] - wall) <= TRACE_GAP_FRAC * wall


@pytest.mark.parametrize("key", ["fd/total", "mb/angular/0", "fd/frequency/24"])
def test_seeded_library_outputs_are_compared_with_references(key):
    # at a nonzero seed only interior points move; the totals and the end
    # points keep their seed-0 inputs and so their references
    wl = WORKLOADS["full-mode-spectra"]["full"]
    ref = load_references()[wl.name]
    inputs = wl.inputs(7)
    assert key in wl.reference_keys(inputs)
    assert "fd/angular/5" not in wl.reference_keys(inputs)
    outcomes = [Outcome(k, value=list(v)) for k, v in ref["ops"].items() if v is not None]
    assert not any(check(wl, outcomes, ref, inputs).values())
    # a change of 1e-4 of the series peak, well above the 1e-6 tolerance
    series = key if key.endswith("total") else key.rsplit("/", 1)[0]
    step = 1e-4 * max(o.value[0] for o in outcomes if o.key.startswith(series))
    bumped = [Outcome(o.key, value=[o.value[0] + step, o.value[1]]) if o.key == key else o for o in outcomes]
    problems = check(wl, bumped, ref, inputs)
    assert [k for k, v in problems.items() if v] == [key]


def test_seeds_keep_theta_within_the_scanned_margin():
    # every theta stays within 1 degree of its grid point, where the set of
    # failing operations is known not to change (KNOWN_DEFECTS.md)
    wl = WORKLOADS["full-mode-spectra"]["full"]
    grid, _ = wl.inputs(0)
    for seed in range(1, 200):
        thetas, _ = wl.inputs(seed)
        assert max(abs(a - b) for a, b in zip(thetas, grid)) <= math.radians(1.0)


def test_passes_do_not_depend_on_speed():
    wl = WORKLOADS["full-mode-spectra"]["full"]
    assert passes(wl, 1) == 1
    assert passes(wl, 40) == 3


def test_pool_busy_fraction_is_a_fraction():
    m = {k: v["value"] for k, v in _run("formfunc-hot-grid", 1)["metrics"].items()}
    assert 0.0 < m["cli.pool.busy_frac"] <= 1.0
    assert m["formfunc.coh.evals"] == m["formfunc.inc.evals"] > 0


def test_missing_program_exits_nonzero(tmp_path):
    # a checkout without the program: BENCHMARK.json and this directory only
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "fermibench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "fermibench/run.py", "--workload", "total-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
