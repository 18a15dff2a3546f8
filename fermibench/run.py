"""fermipulse benchmark: one run of one workload.

    python3 fermibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh Python processes
(fermibench/worker.py): four that only set up, for the set-up time, and
one that sets up and then runs the workload.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the environment.

With --trace 0 the metrics are the end-to-end ones (medians over the
passes of the run); with --trace 1 they are per-layer counts and times
from one traced pass.  Workloads and metrics are described in
fermibench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "fermipulse")

SETUP_PROBES = 4  # set-up-only processes per run, besides the worker itself
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class RunError(Exception):
    pass


def _worker(args, deadline):
    """Run the worker in a fresh process; its last stdout line is JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        raise RunError(f"worker {' '.join(args)} exceeded the run deadline") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        raise RunError(f"worker exited with {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_sha():
    """Hash of the package sources, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def environment(worker_env):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **worker_env,
        "git_commit": _git_commit(),
        "source_sha256": source_sha(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker([*common, "--setup-only"], deadline)["setup_s"])
    res = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(res["setup_s"])

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpus"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "ratio"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": res["passes"],
        "walls_s": res["walls"],
        "setups_s": setups,
        "failed_ops": res["errors"],
        "wrong_outputs": res["wrong"],
        "environment": environment(res["environment"]),
    }
    result = {
        "correct": res["wrong_ops"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return detail, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the harness self-test")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"fermipulse sources not found under {PACKAGE}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        detail, result = measure(args)
    except RunError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
