"""One benchmark run of one workload in a fresh Python process.

    python3 fermibench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                 [--size full|tiny] [--setup-only]

Prints one JSON object as its last line.  Set-up is ``import fermipulse``
plus ``solve_fugacity`` for every state of the workload.  Without tracing
it then runs a fixed number of timed passes, about --seconds in all
(workloads.passes).  With tracing it runs one untraced pass, to measure the
tracing overhead, and one traced pass, and writes the spans to
.bench_traces/ in the checkout.
"""

import argparse
import importlib.util
import json
import os
import resource
import shutil
import sys
import time

from checks import check, load_references
from tracer import Tracer
from workloads import WORKLOADS, CliWorkload, passes, solve_states

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def entry_points(tracer=None):
    """The entry points a pass calls: the benchmark's own calls into the
    cli and spectra layers, wrapped when tracing."""
    from fermipulse import cli, spectra

    api = {
        "cli_main": cli.main,
        "angular_distribution": spectra.angular_distribution,
        "frequency_distribution": spectra.frequency_distribution,
        "total_photons": spectra.total_photons,
    }
    if tracer is not None:
        api = {
            k: tracer.span(fn, "cli.command" if k == "cli_main" else f"spectra.{k}")
            for k, fn in api.items()
        }
    return api


def _auto_threads():
    from fermipulse import cli

    return cli.RunConfig().resolved_threads()


class Pass:
    """Runs passes of one workload and tallies their outcomes."""

    def __init__(self, wl, fp, inputs, ref, workdir):
        self.wl, self.fp, self.inputs, self.ref = wl, fp, inputs, ref
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.wrong_ops = 0
        self.errors = []
        self.wrong = []
        self.count = 0

    def run(self, api):
        outdir = os.path.join(self.workdir, f"pass{self.count}")
        self.count += 1
        # the CLI solves its own states for every command; library passes
        # get fresh ones too, untimed, so that no pass reuses what a state
        # cached in an earlier pass
        states = None
        if not isinstance(self.wl, CliWorkload):
            states = solve_states(self.fp, self.fp.solve_fugacity, self.wl.state_specs())
        w0, c0 = time.perf_counter(), _cpu()
        outcomes = self.wl.run(self.fp, api, states, self.inputs, outdir)
        wall, cpu = time.perf_counter() - w0, _cpu() - c0
        problems = check(self.wl, outcomes, self.ref, self.inputs)
        shutil.rmtree(outdir, ignore_errors=True)
        for o in outcomes:
            self.attempted += 1
            if o.error:
                self.failed += 1
                self.errors.append(f"{o.key}: {o.error}")
            elif problems.get(o.key):
                self.failed += 1
                self.wrong_ops += 1
                self.wrong.extend(problems[o.key])
        return wall, cpu


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload][args.size]
    tracer = Tracer() if args.trace else None

    # -- set-up: import plus a fugacity solve for every state ---------------
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fermipulse as fp

    solve = fp.solve_fugacity if tracer is None else tracer.span(fp.solve_fugacity, "statmech.solve")
    t_solve = time.perf_counter()
    solve_states(fp, solve, wl.state_specs())
    t1 = time.perf_counter()
    result = {"setup_s": t1 - t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ref = load_references()[wl.name] if args.size == "full" else None
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    runner = Pass(wl, fp, wl.inputs(args.seed), ref, workdir)
    walls, cpus = [], []
    try:
        if tracer is None:
            for _ in range(passes(wl, args.seconds)):
                wall, cpu = runner.run(entry_points())
                walls.append(wall)
                cpus.append(cpu)
        else:
            untraced, _ = runner.run(entry_points())
            api = entry_points(tracer)
            tracer.install()
            try:
                traced, _ = runner.run(api)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(_auto_threads())
            layers["trace.wall_s"] = (traced + (t1 - t_solve), "s")
            layers["trace.untraced_wall_s"] = (untraced, "s")
            layers["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
            result["layers"] = layers
            os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
            tracer.write(os.path.join(ROOT, ".bench_traces", f"{wl.name}-seed{args.seed}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still has its directory there

    result.update(
        walls=walls,
        cpus=cpus,
        passes=runner.count,
        attempted=runner.attempted,
        failed=runner.failed,
        wrong_ops=runner.wrong_ops,
        errors=runner.errors[:20],
        wrong=runner.wrong[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment={
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "threads_auto": _auto_threads(),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
