"""The names the benchmark's tracer patches must keep resolving.

``fermibench/tracer.py`` wraps library functions at the names their
callers look them up by; a refactor that drops one of those names breaks
the benchmark only when it runs.  This loads the tracer module from its
file, without installing it, and resolves every target.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

from fermipulse.cli import RunConfig

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fermibench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("fermibench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for modname, attr, name in _tracer().TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr} ({name})"


def test_formfunc_fft_and_resolved_threads_resolve():
    formfunc = importlib.import_module("fermipulse.formfunc")
    assert callable(formfunc._fft.rfft2) and callable(formfunc._fft.irfft2)
    assert RunConfig().resolved_threads() >= 1


def test_import_loads_scipy(package_env):
    # fermibench/worker.py reads sys.modules["scipy"].__version__ after every
    # run; it needs ``import fermipulse`` to have imported scipy
    script = "import sys, fermipulse; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=package_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
