"""The names the benchmark's tracer patches must keep resolving.

``fermibench/tracer.py`` wraps library functions at the names their
callers look them up by; a refactor that drops one of those names breaks
the benchmark only when it runs.  This loads the tracer module from its
file, without installing it, and resolves every target.
"""

import importlib
import importlib.util
import json
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


def _scipy_modules(package_env, statement):
    """The scipy modules loaded by statement in a fresh interpreter, and
    whether fermipulse.formfunc._fft is numpy.fft there."""
    script = (
        f"import json, sys; {statement}; import numpy\n"
        "ff = sys.modules.get('fermipulse.formfunc')\n"
        "mods = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps([mods, ff is not None and ff._fft is numpy.fft]))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=package_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_bare_scipy_only(package_env):
    # the library computes with numpy alone: importing the CLI loads the
    # same scipy modules as a bare ``import scipy``
    bare, _ = _scipy_modules(package_env, "import scipy")
    cli, fft_is_numpy = _scipy_modules(package_env, "import fermipulse.cli")
    assert cli == bare
    assert fft_is_numpy
