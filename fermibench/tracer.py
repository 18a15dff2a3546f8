"""In-memory span tracer wrapped around the public calls of each layer.

Spans are recorded only from this directory: the tracer replaces a
function at the name its caller looks it up by (``spectra.coherent_form``
rather than ``formfunc.coherent_form``) with a wrapper that records
(name, start, end, parent).  Nothing inside the program changes.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  Spans opened on a worker thread with an empty
stack take the main thread's innermost open span as parent, which is the
``cli.pool`` span while the CLI thread pool runs.
"""

import gzip
import importlib
import itertools
import threading
import time
import types
from array import array

# every span name; a span stores the index of its name
SPAN_NAMES = (
    "cli.command",
    "cli.pool",
    "spectra.angular_distribution",
    "spectra.frequency_distribution",
    "spectra.theta_integrals",
    "spectra.total_photons",
    "quadrature.adaptive_simpson",
    "formfunc.coh",
    "formfunc.inc",
    "kernels.fc_matrix",
    "kernels.laguerre_sum",
    "kernels.fft",
    "statmech.solve",
)
_NAME_INDEX = {n: i for i, n in enumerate(SPAN_NAMES)}

# (module, attribute, span name): each public function at the name its
# caller looks it up by.  install() raises if one is missing, so a change
# that moves a lookup must update this table rather than let its metrics
# silently read zero.
TARGETS = (
    ("fermipulse.cli", "solve_fugacity", "statmech.solve"),
    ("fermipulse.cli", "parallel_map", "cli.pool"),
    ("fermipulse.cli", "coherent_form", "formfunc.coh"),
    ("fermipulse.cli", "incoherent_form", "formfunc.inc"),
    ("fermipulse.cli", "total_photons", "spectra.total_photons"),
    ("fermipulse.spectra", "coherent_form", "formfunc.coh"),
    ("fermipulse.spectra", "incoherent_form", "formfunc.inc"),
    ("fermipulse.spectra", "theta_integrals", "spectra.theta_integrals"),
    ("fermipulse.spectra", "adaptive_simpson", "quadrature.adaptive_simpson"),
    ("fermipulse._kernels", "fc_matrix", "kernels.fc_matrix"),
    ("fermipulse._kernels", "laguerre_weighted_sum", "kernels.laguerre_sum"),
)


class Tracer:
    """Collects spans from any thread; install() patches, uninstall() restores."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        # per-span extras, only for the few spans that carry them
        self.evals = {}
        self.integrand_s = {}
        self.bytes = {}
        self.failed = set()
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, t0):
        t1 = time.perf_counter()
        stack.pop()
        with self._lock:
            self.sid.append(sid)
            self.parent.append(parent)
            self.name.append(_NAME_INDEX[name])
            self.start.append(t0)
            self.end.append(t1)

    def span(self, fn, name, nbytes=None):
        """Wrap fn so each call records one span; nbytes(args, kwargs, result)
        gives the computed bytes of a kernel call."""

        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(stack, sid, parent, name, t0)
            if nbytes is not None:
                self.bytes[sid] = nbytes(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _quadrature(self, fn):
        from fermipulse.quadrature import QuadratureFailure

        def wrapper(f, *args, **kwargs):
            # evaluations and the time spent inside the integrand, which is
            # spectra code (kinematics and line shapes) around the form
            # functions; a span per evaluation would cost too much
            count = [0, 0.0]

            def integrand(x):
                t = time.perf_counter()
                try:
                    return f(x)
                finally:
                    count[0] += 1
                    count[1] += time.perf_counter() - t

            stack, sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                return fn(integrand, *args, **kwargs)
            except QuadratureFailure as e:
                # an inner failure propagates through the outer quadrature;
                # count it once, where it was raised
                if not getattr(e, "_traced", False):
                    e._traced = True
                    self.failed.add(sid)
                raise
            finally:
                self._close(stack, sid, parent, "quadrature.adaptive_simpson", t0)
                self.evals[sid] = count[0]
                self.integrand_s[sid] = count[1]

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, module, attr, new):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        for modname, attr, name in TARGETS:
            module = importlib.import_module(modname)
            if not hasattr(module, attr):
                raise AttributeError(f"trace target {modname}.{attr} is missing")
            fn = getattr(module, attr)
            if name == "quadrature.adaptive_simpson":
                new = self._quadrature(fn)
            elif name == "kernels.fc_matrix":
                new = self.span(fn, name, nbytes=lambda a, k, out: out.nbytes)
            else:
                new = self.span(fn, name)
            self._patch(module, attr, new)
        formfunc = importlib.import_module("fermipulse.formfunc")
        if not hasattr(formfunc, "_fft"):
            raise AttributeError("trace target fermipulse.formfunc._fft is missing")
        self._patch(formfunc, "_fft", self._fft_proxy(formfunc._fft))

    def _fft_proxy(self, fft):
        """Namespace standing in for scipy.fft inside formfunc only."""
        proxy = types.SimpleNamespace(**{k: getattr(fft, k) for k in dir(fft) if not k.startswith("__")})

        def rfft2_bytes(args, kwargs, out):
            # the real input is zero-padded to the transform shape s
            a = args[0]
            shape = kwargs.get("s") or a.shape
            return a.itemsize * shape[0] * shape[1] + out.nbytes

        proxy.rfft2 = self.span(fft.rfft2, "kernels.fft", nbytes=rfft2_bytes)
        proxy.irfft2 = self.span(fft.irfft2, "kernels.fft", nbytes=lambda a, k, out: a[0].nbytes + out.nbytes)
        return proxy

    def uninstall(self):
        while self._patched:
            module, attr, old = self._patched.pop()
            setattr(module, attr, old)

    # -- reporting ----------------------------------------------------------

    def self_times(self):
        """Self time of every recorded span, keyed by span id."""
        children = {}
        for sid, parent, t0, t1 in zip(self.sid, self.parent, self.start, self.end):
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        out = {}
        for sid, t0, t1 in zip(self.sid, self.start, self.end):
            covered = 0.0
            kids = children.get(sid)
            if kids:
                kids.sort()
                lo = hi = None
                for a, b in kids:
                    a, b = max(a, t0), min(b, t1)
                    if hi is None or a > hi:
                        if hi is not None:
                            covered += hi - lo
                        lo, hi = a, b
                    elif b > hi:
                        hi = b
                if hi is not None and hi > lo:
                    covered += hi - lo
            out[sid] = (t1 - t0) - covered
        return out

    def layer_metrics(self, threads):
        """Per-layer counts and times from the recorded spans."""
        self_s = self.self_times()
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        nbytes = dict.fromkeys(SPAN_NAMES, 0)
        pool_ids = set()
        pool_wall = 0.0
        for sid, ni, t0, t1 in zip(self.sid, self.name, self.start, self.end):
            name = SPAN_NAMES[ni]
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += self_s[sid]
            nbytes[name] += self.bytes.get(sid, 0)
            if name == "cli.pool":
                pool_ids.add(sid)
                pool_wall += t1 - t0
        form = ("formfunc.coh", "formfunc.inc")
        pool_busy = sum(
            t1 - t0
            for ni, parent, t0, t1 in zip(self.name, self.parent, self.start, self.end)
            if parent in pool_ids and SPAN_NAMES[ni] in form
        )
        spectra = [n for n in SPAN_NAMES if n.startswith("spectra.")]
        q = "quadrature.adaptive_simpson"
        q_evals = sum(self.evals.values())
        # integrand time not covered by child spans is spectra self time
        moved = sum(self.integrand_s.values()) - sum(
            t1 - t0 for ni, parent, t0, t1 in zip(self.name, self.parent, self.start, self.end)
            if parent in self.integrand_s
        )
        own[q] -= moved
        return {
            "kernels.fft.calls": (calls["kernels.fft"], "count"),
            "kernels.fft.s": (total["kernels.fft"], "s"),
            "kernels.fft.bytes_computed": (nbytes["kernels.fft"], "B"),
            "kernels.fc_matrix.calls": (calls["kernels.fc_matrix"], "count"),
            "kernels.fc_matrix.s": (total["kernels.fc_matrix"], "s"),
            "kernels.fc_matrix.bytes_computed": (nbytes["kernels.fc_matrix"], "B"),
            "kernels.laguerre_sum.calls": (calls["kernels.laguerre_sum"], "count"),
            "kernels.laguerre_sum.s": (total["kernels.laguerre_sum"], "s"),
            "formfunc.coh.evals": (calls["formfunc.coh"], "count"),
            "formfunc.inc.evals": (calls["formfunc.inc"], "count"),
            "formfunc.coh.self_s": (own["formfunc.coh"], "s"),
            "formfunc.inc.self_s": (own["formfunc.inc"], "s"),
            "formfunc.busy_s": (total["formfunc.coh"] + total["formfunc.inc"], "s"),
            "quadrature.calls": (calls[q], "count"),
            "quadrature.evals": (q_evals, "count"),
            "quadrature.evals_per_call": (q_evals / calls[q] if calls[q] else 0.0, "count"),
            "quadrature.self_s": (own[q], "s"),
            "quadrature.failures": (len(self.failed), "count"),
            "spectra.calls": (sum(calls[n] for n in spectra), "count"),
            "spectra.self_s": (sum(own[n] for n in spectra) + moved, "s"),
            "statmech.solve.calls": (calls["statmech.solve"], "count"),
            "statmech.solve.s": (total["statmech.solve"], "s"),
            "cli.command.s": (total["cli.command"], "s"),
            "cli.self_s": (own["cli.command"] + own["cli.pool"], "s"),
            "cli.pool.busy_frac": (
                pool_busy / (pool_wall * threads) if pool_wall > 0.0 else 0.0,
                "ratio",
            ),
            "trace.spans": (len(self.sid), "count"),
            "trace.self_sum_s": (sum(self_s.values()), "s"),
        }

    def write(self, path):
        """Write every span as a tab-separated line: id, parent, name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, ni, t0, t1 in zip(self.sid, self.parent, self.name, self.start, self.end):
                fh.write(f"{sid}\t{parent}\t{SPAN_NAMES[ni]}\t{t0!r}\t{t1!r}\n")
