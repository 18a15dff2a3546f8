"""Command-line front end: parameter sweeps, grid evaluation, CSV output.

Commands
--------
formfunc   coherent/incoherent form-function surfaces over a (theta, varpi)
           grid, one CSV per (temperature, statistics, channel)
spectrum   angular and frequency photon distributions per temperature
total      total coherent/incoherent photon numbers over a temperature sweep
fugacity   print solved fugacity, Fermi energy, shell cutoff and the
           form-function method of each channel per state

A JSON config file mirrors the flag names; flags override the file.  Data
goes to CSV files only, progress to standard error.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

import argparse
import hashlib
import itertools
import json
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .formfunc import (
    FormFunctionError,
    Method,
    coherent_form,
    describe_methods,
    incoherent_form,
)
from .model import (
    DEFAULT_GAMMA_RATIO,
    DEFAULT_KLA,
    DEFAULT_NATURAL_WIDTH_RATIO,
    TrapModel,
    kinematics,
)
from .pulse import PulseModel
from .quadrature import QuadratureFailure
from .spectra import AngularMode, angular_distribution, frequency_distribution, total_photons
from .statmech import ConvergenceFailure, Statistics, fermi_energy, solve_fugacity


class ConfigError(Exception):
    def __init__(self, fieldname, message):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


@dataclass(frozen=True)
class Temperature:
    value: float
    unit: str  # "EF" or "trap"

    @classmethod
    def parse(cls, text):
        if isinstance(text, Temperature):
            return text
        if isinstance(text, bool):
            raise ConfigError("temperatures", f"expected a number or a string like 1.36EF, got {text!r}")
        if isinstance(text, (int, float)):
            return cls(float(text), "EF")
        s = str(text).strip()
        lowered = s.lower()
        for suffix, unit in (("ef", "EF"), ("trap", "trap")):
            if lowered.endswith(suffix):
                body = s[: -len(suffix)].strip()
                break
        else:
            body, unit = s, "EF"
        try:
            v = float(body)
        except ValueError:
            raise ConfigError("temperatures", f"cannot parse temperature {text!r}") from None
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError("temperatures", f"temperature must be positive, got {text!r}")
        return cls(v, unit)

    def tau(self, n_atoms):
        if self.unit == "trap":
            return self.value
        return self.value * fermi_energy(n_atoms)

    def label(self):
        return f"{self.value:g}{self.unit}"


@dataclass
class RunConfig:
    atoms: int = 1_000_000
    temperatures: list = field(default_factory=lambda: [Temperature(1.36, "EF")])
    kla: float = DEFAULT_KLA
    gamma_ratio: float = DEFAULT_GAMMA_RATIO
    natural_width_ratio: float = DEFAULT_NATURAL_WIDTH_RATIO
    statistics: str = "fd"
    grid: tuple = (91, 121)
    varpi_window: float = 6.0
    method: object = "auto"  # a Method once validated
    mode: object = "auto"  # an AngularMode once validated
    tolerance: float = 1e-8
    output: str = "fermipulse"
    threads: object = "auto"
    strict: bool = False

    def validate(self):
        atoms = self.atoms
        integral = isinstance(atoms, numbers.Integral) or (isinstance(atoms, float) and atoms.is_integer())
        if isinstance(atoms, bool) or not integral or atoms < 1:
            raise ConfigError("atoms", f"must be a positive integer, got {atoms!r}")
        # atoms is stored as int and the ratios as float, so that 1000 and
        # 1000.0 (or 3 and 3.0) hash and print alike
        self.atoms = int(atoms)
        # a JSON string would otherwise parse one character at a time
        if not isinstance(self.temperatures, (list, tuple)):
            raise ConfigError("temperatures", f"must be a list, got {self.temperatures!r}")
        if not self.temperatures:
            raise ConfigError("temperatures", "must be non-empty")
        self.temperatures = [Temperature.parse(t) for t in self.temperatures]
        if fermi_energy(self.atoms) == 0.0 and any(t.unit == "EF" for t in self.temperatures):
            raise ConfigError("temperatures", "E_F is 0 for a single atom; give temperatures in trap units")
        for name in ("kla", "gamma_ratio", "natural_width_ratio", "tolerance", "varpi_window"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ConfigError(name, f"must be positive, got {v!r}")
            setattr(self, name, float(v))
        # TrapModel's own checks; each message starts with its field's name
        try:
            self.trap()
        except ValueError as e:
            raise ConfigError(*str(e).split(" ", 1)) from None
        # the scattered wavenumber kla (1 + gamma_ratio varpi) must stay positive
        if self.gamma_ratio * self.varpi_window >= 1.0:
            raise ConfigError("varpi_window", f"must be < 1/gamma_ratio, got {self.varpi_window!r}")
        if self.statistics not in ("fd", "mb", "both"):
            raise ConfigError("statistics", f"must be fd, mb or both, got {self.statistics!r}")
        self.grid = _parse_grid(self.grid)
        nt, nv = self.grid
        if nt < 2 or nv < 2:
            raise ConfigError("grid", f"grid counts must be >= 2, got {self.grid!r}")
        try:
            self.method = Method.parse(self.method)
        except ValueError as e:
            raise ConfigError("method", str(e)) from None
        if self.method is Method.CLOSED_FORM_MB and self.statistics != "mb":
            raise ConfigError("method", f"closed-form-mb requires statistics mb, got {self.statistics!r}")
        try:
            self.mode = AngularMode.parse(self.mode)
        except ValueError as e:
            raise ConfigError("mode", str(e)) from None
        if self.threads != "auto":
            try:
                threads = _parse_count(self.threads) if isinstance(self.threads, str) else self.threads
            except ValueError:
                threads = None
            if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
                raise ConfigError("threads", f"must be 'auto' or a positive integer, got {self.threads!r}")
            self.threads = threads
        if not isinstance(self.output, str) or not self.output:
            raise ConfigError("output", f"must be a non-empty string, got {self.output!r}")
        if not isinstance(self.strict, bool):
            raise ConfigError("strict", f"must be true or false, got {self.strict!r}")
        return self

    def resolved_threads(self):
        """Always 1: every command evaluates in the calling thread.

        Kept because ``fermibench/worker.py`` calls it on every run.
        """
        return 1

    def trap(self):
        return TrapModel(
            kla=self.kla,
            gamma_ratio=self.gamma_ratio,
            natural_width_ratio=self.natural_width_ratio,
        )

    def statistics_list(self):
        if self.statistics == "both":
            return [Statistics.FERMI_DIRAC, Statistics.MAXWELL_BOLTZMANN]
        return [Statistics.parse(self.statistics)]

    def config_hash(self):
        """Hash of the fields that shape the data; output, threads and strict do not."""
        skip = ("output", "threads", "strict")
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}
        payload["temperatures"] = [t.label() for t in self.temperatures]
        payload["grid"] = list(self.grid)
        payload["method"], payload["mode"] = self.method.value, self.mode.value
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _parse_count(text):
    # ASCII digits between whitespace: int() also takes signs, '_' and other scripts' digits
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a count: {text!r}")
    return int(digits)


def _parse_grid(value):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        parts = value
    else:
        # exactly one x; an empty side fails _parse_count below
        parts = str(value).lower().split("x")
        if len(parts) != 2:
            raise ConfigError("grid", f"expected THETAxVARPI, got {value!r}")
    try:
        # operator.index rejects the floats that int() would truncate
        return tuple(_parse_count(p) if isinstance(p, str) else operator.index(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError("grid", f"expected integer counts THETAxVARPI, got {value!r}") from None


def load_config(path, overrides):
    """The validated config of the JSON file at path (None for none) with
    overrides, a dict of field values, on top: a given field replaces the
    file's value whole, and ``RunConfig.validate`` parses every field once."""
    merged = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError("config", f"cannot read {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON in {path}: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config", "top-level JSON value must be an object")
        for key in raw:
            if key not in _CONFIG_FIELDS:
                raise ConfigError(key, "unknown configuration field")
        merged.update(raw)
    merged.update(overrides)
    return RunConfig(**merged).validate()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_csv(cfg, suffix, header, chunks):
    """Write <output>_<suffix>.csv: the config line, the header, then chunks.

    Each chunk is the text of whole CSV lines, from _csv_lines or
    _grid_lines; one chunk may hold a whole file.  chunks may be lazy, so
    the lines already made stay on disk when a later one fails.  A path
    that cannot be written raises ConfigError on the output field.
    """
    path = f"{cfg.output}_{suffix}.csv"
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# fermipulse v{__version__} config={cfg.config_hash()}\n{header}\n")
            for chunk in chunks:
                fh.write(chunk)
    except OSError as e:
        raise ConfigError("output", f"cannot write {path}: {e}") from None
    return path


def _csv_lines(rows):
    """Yield the CSV line of each row, one row at a time.

    A row is a sequence of floats and strings; str() writes a float as its
    repr and a string verbatim.  A row with a non-finite number raises
    FormFunctionError once the rows before it are yielded.
    """
    for row in rows:
        line = ",".join(map(str, row))
        # a float prints as inf, -inf or nan exactly when it is not finite
        if "inf" in line or "nan" in line:
            raise FormFunctionError(f"non-finite value in output row {line}")
        yield line + "\n"


def _grid_lines(prefixes, values):
    """Yield the CSV lines of a formfunc grid as one chunk.

    Row k is prefixes[k] followed by repr(values.flat[k]), the same text
    _csv_lines writes for the row.  A row whose value is not finite
    raises FormFunctionError once the rows before it are yielded.
    """
    flat = values.ravel()
    bad = np.flatnonzero(~np.isfinite(flat))
    stop = int(bad[0]) if bad.size else flat.size
    if stop:
        yield "\n".join(map(operator.add, prefixes[:stop], map(str, flat[:stop].tolist()))) + "\n"
    if bad.size:
        raise FormFunctionError(f"non-finite value in output row {prefixes[stop]}{float(flat[stop])}")


def _solve_states(cfg):
    """Yield (temperature, statistics, state) in config order, solving each on demand."""
    for temp in cfg.temperatures:
        tau = temp.tau(cfg.atoms)
        for stat in cfg.statistics_list():
            yield temp, stat, solve_fugacity(cfg.atoms, tau, stat)


def parallel_map(fn, items):
    """Ordered map in the calling thread.

    The name stays only because ``fermibench/tracer.py`` wraps
    ``cli.parallel_map`` as its ``cli.pool`` span; ``formfunc`` maps its
    two form functions through it, so that span still covers them.
    """
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_formfunc(cfg):
    """Write the form-function surfaces, one CSV per temperature, statistics and channel.

    A row holds theta_deg, varpi, x_total and the form function, the
    coherent one over N^2 and the incoherent one over N.  The first three
    columns are the same in every file, so they are formatted once per
    command; each file then formats only its value column and is written
    as one chunk.
    """
    trap = cfg.trap()
    nt, nv = cfg.grid
    thetas = np.linspace(0.0, math.pi, nt)
    varpis = np.linspace(-cfg.varpi_window, cfg.varpi_window, nv)
    x = kinematics(trap, thetas[:, None], varpis[None, :])
    # the first three columns of every row, in grid order; a float formats
    # as its repr, as str() writes it
    degrees = np.degrees(thetas)
    cells = itertools.product(map(str, degrees.tolist()), map(str, varpis.tolist()))
    prefixes = [f"{t},{v},{xc}," for (t, v), xc in zip(cells, x.ravel().tolist())]
    written = []
    for temp, stat, state in _solve_states(cfg):
        total = state.total_atoms
        try:
            f2_coh, f2_in = parallel_map(
                lambda form: form(state, x, cfg.method, cfg.tolerance), (coherent_form, incoherent_form)
            )
        except FormFunctionError as e:
            if e.index is None:
                # a failure of the whole state, not of one point
                where = f"{temp.label()} {stat.value}"
            else:
                i, j = np.unravel_index(e.index, x.shape)
                where = f"theta={thetas[i]:.6g}, varpi={varpis[j]:.6g}"
            raise type(e)(f"method {cfg.method.value} at {where}: {e}") from e
        for channel, values in (("coh", f2_coh / total**2), ("in", f2_in / total)):
            suffix = f"formfunc_{channel}_{stat.value}_{temp.label()}"
            lines = _grid_lines(prefixes, values)
            written.append(_write_csv(cfg, suffix, "theta_deg,varpi,x_total,value", lines))
        print(f"formfunc: {temp.label()} {stat.value} done", file=sys.stderr, flush=True)
    return written


def cmd_spectrum(cfg):
    trap = cfg.trap()
    nt, nv = cfg.grid
    thetas = np.linspace(0.0, math.pi, nt)
    varpis = np.linspace(-cfg.varpi_window, cfg.varpi_window, nv)
    written = []
    for temp, stat, state in _solve_states(cfg):
        d_coh, d_in = angular_distribution(state, trap, thetas, cfg.mode, cfg.method, cfg.tolerance)
        lines = _csv_lines(zip(np.degrees(thetas).tolist(), d_coh.tolist(), d_in.tolist()))
        written.append(
            _write_csv(cfg, f"angular_{stat.value}_{temp.label()}", "theta_deg,dN_coh,dN_in", lines)
        )
        d_coh, d_in = frequency_distribution(state, trap, varpis, cfg.method, cfg.tolerance, cfg.mode)
        lines = _csv_lines(zip(varpis.tolist(), d_coh.tolist(), d_in.tolist()))
        written.append(_write_csv(cfg, f"frequency_{stat.value}_{temp.label()}", "varpi,dN_coh,dN_in", lines))
        print(f"spectrum: {temp.label()} {stat.value} done", file=sys.stderr, flush=True)
    return written


def cmd_total(cfg):
    trap = cfg.trap()
    pulse = PulseModel.two_pi()
    ef = fermi_energy(cfg.atoms)
    if ef == 0.0:
        raise ConfigError("atoms", "total reports kT/E_F, and E_F is 0 for a single atom")

    def rows():
        for temp, stat, state in _solve_states(cfg):
            n_coh, n_in = total_photons(state, trap, pulse, cfg.mode, cfg.method, cfg.tolerance)
            print(f"total: {temp.label()} {stat.value} done", file=sys.stderr, flush=True)
            yield state.tau / ef, n_coh, n_in, stat.value

    return [_write_csv(cfg, "total", "kT_over_EF,N_coh,N_in,statistics", _csv_lines(rows()))]


def cmd_fugacity(cfg):
    for temp, stat, state in _solve_states(cfg):
        ef = fermi_energy(cfg.atoms)
        methods = describe_methods(state, cfg.method, cfg.tolerance)
        if "fit_bound" in methods:
            methods["fit_bound"] = f"{methods['fit_bound']:.3g}"
        print(
            f"statistics={stat.value} kT={temp.label()} tau={state.tau!r} "
            f"log_z={state.log_fugacity!r} z={state.fugacity!r} "
            f"n_max={state.n_max} EF={ef!r} atoms={cfg.atoms} "
            + " ".join(f"{k}={v}" for k, v in methods.items())
        )
    return []


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fermipulse",
        description="Spectra of short 2*pi laser pulses scattered from a trapped ideal Fermi gas",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("formfunc", "form-function surfaces over a (theta, varpi) grid"),
        ("spectrum", "angular and frequency photon distributions"),
        ("total", "total photon numbers over a temperature sweep"),
        ("fugacity", "print fugacity, Fermi energy, shell cutoff and methods"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--atoms", type=int)
        p.add_argument(
            "--temperature",
            action="append",
            dest="temperatures",
            metavar="T",
            help="temperature like 1.36EF or 250trap; repeatable or comma-separated",
        )
        p.add_argument("--kla", type=float)
        p.add_argument("--gamma-ratio", type=float, dest="gamma_ratio")
        p.add_argument("--natural-width-ratio", type=float, dest="natural_width_ratio")
        p.add_argument("--statistics", choices=["fd", "mb", "both"])
        p.add_argument("--grid", help="grid as THETAxVARPI, e.g. 181x241")
        p.add_argument("--varpi-window", type=float, dest="varpi_window")
        p.add_argument("--method", help="auto, power-series, laguerre, closed-form-mb, quad-sum, convolution")
        p.add_argument("--mode", choices=["auto", "full", "frozen"])
        p.add_argument("--tolerance", type=float)
        p.add_argument("--output")
        p.add_argument("--threads", help="accepted for compatibility; evaluation is always sequential")
        p.add_argument(
            "--strict",
            action="store_true",
            help="accepted for compatibility; output is always byte-identical across runs",
        )
    return parser


def _overrides_from_args(args):
    """The config fields given as flags, with the --temperature values
    split at commas into one list."""
    overrides = {}
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        # None: the flag was not given; False: --strict was not given
        if value is None or value is False:
            continue
        if key == "temperatures":
            value = [t for chunk in value for t in chunk.split(",") if t.strip()]
        overrides[key] = value
    return overrides


_COMMANDS = {
    "formfunc": cmd_formfunc,
    "spectrum": cmd_spectrum,
    "total": cmd_total,
    "fugacity": cmd_fugacity,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](load_config(args.config, _overrides_from_args(args)))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FormFunctionError, QuadratureFailure, ConvergenceFailure) as e:
        print(f"numerical failure [{type(e).__name__}]: {e}", file=sys.stderr)
        return 3
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
