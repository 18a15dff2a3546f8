"""Command-line front end: parameter sweeps, grid evaluation, CSV output.

Commands
--------
formfunc   coherent/incoherent form-function surfaces over a (theta, varpi)
           grid, one CSV per (temperature, statistics, channel)
spectrum   angular and frequency photon distributions per temperature
total      total coherent/incoherent photon numbers over a temperature sweep
fugacity   print solved fugacity, Fermi energy and shell cutoff per state

A JSON config file mirrors the flag names; flags override the file.  Data
goes to CSV files only, progress to standard error.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .formfunc import FormFunctionError, FormFunctionRequest, Method, coherent_form, incoherent_form
from .model import (
    DEFAULT_GAMMA_RATIO,
    DEFAULT_KLA,
    DEFAULT_NATURAL_WIDTH_RATIO,
    TrapModel,
    kinematics,
)
from .pulse import PulseModel
from .quadrature import QuadratureFailure
from .spectra import (
    AngularMode,
    angular_distribution,
    frequency_distribution,
    parallel_map,
    resolve_mode,
    theta_integrals,
    total_photons,
)
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
    method: str = "auto"
    mode: str = "auto"
    tolerance: float = 1e-8
    output: str = "fermipulse"
    threads: object = "auto"
    strict: bool = False

    def validate(self):
        if self.atoms < 1 or self.atoms != int(self.atoms):
            raise ConfigError("atoms", f"must be a positive integer, got {self.atoms!r}")
        if not self.temperatures:
            raise ConfigError("temperatures", "must be non-empty")
        self.temperatures = [Temperature.parse(t) for t in self.temperatures]
        for name in ("kla", "gamma_ratio", "natural_width_ratio", "tolerance", "varpi_window"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ConfigError(name, f"must be positive, got {v!r}")
        if self.statistics not in ("fd", "mb", "both"):
            raise ConfigError("statistics", f"must be fd, mb or both, got {self.statistics!r}")
        nt, nv = self.grid
        if nt < 2 or nv < 2:
            raise ConfigError("grid", f"grid counts must be >= 2, got {self.grid!r}")
        try:
            Method.parse(self.method)
        except ValueError as e:
            raise ConfigError("method", str(e)) from None
        try:
            AngularMode.parse(self.mode)
        except ValueError as e:
            raise ConfigError("mode", str(e)) from None
        if self.threads != "auto":
            if not isinstance(self.threads, int) or self.threads < 1:
                raise ConfigError("threads", f"must be 'auto' or a positive integer, got {self.threads!r}")
        return self

    def resolved_threads(self):
        if self.strict:
            return 1
        if self.threads == "auto":
            return min(8, os.cpu_count() or 1)
        return int(self.threads)

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
        payload = {
            "atoms": self.atoms,
            "temperatures": [t.label() for t in self.temperatures],
            "kla": self.kla,
            "gamma_ratio": self.gamma_ratio,
            "natural_width_ratio": self.natural_width_ratio,
            "statistics": self.statistics,
            "grid": list(self.grid),
            "varpi_window": self.varpi_window,
            "method": self.method,
            "mode": self.mode,
            "tolerance": self.tolerance,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


_CONFIG_FIELDS = {
    "atoms",
    "temperatures",
    "kla",
    "gamma_ratio",
    "natural_width_ratio",
    "statistics",
    "grid",
    "varpi_window",
    "method",
    "mode",
    "tolerance",
    "output",
    "threads",
    "strict",
}


def _parse_grid(value):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return int(value[0]), int(value[1])
    s = str(value).lower().replace("x", " ").split()
    if len(s) != 2:
        raise ConfigError("grid", f"expected THETAxVARPI, got {value!r}")
    return int(s[0]), int(s[1])


def load_config(path, overrides):
    cfg = RunConfig()
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
        for key, value in raw.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigError(key, "unknown configuration field")
            if key == "grid":
                value = _parse_grid(value)
            if key == "temperatures":
                if not isinstance(value, list):
                    raise ConfigError("temperatures", "must be a list")
                value = [Temperature.parse(t) for t in value]
            cfg = replace(cfg, **{key: value})
    for key, value in overrides.items():
        if value is None or value is False:
            continue
        cfg = replace(cfg, **{key: value})
    return cfg.validate()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x):
    x = float(x)
    if not math.isfinite(x):
        raise FormFunctionError(f"non-finite value {x!r} in output")
    return repr(x)


class _Progress:
    def __init__(self, total, label):
        self.total = total
        self.label = label
        self.done = 0
        self.t0 = time.monotonic()
        self.last = 0.0

    def step(self, k=1):
        self.done += k
        now = time.monotonic()
        if now - self.last >= 0.5 or self.done == self.total:
            self.last = now
            rate = self.done / max(now - self.t0, 1e-9)
            eta = (self.total - self.done) / max(rate, 1e-9)
            print(
                f"{self.label}: {self.done}/{self.total} points, {rate:.1f}/s, ETA {eta:.0f}s",
                file=sys.stderr,
                flush=True,
            )


def _open_out(cfg, suffix):
    path = f"{cfg.output}_{suffix}.csv"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    fh = open(path, "w", newline="\n")
    fh.write(f"# fermipulse v{__version__} config={cfg.config_hash()}\n")
    return path, fh


def _solve_states(cfg):
    """(temperature, statistics, state) triples in config order."""
    out = []
    for temp in cfg.temperatures:
        tau = temp.tau(cfg.atoms)
        for stat in cfg.statistics_list():
            out.append((temp, stat, solve_fugacity(cfg.atoms, tau, stat)))
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_formfunc(cfg):
    trap = cfg.trap()
    method = Method.parse(cfg.method)
    nt, nv = cfg.grid
    thetas = np.linspace(0.0, math.pi, nt)
    varpis = np.linspace(-cfg.varpi_window, cfg.varpi_window, nv)
    written = []
    for temp, stat, state in _solve_states(cfg):
        total = state.total_atoms
        points = [(float(t), float(v)) for t in thetas for v in varpis]
        progress = _Progress(len(points), f"formfunc {temp.label()} {stat.value}")

        def at(tv):
            theta, varpi = tv
            try:
                pt = kinematics(trap, theta, varpi)
                req = FormFunctionRequest(state, pt, method, cfg.tolerance)
                c = coherent_form(req) / total**2
                i = incoherent_form(req) / total
            except FormFunctionError as e:
                raise type(e)(
                    f"method {method.value} at theta={theta:.6g}, varpi={varpi:.6g}: {e}"
                ) from e
            progress.step()
            return pt.x_total, c, i

        values = parallel_map(at, points, cfg.resolved_threads())
        for channel, col in (("coh", 1), ("in", 2)):
            path, fh = _open_out(cfg, f"formfunc_{channel}_{stat.value}_{temp.label()}")
            with fh:
                fh.write("theta_deg,varpi,x_total,value\n")
                for (theta, varpi), row in zip(points, values):
                    fh.write(
                        f"{_fmt(math.degrees(theta))},{_fmt(varpi)},{_fmt(row[0])},{_fmt(row[col])}\n"
                    )
            written.append(path)
    return written


def cmd_spectrum(cfg):
    trap = cfg.trap()
    method = Method.parse(cfg.method)
    mode = resolve_mode(cfg.mode, trap)
    nt, nv = cfg.grid
    thetas = np.linspace(0.0, math.pi, nt)
    varpis = np.linspace(-cfg.varpi_window, cfg.varpi_window, nv)
    written = []
    for temp, stat, state in _solve_states(cfg):
        progress = _Progress(nt + nv, f"spectrum {temp.label()} {stat.value}")

        def at_theta(theta):
            out = angular_distribution(state, trap, float(theta), mode, method, cfg.tolerance)
            progress.step()
            return out

        ang = parallel_map(at_theta, list(thetas), cfg.resolved_threads())
        path, fh = _open_out(cfg, f"angular_{stat.value}_{temp.label()}")
        with fh:
            fh.write("theta_deg,dN_coh,dN_in\n")
            for theta, (dc, di) in zip(thetas, ang):
                fh.write(f"{_fmt(math.degrees(theta))},{_fmt(dc)},{_fmt(di)}\n")
        written.append(path)

        frozen = None
        if mode is AngularMode.FROZEN:
            frozen = theta_integrals(state, trap, method, cfg.tolerance)

        def at_varpi(varpi):
            out = frequency_distribution(
                state, trap, float(varpi), method, cfg.tolerance, frozen_integrals=frozen
            )
            progress.step()
            return out

        freq = parallel_map(at_varpi, list(varpis), cfg.resolved_threads())
        path, fh = _open_out(cfg, f"frequency_{stat.value}_{temp.label()}")
        with fh:
            fh.write("varpi,dN_coh,dN_in\n")
            for varpi, (dc, di) in zip(varpis, freq):
                fh.write(f"{_fmt(varpi)},{_fmt(dc)},{_fmt(di)}\n")
        written.append(path)
    return written


def cmd_total(cfg):
    trap = cfg.trap()
    method = Method.parse(cfg.method)
    mode = cfg.mode
    pulse = PulseModel.two_pi()
    path, fh = _open_out(cfg, "total")
    with fh:
        fh.write("kT_over_EF,N_coh,N_in,statistics\n")
        ef = fermi_energy(cfg.atoms)
        for temp in cfg.temperatures:
            tau = temp.tau(cfg.atoms)
            for stat in cfg.statistics_list():
                state = solve_fugacity(cfg.atoms, tau, stat)
                n_coh, n_in = total_photons(
                    state, trap, pulse, mode, method, cfg.tolerance
                )
                fh.write(f"{_fmt(tau / ef)},{_fmt(n_coh)},{_fmt(n_in)},{stat.value}\n")
                print(f"total: {temp.label()} {stat.value} done", file=sys.stderr, flush=True)
    return [path]


def cmd_fugacity(cfg):
    for temp, stat, state in _solve_states(cfg):
        ef = fermi_energy(cfg.atoms)
        print(
            f"statistics={stat.value} kT={temp.label()} tau={state.tau!r} "
            f"log_z={state.log_fugacity!r} z={state.fugacity!r} "
            f"n_max={state.n_max} EF={ef!r} atoms={cfg.atoms}"
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
        ("fugacity", "print fugacity, Fermi energy and shell cutoff"),
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
        p.add_argument("--threads")
        p.add_argument("--strict", action="store_true", help="sequential evaluation for byte-identical output")
    return parser


def _overrides_from_args(args):
    overrides = {}
    for key in _CONFIG_FIELDS:
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is None or (key == "strict" and value is False):
            continue
        if key == "temperatures":
            flat = []
            for chunk in value:
                flat.extend(t for t in str(chunk).split(",") if t.strip())
            value = flat
        if key == "grid":
            value = _parse_grid(value)
        if key == "threads" and value != "auto":
            try:
                value = int(value)
            except ValueError:
                raise ConfigError("threads", f"must be 'auto' or an integer, got {value!r}")
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
        cfg = load_config(args.config, _overrides_from_args(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        _COMMANDS[args.command](cfg)
    except (FormFunctionError, QuadratureFailure, ConvergenceFailure) as e:
        print(f"numerical failure [{type(e).__name__}]: {e}", file=sys.stderr)
        return 3
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
