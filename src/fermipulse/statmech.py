"""Ideal-gas statistical mechanics in an isotropic 3D harmonic trap.

Solves the fugacity of N fermions (or Maxwell-Boltzmann atoms) at reduced
temperature tau = k_B T / (hbar omega_t) from the number constraint
sum_n g(n) P(n) = N, and precomputes the shell-occupation table used by
every downstream sum.  The fugacity is carried in log form so that the
deeply degenerate regime (log z ~ E_F / tau, thousands) never overflows,
and the Fermi-Dirac occupations are the numpy logistic in its two
stable branches (``_occupations``).  The Fermi-Dirac root is found by
Newton steps in log z inside a bracket closed before the first table
pass, and the last pass is the state's table.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class ConvergenceFailure(Exception):
    """The fugacity solve or its shell cutoff did not converge."""


class Statistics(enum.Enum):
    FERMI_DIRAC = "fd"
    MAXWELL_BOLTZMANN = "mb"

    @classmethod
    def parse(cls, text):
        key = str(text).strip().lower().replace("_", "-")
        aliases = {
            "fd": cls.FERMI_DIRAC,
            "fermi-dirac": cls.FERMI_DIRAC,
            "fermidirac": cls.FERMI_DIRAC,
            "mb": cls.MAXWELL_BOLTZMANN,
            "maxwell-boltzmann": cls.MAXWELL_BOLTZMANN,
            "maxwellboltzmann": cls.MAXWELL_BOLTZMANN,
        }
        if key not in aliases:
            raise ValueError(f"unknown statistics {text!r}")
        return aliases[key]


def _checked_int(name, v, least=0):
    """v as an int once it is an integer >= least (0 or 1); anything else,
    inf and NaN included, raises ValueError naming it."""
    if least <= v < math.inf and v == int(v):
        return int(v)
    raise ValueError(f"{name} must be a {'positive' if least else 'non-negative'} integer, got {v!r}")


def degeneracy(n):
    """Number of oscillator states on shell n: (n+1)(n+2)/2."""
    n = _checked_int("shell index", n)
    return (n + 1) * (n + 2) // 2


def _degeneracy_array(n_max):
    n = np.arange(n_max + 1, dtype=np.float64)
    return (n + 1.0) * (n + 2.0) / 2.0


def _shell_sum(v):
    """sum_n g(n) v[n] over shells n = 0..len(v)-1, as a float: every shell
    sum of a state runs here, so its summation order is set in one place.
    A numpy reduction, not a BLAS dot product, whose order would depend on
    the BLAS thread count."""
    return float(np.add.reduce(_degeneracy_array(v.shape[0] - 1) * v))


def fermi_energy(n_atoms):
    """Fermi energy in units of hbar omega_t.

    Exact shell filling (smallest n_F whose cumulative degeneracy reaches N)
    for N <= 1000, the continuum value (6N)^(1/3) above.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if n_atoms <= 1000:
        cum = 0
        n = 0
        while True:
            cum += degeneracy(n)
            if cum >= n_atoms:
                return float(n)
            n += 1
    return (6.0 * n_atoms) ** (1.0 / 3.0)


@dataclass(frozen=True, eq=False)
class ThermalState:
    """Solved thermal state of the trapped gas.

    occupations[n] is the mean occupation P(n) of one state on shell n,
    for n = 0..n_max; occupations beyond n_max are treated as exactly zero
    everywhere in the package (the solver pushes the discarded tail below
    1e-12 of N).
    """

    n_atoms: float
    tau: float
    log_fugacity: float
    n_max: int
    statistics: Statistics
    occupations: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.occupations.flags.writeable = False

    @property
    def fugacity(self):
        # may overflow to inf for deeply degenerate states; log_fugacity is
        # the canonical field
        try:
            return math.exp(self.log_fugacity)
        except OverflowError:
            return math.inf

    def cached(self, key, build):
        """The value stored under key, built by build() on first use; a build
        that raises stores nothing.  Unlocked: no command shares a state
        between threads."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def total_atoms(self):
        """sum_n g(n) P(n) over the stored table."""
        return self.cached("total_atoms", lambda: _shell_sum(self.occupations))

    def __repr__(self):
        return (
            f"ThermalState(n_atoms={self.n_atoms:g}, tau={self.tau:g}, "
            f"log_fugacity={self.log_fugacity:.6g}, n_max={self.n_max}, "
            f"statistics={self.statistics.value})"
        )


def occupation(n, state):
    """Mean occupation of one state on shell n (0 beyond the stored table)."""
    n = _checked_int("shell index", n)
    if n > state.n_max:
        return 0.0
    return float(state.occupations[n])


def _log_shell_tail(log_z, tau, n):
    """log of sum_{m>n} g(m) z e^{-m/tau}, the classical bound on the FD tail."""
    q = math.exp(-1.0 / tau)
    one_m_q = -math.expm1(-1.0 / tau)
    bracket = 0.5 * (
        q * (1.0 + q) / one_m_q**3
        + (2.0 * n + 5.0) * q / one_m_q**2
        + (n + 2.0) * (n + 3.0) / one_m_q
    )
    return log_z - (n + 1.0) / tau + math.log(bracket)


_N_MAX_CAP = 20_000_000


def _shell_cutoff(log_z, tau, n_atoms, n_floor):
    """Smallest n_max >= n_floor with the analytic tail bound below 1e-12 N,
    by bisection on [n_floor, _N_MAX_CAP]: past n_floor >= 40 tau the bound
    falls with n."""
    target = math.log(1e-12 * n_atoms)
    lo, hi = max(int(n_floor), 1), _N_MAX_CAP
    if lo > hi:
        raise ConvergenceFailure(f"shell cutoff floor {lo:.3g} exceeds {_N_MAX_CAP} at tau={tau}")
    if _log_shell_tail(log_z, tau, hi) >= target:
        raise ConvergenceFailure(f"shell cutoff exceeds {_N_MAX_CAP} at tau={tau} (log_z={log_z:.3g})")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_shell_tail(log_z, tau, mid) < target:
            hi = mid
        else:
            lo = mid
    return lo if _log_shell_tail(log_z, tau, lo) < target else hi


def _occupations(statistics, log_z, tau, n_max):
    """Mean occupation P(n) of one state on shells n = 0..n_max at fugacity e^log_z.

    The Fermi function is the logistic 1/(1 + e^{-u}) of u = log z - n/tau,
    taken in its two stable branches, 1/(1 + e) for u >= 0 and e/(1 + e)
    below, with e = e^{-|u|}: exp never sees a positive argument, so a
    deeply degenerate state cannot overflow.
    """
    n = np.arange(n_max + 1, dtype=np.float64)
    u = log_z - n / tau
    if statistics is Statistics.MAXWELL_BOLTZMANN:
        return np.exp(u)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


# the Fermi-Dirac solve meets the number constraint to this fraction of N
_SOLVE_REL_TOL = 1e-10
_SOLVE_MAX_ITER = 300


def _solve_fd_log_z(n_atoms, tau, n_max, log_z_mb):
    """(log z, table) of the Fermi-Dirac root on shells 0..n_max by Newton
    steps in log z, slope dN/dlog z = sum g f(1 - f) from the same pass.
    The bracket is closed before the first pass: N falls short at z_MB (FD
    occupations lie below MB ones) and is exceeded at n_max/tau + 40 (every
    shell full to e^-40, and n_max >= E_F + 1 holds more than N levels).
    A step that leaves the narrowing bracket, or a zero slope, bisects it."""
    lo, hi = log_z_mb, n_max / tau + 40.0
    log_z = lo
    for _ in range(_SOLVE_MAX_ITER):
        occ = _occupations(Statistics.FERMI_DIRAC, log_z, tau, n_max)
        shortfall = _shell_sum(occ) - n_atoms
        if abs(shortfall) <= 0.01 * _SOLVE_REL_TOL * n_atoms:
            return log_z, occ
        lo, hi = (log_z, hi) if shortfall < 0.0 else (lo, log_z)
        slope = _shell_sum(occ - occ * occ)
        step = log_z - shortfall / slope if slope > 0.0 else hi
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < step < hi:
            break  # the bracket is down to adjacent doubles
        log_z = step
    else:
        raise ConvergenceFailure(f"fugacity solve took {_SOLVE_MAX_ITER} table passes")
    if abs(shortfall) > _SOLVE_REL_TOL * n_atoms:
        raise ConvergenceFailure(f"fugacity solve missed tolerance: |dN|/N = {abs(shortfall) / n_atoms:.3g}")
    return log_z, occ


def solve_fugacity(n_atoms, tau, statistics=Statistics.FERMI_DIRAC):
    """Solve the fugacity for N atoms at reduced temperature tau.

    For Maxwell-Boltzmann atoms the closed form z = N (1 - e^{-1/tau})^3 is
    used; the Fermi-Dirac root is found by Newton steps in log z inside a
    closed bracket (the number constraint is strictly increasing in z), and
    its last pass is the state's table.

    At a closed-shell N (1, 4, 10, ...) and tau far below the level spacing,
    N(log z) is flat to 1e-12 N across the gap above the last full shell, so
    the constraint does not fix log z there: the solve returns the first
    point of the plateau its steps reach, and the occupations agree to
    round-off across it.
    """
    n_atoms = _checked_int("n_atoms", n_atoms, least=1)
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    statistics = Statistics.parse(statistics) if isinstance(statistics, str) else statistics

    ef = fermi_energy(n_atoms)
    n_floor = int(math.ceil(ef + 40.0 * tau)) + 1
    log_z_mb = math.log(n_atoms) + 3.0 * math.log(-math.expm1(-1.0 / tau))

    if statistics is Statistics.MAXWELL_BOLTZMANN:
        log_z = log_z_mb
        n_max = _shell_cutoff(log_z, tau, n_atoms, n_floor)
        occ = _occupations(statistics, log_z, tau, n_max)
    else:
        # the true FD z exceeds the MB estimate; pad the cutoff estimate and
        # verify against the solved value
        n_max = _shell_cutoff(log_z_mb + 0.5, tau, n_atoms, n_floor)
        for _ in range(4):
            log_z, occ = _solve_fd_log_z(n_atoms, tau, n_max, log_z_mb)
            needed = _shell_cutoff(log_z, tau, n_atoms, n_floor)
            if needed <= n_max:
                break
            n_max = needed
        else:
            raise ConvergenceFailure("shell cutoff failed to stabilize")

    return ThermalState(
        n_atoms=float(n_atoms),
        tau=tau,
        log_fugacity=log_z,
        n_max=n_max,
        statistics=statistics,
        occupations=occ,
    )


def from_fugacity(log_z, tau, n_max, statistics=Statistics.FERMI_DIRAC):
    """State at prescribed fugacity with the level sums clamped at n_max.

    Intended for validation against the brute-force oracles, where both
    sides must run over exactly the same finite set of shells.  The atom
    number is whatever the clamped table sums to.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    n_max = _checked_int("n_max", n_max)
    statistics = Statistics.parse(statistics) if isinstance(statistics, str) else statistics
    occ = _occupations(statistics, log_z, tau, n_max)
    return ThermalState(
        n_atoms=_shell_sum(occ),
        tau=tau,
        log_fugacity=log_z,
        n_max=n_max,
        statistics=statistics,
        occupations=occ,
    )
