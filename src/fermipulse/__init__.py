"""Light scattering of short 2*pi laser pulses from a trapped ideal Fermi gas.

Computes coherent and incoherent form functions, angular and frequency
photon distributions, and temperature-dependent total photon counts, with
Maxwell-Boltzmann comparison states and brute-force validation oracles.
All internals use trap units (hbar = omega_t = 1, lengths in the trap
ground-state size).
"""

__version__ = "0.1.0"

# The library computes with numpy alone.  This bare import (about 10 ms,
# no public subpackage) exists only because fermibench/worker.py reads
# sys.modules["scipy"].__version__ after every benchmark run.
import scipy  # noqa: F401

from .formfunc import (
    BudgetExceeded,
    FormFunctionError,
    Method,
    SeriesDivergence,
    ToleranceNotMet,
    coherent_form,
    incoherent_form,
)
from .model import TrapModel, kinematics
from .pulse import PulseModel, S_COH_LINE_INTEGRAL, S_IN_LINE_INTEGRAL, single_atom_spectra
from .quadrature import QuadratureFailure, adaptive_simpson
from .spectra import (
    AngularMode,
    angular_distribution,
    angular_weight,
    differential,
    frequency_distribution,
    photon_norm,
    theta_integrals,
    total_photons,
)
from .specfun import (
    fc_matrix,
    franck_condon_sq,
    franck_condon_sq_loggamma,
    laguerre_addition_check,
    laguerre_scaled,
    laguerre_scaled_table,
)
from .statmech import (
    ConvergenceFailure,
    Statistics,
    ThermalState,
    degeneracy,
    fermi_energy,
    from_fugacity,
    occupation,
    solve_fugacity,
)

__all__ = [
    "__version__",
    "AngularMode",
    "BudgetExceeded",
    "ConvergenceFailure",
    "FormFunctionError",
    "Method",
    "PulseModel",
    "QuadratureFailure",
    "S_COH_LINE_INTEGRAL",
    "S_IN_LINE_INTEGRAL",
    "SeriesDivergence",
    "Statistics",
    "ThermalState",
    "ToleranceNotMet",
    "TrapModel",
    "adaptive_simpson",
    "angular_distribution",
    "angular_weight",
    "coherent_form",
    "degeneracy",
    "differential",
    "fc_matrix",
    "fermi_energy",
    "franck_condon_sq",
    "franck_condon_sq_loggamma",
    "frequency_distribution",
    "from_fugacity",
    "incoherent_form",
    "kinematics",
    "laguerre_addition_check",
    "laguerre_scaled",
    "laguerre_scaled_table",
    "occupation",
    "photon_norm",
    "single_atom_spectra",
    "solve_fugacity",
    "theta_integrals",
    "total_photons",
]
