"""Closed-form observables of a nonlinearly driven leaky cavity, with brute-force cross-checks.

The cavity mode is driven by a classical anharmonic dipole (harmonic comb
omega_N = N*omega plus optional white-noise fluctuations) and damped at rate
kappa into an unstructured environment.  The package evaluates the resulting
amplitude, occupation, two-time correlators and power spectra in closed form,
and ships independent oracles (direct ODE integration, Monte-Carlo noise
trajectories, a discrete-bath unitary model) that validate every formula.
"""

from .dipole import (
    DriveParams,
    DipoleSpectrum,
    FluctuationModel,
    TimeSeries,
    fourier_decompose,
    synthesize_mean_dipole,
)
from .cavity import (
    CavityParams,
    OccupationCurve,
    kappa_from_coupling,
    mode_amplitude,
    occupation,
    occupation_longtime,
    dipole_noise_occupation,
)
from .correlation import (
    CorrelationSeries,
    two_time_correlation,
    stationary_correlation,
)
from .spectrum import (
    SpectrumResult,
    PowerReport,
    power_spectrum,
    integrated_power,
    spectrum_from_correlation,
    default_omega_grid,
)
from .oracle import (
    BathDiscretization,
    TrajectoryEnsemble,
    BathDecayResult,
    integrate_amplitude_ode,
    monte_carlo_noise,
    discrete_bath_decay,
)

__version__ = "0.1.0"

__all__ = [
    "DriveParams",
    "DipoleSpectrum",
    "FluctuationModel",
    "TimeSeries",
    "fourier_decompose",
    "synthesize_mean_dipole",
    "CavityParams",
    "OccupationCurve",
    "kappa_from_coupling",
    "mode_amplitude",
    "occupation",
    "occupation_longtime",
    "dipole_noise_occupation",
    "CorrelationSeries",
    "two_time_correlation",
    "stationary_correlation",
    "SpectrumResult",
    "PowerReport",
    "power_spectrum",
    "integrated_power",
    "spectrum_from_correlation",
    "default_omega_grid",
    "BathDiscretization",
    "TrajectoryEnsemble",
    "BathDecayResult",
    "integrate_amplitude_ode",
    "monte_carlo_noise",
    "discrete_bath_decay",
]
