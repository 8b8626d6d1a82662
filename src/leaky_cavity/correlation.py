"""Two-time correlators of the cavity mode via the regression theorem.

For a memoryless environment the correlator <a_q^dagger(t) a_q(t+tau)> obeys
the same damped-oscillator equation in tau as the single-time amplitude, so it
is available in closed form per harmonic line.  Two conventions are shipped for
the incoherent term because the as-published tau = 0 value carries the noise
occupation twice (see ``CONVENTIONS``); the Monte-Carlo oracle adjudicates.
"""

from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams, dipole_noise_occupation, mode_amplitude
from .dipole import DipoleSpectrum, FluctuationModel

# Convention tag -> weight of C_Delta in the incoherent term.  "as-written"
# reproduces the published stationary correlator (incoherent weight
# 2*C_Delta); "tau-zero-consistent" scales it so the tau = 0 value matches the
# occupation exactly (weight 1*C_Delta).
CONVENTIONS = {"as-written": 2.0, "tau-zero-consistent": 1.0}


def tag_factor(table: dict, tag: str, kind: str) -> float:
    """Factor that ``table`` assigns to ``tag``; ``kind`` names the tag in the error."""
    try:
        return table[tag]
    except (KeyError, TypeError):
        raise ValueError(f"{kind} must be one of {tuple(table)}, got {tag!r}") from None


@dataclass(frozen=True)
class CorrelationCoefficients:
    """Per-line response A_N = g_q d_N / (i(omega_q-omega_N)+kappa) and incoherent weight C_Delta."""

    a_n: np.ndarray = field(repr=False)
    c_delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a_n", np.asarray(self.a_n, dtype=complex))
        if self.c_delta < 0:
            raise ValueError("c_delta must be nonnegative")


@dataclass(frozen=True)
class CorrelationSeries:
    """Sampled correlator over a tau grid, at reference time t or stationary."""

    tau: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    convention: str
    t: float | None = None

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if tau.shape != vals.shape or tau.ndim != 1:
            raise ValueError("tau and values must be 1-d arrays of equal length")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "values", vals)

    @property
    def stationary(self) -> bool:
        return self.t is None


def coefficients(params: CavityParams, spectrum: DipoleSpectrum,
                 fluct: FluctuationModel) -> CorrelationCoefficients:
    """Line coefficients A_N and the incoherent weight C_Delta = delta g_q^2/(2 kappa)."""
    detuning = params.omega_q - spectrum.harmonics()
    a_n = params.g_q * spectrum.coeffs / (1j * detuning + params.kappa)
    c_delta = fluct.delta * params.g_q ** 2 / (2.0 * params.kappa)
    return CorrelationCoefficients(a_n=a_n, c_delta=c_delta)


def two_time_correlation(params: CavityParams, spectrum: DipoleSpectrum,
                         fluct: FluctuationModel, t: float, tau_grid,
                         convention: str) -> CorrelationSeries:
    """<a_q^dagger(t) a_q(t+tau)> at finite reference time t, tau >= 0.

    Three pieces: the decaying image of the occupation at t, the coherent drive
    integral evaluated in closed form per line (all N, M cross terms retained),
    and the incoherent dipole-noise term weighted by the convention factor.
    """
    s = tag_factor(CONVENTIONS, convention, "convention")
    tau = np.asarray(tau_grid, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative; extend via C(-tau) = conj(C(tau))")
    coeff = coefficients(params, spectrum, fluct)
    decay = np.exp(-(1j * params.omega_q + params.kappa) * tau)

    amp = mode_amplitude(params, spectrum, t)  # <a_q^dagger(t)>
    coherent_occ = abs(amp) ** 2  # equals the full-mode coherent occupation
    noise_occ = dipole_noise_occupation(params, fluct, t)

    line_phases = np.exp(-1j * np.outer(tau, spectrum.harmonics()))
    drive = (line_phases - decay[:, None]) @ (
        coeff.a_n * np.exp(-1j * spectrum.harmonics() * t)
    )
    values = decay * (coherent_occ + s * noise_occ) + amp * drive
    return CorrelationSeries(tau=tau, values=values, convention=convention, t=float(t))


def stationary_correlation(params: CavityParams, spectrum: DipoleSpectrum,
                           fluct: FluctuationModel, tau_grid,
                           convention: str) -> CorrelationSeries:
    """Long-time correlator sum_N |A_N|^2 exp(-i omega_N tau) + s C_Delta exp(-(i omega_q+kappa) tau).

    Only the N = M terms of the coherent double sum survive the long-time
    limit (the rest dephase); the non-decaying lines carry the elastic
    scattering, the exponentially decaying term the dipole noise.
    """
    s = tag_factor(CONVENTIONS, convention, "convention")
    tau = np.asarray(tau_grid, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative; extend via C(-tau) = conj(C(tau))")
    coeff = coefficients(params, spectrum, fluct)
    line_phases = np.exp(-1j * np.outer(tau, spectrum.harmonics()))
    values = line_phases @ (np.abs(coeff.a_n) ** 2) + s * coeff.c_delta * np.exp(
        -(1j * params.omega_q + params.kappa) * tau
    )
    return CorrelationSeries(tau=tau, values=values, convention=convention, t=None)


def hermitian_extension(series: CorrelationSeries) -> tuple[np.ndarray, np.ndarray]:
    """Extend a tau >= 0 series to the full axis via C(-tau) = conj(C(tau))."""
    tau = series.tau
    if tau[0] != 0.0:
        raise ValueError("extension requires the grid to start at tau = 0")
    full_tau = np.concatenate([-tau[:0:-1], tau])
    full_vals = np.concatenate([np.conj(series.values[:0:-1]), series.values])
    return full_tau, full_vals
