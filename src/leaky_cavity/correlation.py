"""Two-time correlators of the cavity mode via the regression theorem.

For a memoryless environment the correlator <a_q^dagger(t) a_q(t+tau)> obeys
the same damped-oscillator equation in tau as the single-time amplitude, so it
is available in closed form per harmonic line.  Two conventions are shipped for
the incoherent term because the as-published tau = 0 value carries the noise
occupation twice (see ``CONVENTIONS``); the Monte-Carlo oracle adjudicates.
"""

from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams, _line_weights, dipole_noise_occupation, line_amplitudes, \
    mode_amplitude, noise_saturation
from .dipole import DipoleSpectrum, FluctuationModel, _last_table, _phase_row_blocks, _times, \
    phase_table

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


@_last_table
def _comb_phases(tau: np.ndarray, harmonics: np.ndarray) -> np.ndarray:
    """exp(-i omega_N tau_j) over a lag grid and the comb: one table for a whole detuning scan."""
    return phase_table(tau, -harmonics)


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


def _lag_decay(params: CavityParams, tau_grid, convention: str):
    """Convention weight s, the lags as a 1-d array and their decay exp(-(i omega_q + kappa) tau).

    The lags are a number or a 1-d array of finite tau >= 0; a negative lag
    follows from C(-tau) = conj(C(tau)).
    """
    s = tag_factor(CONVENTIONS, convention, "convention")
    tau = _times(tau_grid, "tau")
    return s, tau, np.exp(-(1j * params.omega_q + params.kappa) * tau)


def two_time_correlation(params: CavityParams, spectrum: DipoleSpectrum,
                         fluct: FluctuationModel, t: float, tau_grid,
                         convention: str) -> CorrelationSeries:
    """<a_q^dagger(t) a_q(t+tau)> at finite reference time t, tau >= 0.

    Three pieces: the decaying image of the occupation at t, the coherent drive
    integral evaluated in closed form per line (all N, M cross terms retained),
    and the incoherent dipole-noise term weighted by the convention factor.
    """
    t_arr = _times(t, "t")
    if np.ndim(t):
        raise ValueError(f"t must be one time, got shape {np.shape(t)}")
    t = float(t_arr[0])
    s, tau, decay = _lag_decay(params, tau_grid, convention)

    amp = mode_amplitude(params, spectrum, t)  # <a_q^dagger(t)>
    occ = abs(amp) ** 2 + s * dipole_noise_occupation(params, fluct, t)  # |amp|^2 is coherent

    comb = _comb_phases(tau, spectrum.harmonics())
    weights = line_amplitudes(params, spectrum) * phase_table(-spectrum.harmonics(), [t])[:, 0]
    drive = np.empty(tau.size, dtype=complex)  # in row blocks, each bit as in one product
    for rows in _phase_row_blocks(tau.size, weights.size):
        drive[rows] = (comb[rows] - decay[rows, None]) @ weights
    return CorrelationSeries(tau=tau, values=decay * occ + amp * drive, convention=convention, t=t)


def stationary_correlation(params: CavityParams, spectrum: DipoleSpectrum,
                           fluct: FluctuationModel, tau_grid,
                           convention: str) -> CorrelationSeries:
    """Long-time correlator sum_N |A_N|^2 exp(-i omega_N tau) + s C_Delta exp(-(i omega_q+kappa) tau).

    Only the N = M terms of the coherent double sum survive the long-time
    limit (the rest dephase); the non-decaying lines carry the elastic
    scattering, the exponentially decaying term the dipole noise.
    """
    s, tau, decay = _lag_decay(params, tau_grid, convention)
    lines = _comb_phases(tau, spectrum.harmonics()) @ _line_weights(params, spectrum)
    values = lines + s * noise_saturation(params, fluct) * decay
    return CorrelationSeries(tau=tau, values=values, convention=convention, t=None)
