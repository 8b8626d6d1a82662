"""Two-time correlators of the cavity mode via the regression theorem.

For a memoryless environment the correlator <a_q^dagger(t) a_q(t+tau)> obeys
the same damped-oscillator equation in tau as the single-time amplitude, so it
is available in closed form per harmonic line.  Two conventions are shipped for
the incoherent term because the as-published tau = 0 value carries the noise
occupation twice (see ``CONVENTIONS``); the Monte-Carlo oracle adjudicates.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams, dipole_noise_occupation, line_amplitudes, mode_amplitude, \
    noise_saturation
from .dipole import DipoleSpectrum, FluctuationModel, phase_table

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


@functools.lru_cache(maxsize=1)
def _comb_phases(tau: bytes, harmonics: bytes) -> np.ndarray:
    """Read-only table exp(-i omega_N tau_j) of a lag grid against the harmonic comb.

    It depends on neither the cavity nor the coefficients, so a detuning scan
    over one comb and one lag grid builds it once; the arguments are the raw
    bytes of both arrays, so an array changed in place is a new key.
    """
    table = phase_table(np.frombuffer(tau), -np.frombuffer(harmonics))
    table.flags.writeable = False
    return table


def _comb_table(spectrum: DipoleSpectrum, tau: np.ndarray) -> np.ndarray:
    return _comb_phases(tau.tobytes(), spectrum.harmonics().tobytes())


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
    decay = np.exp(-(1j * params.omega_q + params.kappa) * tau)

    amp = mode_amplitude(params, spectrum, t)  # <a_q^dagger(t)>
    coherent_occ = abs(amp) ** 2  # equals the coherent occupation
    noise_occ = dipole_noise_occupation(params, fluct, t)

    # one dense product: row blocks would round a few results differently
    drive = (_comb_table(spectrum, tau) - decay[:, None]) @ (
        line_amplitudes(params, spectrum) * np.exp(-1j * spectrum.harmonics() * t)
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
    weights = np.abs(line_amplitudes(params, spectrum)) ** 2
    lines = _comb_table(spectrum, tau) @ weights
    decay = np.exp(-(1j * params.omega_q + params.kappa) * tau)
    values = lines + s * noise_saturation(params, fluct) * decay
    return CorrelationSeries(tau=tau, values=values, convention=convention, t=None)
