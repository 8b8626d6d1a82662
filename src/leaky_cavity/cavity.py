"""Closed-form Langevin observables of the damped cavity mode.

All expressions assume vacuum initial conditions for the cavity and the
environment; the drive enters through the positive-frequency part of the mean
dipole (rotating-wave-like truncation), and dipole white noise adds an
incoherent occupation that saturates at delta*g_q^2/(2*kappa).  The two
per-line quantities the correlators and spectra are built from, the line
response A_N and the noise weight C_Delta, are ``line_amplitudes`` and
``noise_saturation``.  A time argument t is a number or a 1-d array of times
t >= 0.
"""

from dataclasses import dataclass, field

import numpy as np

from .dipole import DipoleSpectrum, FluctuationModel, _last_table, _phase_row_blocks, _times, \
    phase_table, require_finite

_KAPPA_CONSISTENCY_RTOL = 1e-12


def kappa_from_coupling(g0: float, c: float) -> float:
    """Cavity damping rate kappa = g0^2 * pi / c for a flat bath coupling."""
    if not (0 < g0 < np.inf and 0 < c < np.inf):  # NaN fails too
        raise ValueError(f"g0 and c must be positive and finite, got g0={g0}, c={c}")
    return g0 * g0 * np.pi / c


@dataclass(frozen=True)
class CavityParams:
    """One cavity mode: frequency omega_q, dipole coupling g_q, damping kappa.

    kappa may be given directly or derived from the bath coupling (g0, c); if
    both are supplied they must agree.
    """

    omega_q: float
    g_q: float
    kappa: float | None = None
    g0: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.omega_q <= 0:
            raise ValueError(f"omega_q must be positive, got {self.omega_q}")
        if (self.g0 is None) != (self.c is None):
            raise ValueError("g0 and c must be given together")
        if self.g0 is not None:
            derived = kappa_from_coupling(self.g0, self.c)
            if self.kappa is None:
                object.__setattr__(self, "kappa", derived)
            elif abs(self.kappa - derived) > _KAPPA_CONSISTENCY_RTOL * derived:
                raise ValueError(
                    f"kappa={self.kappa} inconsistent with g0^2*pi/c={derived}"
                )
        require_finite(self)  # after deriving kappa, which overflows for huge g0
        if self.kappa is None:
            raise ValueError("either kappa or (g0, c) is required")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


@dataclass(frozen=True)
class OccupationCurve:
    """Photon number split into coherent and noise parts; total is their sum."""

    times: np.ndarray = field(repr=False)
    coherent: np.ndarray = field(repr=False)
    noise: np.ndarray = field(repr=False)

    @property
    def total(self) -> np.ndarray:
        return self.coherent + self.noise


@_last_table
def _response_sum(params: CavityParams, harmonics, coeffs, t) -> np.ndarray:
    """Sum over N of d_N (exp(i D_N t) - exp(-kappa t)) / (i D_N + kappa).

    With the detuning D_N = omega_q - omega_N, each term is
    exp(-(i omega_q + kappa) t) times the drive integral
    int_0^t exp((i omega_q + kappa)t') d_N exp(-i omega_N t') dt', written in a
    form that stays finite for arbitrarily large kappa*t.  The one kept sum is
    shared by ``occupation`` and ``mode_amplitude`` at the same cavity, comb
    and grid.  The lines are summed in row blocks of ``phase_table``, which
    bounds memory and leaves every bit as in the one-table sum.
    """
    detuning = params.omega_q - harmonics
    weights = coeffs / (1j * detuning + params.kappa)
    total = np.empty(t.size, dtype=complex)
    for rows in _phase_row_blocks(t.size, detuning.size):
        block = phase_table(t[rows], detuning)
        block.real -= np.exp(-params.kappa * t[rows])[:, None]
        block *= weights
        total[rows] = block.sum(axis=1)
    return total


def mode_amplitude(params: CavityParams, spectrum: DipoleSpectrum, t):
    """Coherent amplitude <a_q^dagger(t)> from vacuum.

    Equals sum_N A_N^* [exp(i omega_N t) - exp(i omega_q t) exp(-kappa t)] with
    A_N^* = g_q conj(d_N) / (-i(omega_q - omega_N) + kappa); zero at t = 0 and
    oscillating at the dipole harmonics once kappa*t >> 1.
    """
    t_arr = _times(t, "t")
    # g_q conj(resp) exp(i omega_q t), formed in place in the same order
    out = np.conj(_response_sum(params, spectrum.harmonics(), spectrum.coeffs, t_arr))
    np.multiply(params.g_q, out, out=out)
    np.multiply(out, phase_table(t_arr, [params.omega_q])[:, 0], out=out)
    return out if np.ndim(t) else complex(out[0])


def occupation(params: CavityParams, spectrum: DipoleSpectrum,
               fluct: FluctuationModel, t) -> OccupationCurve:
    """Photon occupation <a_q^dagger a_q>(t), coherent plus dipole-noise parts.

    The coherent part keeps the N != M interference terms of the double
    harmonic sum, so it is exactly |mode_amplitude|^2.
    """
    t_arr = _times(t, "t")
    resp = _response_sum(params, spectrum.harmonics(), spectrum.coeffs, t_arr)
    coherent = params.g_q ** 2 * np.abs(resp) ** 2
    noise = dipole_noise_occupation(params, fluct, t_arr)
    return OccupationCurve(times=t_arr, coherent=coherent, noise=noise)


def line_amplitudes(params: CavityParams, spectrum: DipoleSpectrum) -> np.ndarray:
    """Stationary response A_N = g_q d_N / (i(omega_q - omega_N) + kappa) of each harmonic line."""
    detuning = params.omega_q - spectrum.harmonics()
    return params.g_q * spectrum.coeffs / (1j * detuning + params.kappa)


def _line_weights(params: CavityParams, spectrum: DipoleSpectrum) -> np.ndarray:
    """Weight |A_N|^2 of each harmonic line: its stationary occupation and its radiated power."""
    return np.abs(line_amplitudes(params, spectrum)) ** 2


def noise_saturation(params: CavityParams, fluct: FluctuationModel) -> float:
    """Incoherent weight C_Delta = delta g_q^2 / (2 kappa), the saturated dipole-noise occupation."""
    return fluct.delta * params.g_q ** 2 / (2.0 * params.kappa)


def dipole_noise_occupation(params: CavityParams, fluct: FluctuationModel, t):
    """Incoherent occupation <D^dagger D>(t) = C_Delta (1 - exp(-2 kappa t))."""
    out = noise_saturation(params, fluct) * (1.0 - np.exp(-2.0 * params.kappa * _times(t, "t")))
    return out if np.ndim(t) else float(out[0])


def occupation_longtime(params: CavityParams, spectrum: DipoleSpectrum,
                        fluct: FluctuationModel) -> float:
    """Stationary occupation sum_N |A_N|^2 + C_Delta.

    The balance between drive gain and cavity loss; the N != M cross terms
    average to zero in this limit.
    """
    return float(np.sum(_line_weights(params, spectrum)) + noise_saturation(params, fluct))
