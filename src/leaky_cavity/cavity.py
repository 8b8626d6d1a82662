"""Closed-form Langevin observables of the damped cavity mode.

All expressions assume vacuum initial conditions for the cavity and the
environment; the drive enters through the positive-frequency part of the mean
dipole (rotating-wave-like truncation), and dipole white noise adds an
incoherent occupation that saturates at delta*g_q^2/(2*kappa).  The two
per-line quantities the correlators and spectra are built from, the line
response A_N and the noise weight C_Delta, are ``line_amplitudes`` and
``noise_saturation``.
"""

from dataclasses import dataclass, field

import numpy as np

from .dipole import DipoleSpectrum, FluctuationModel, phase_table, require_finite

_KAPPA_CONSISTENCY_RTOL = 1e-12


def kappa_from_coupling(g0: float, c: float) -> float:
    """Cavity damping rate kappa = g0^2 * pi / c for a flat bath coupling."""
    if g0 <= 0 or c <= 0:
        raise ValueError(f"g0 and c must be positive, got g0={g0}, c={c}")
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


def _line_responses(params: CavityParams, spectrum: DipoleSpectrum, t: np.ndarray):
    """Per-harmonic response d_N * (exp(i(omega_q-omega_N)t) - exp(-kappa t)) / (i(omega_q-omega_N)+kappa).

    This is exp(-(i omega_q + kappa) t) times the drive integral
    int_0^t exp((i omega_q + kappa)t') d_N exp(-i omega_N t') dt', written in a
    form that stays finite for arbitrarily large kappa*t.
    """
    detuning = params.omega_q - spectrum.harmonics()
    denom = 1j * detuning + params.kappa
    resp = phase_table(t, detuning)
    resp -= np.exp(-params.kappa * t)[:, None]
    resp *= spectrum.coeffs / denom
    return resp


def mode_amplitude(params: CavityParams, spectrum: DipoleSpectrum, t):
    """Coherent amplitude <a_q^dagger(t)> from vacuum.

    Equals sum_N A_N^* [exp(i omega_N t) - exp(i omega_q t) exp(-kappa t)] with
    A_N^* = g_q conj(d_N) / (-i(omega_q - omega_N) + kappa); zero at t = 0 and
    oscillating at the dipole harmonics once kappa*t >> 1.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    resp = _line_responses(params, spectrum, t_arr).sum(axis=1)
    out = params.g_q * np.conj(resp) * np.exp(1j * params.omega_q * t_arr)
    return out if np.ndim(t) else complex(out[0])


def occupation(params: CavityParams, spectrum: DipoleSpectrum,
               fluct: FluctuationModel, t) -> OccupationCurve:
    """Photon occupation <a_q^dagger a_q>(t), coherent plus dipole-noise parts.

    The coherent part keeps the N != M interference terms of the double
    harmonic sum, so it is exactly |mode_amplitude|^2.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    resp = _line_responses(params, spectrum, t_arr)
    coherent = params.g_q ** 2 * np.abs(resp.sum(axis=1)) ** 2
    noise = dipole_noise_occupation(params, fluct, t_arr)
    return OccupationCurve(times=t_arr, coherent=coherent, noise=noise)


def line_amplitudes(params: CavityParams, spectrum: DipoleSpectrum) -> np.ndarray:
    """Stationary response A_N = g_q d_N / (i(omega_q - omega_N) + kappa) of each harmonic line."""
    detuning = params.omega_q - spectrum.harmonics()
    return params.g_q * spectrum.coeffs / (1j * detuning + params.kappa)


def noise_saturation(params: CavityParams, fluct: FluctuationModel) -> float:
    """Incoherent weight C_Delta = delta g_q^2 / (2 kappa), the saturated dipole-noise occupation."""
    return fluct.delta * params.g_q ** 2 / (2.0 * params.kappa)


def dipole_noise_occupation(params: CavityParams, fluct: FluctuationModel, t):
    """Incoherent occupation <D^dagger D>(t) = C_Delta (1 - exp(-2 kappa t))."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be nonnegative")
    out = noise_saturation(params, fluct) * (1.0 - np.exp(-2.0 * params.kappa * t_arr))
    return out if np.ndim(t) else float(out)


def occupation_longtime(params: CavityParams, spectrum: DipoleSpectrum,
                        fluct: FluctuationModel) -> float:
    """Stationary occupation sum_N |A_N|^2 + C_Delta.

    The balance between drive gain and cavity loss; the N != M cross terms
    average to zero in this limit.
    """
    coherent = np.sum(np.abs(line_amplitudes(params, spectrum)) ** 2)
    return float(coherent + noise_saturation(params, fluct))
