"""Power spectra and radiated power of the driven leaky cavity.

The coherent part is a comb of delta lines at the dipole harmonics, kept
symbolically as (frequency, weight) pairs; the incoherent part is a Lorentzian
of half-width kappa centered on the cavity frequency.  Two normalization tags
exist because the published Lorentzian is pi times what the half-range
Wiener-Khinchin transform of the published correlator gives; both are
implemented, nothing is silently corrected.
"""

from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams, line_amplitudes, noise_saturation
from .correlation import CorrelationSeries, tag_factor
from .dipole import DipoleSpectrum, FluctuationModel, uniform_steps

# Normalization tag -> factor on the continuum and the fluctuation power.
NORMALIZATIONS = {"as-written": 1.0, "wkt-consistent": 1.0 / np.pi}


@dataclass(frozen=True)
class SpectrumResult:
    """Symbolic delta lines plus a sampled incoherent continuum."""

    lines: np.ndarray = field(repr=False)       # shape (n_lines, 2): omega_N, weight
    omega: np.ndarray = field(repr=False)       # continuum grid
    continuum: np.ndarray = field(repr=False)   # S_Delta on the grid
    normalization: str = "as-written"
    grid_truncated: bool = False                # grid misses the Lorentzian core

    def line_weight_total(self) -> float:
        return float(self.lines[:, 1].sum()) if self.lines.size else 0.0


@dataclass(frozen=True)
class PowerReport:
    """Integrated powers: elastic lines, fluctuation continuum, and the fluctuation bound."""

    p_coherent: float
    p_fluctuation: float
    p_fluctuation_max: float
    normalization: str = "as-written"

    @property
    def p_total(self) -> float:
        return self.p_coherent + self.p_fluctuation


def default_omega_grid(params: CavityParams, spectrum: DipoleSpectrum) -> np.ndarray:
    """Uniform grid with spacing kappa/20 spanning [0, max line + 10 kappa]."""
    top = max(float(spectrum.harmonics()[-1]), params.omega_q) + 10.0 * params.kappa
    step = params.kappa / 20.0
    return np.linspace(0.0, top, int(np.ceil(top / step)) + 1)


def power_spectrum(params: CavityParams, spectrum: DipoleSpectrum,
                   fluct: FluctuationModel, omega_grid=None,
                   normalization: str = "as-written") -> SpectrumResult:
    """Coherent line weights g_q^2 |d_N|^2 / ((omega_q-omega_N)^2 + kappa^2) plus the Lorentzian continuum.

    The continuum is 2 C_Delta kappa / ((omega-omega_q)^2 + kappa^2) under the
    "as-written" tag, divided by pi under "wkt-consistent".
    """
    factor = tag_factor(NORMALIZATIONS, normalization, "normalization")
    if omega_grid is None:
        omega_grid = default_omega_grid(params, spectrum)
    omega = np.asarray(omega_grid, dtype=float)
    lines = np.column_stack([spectrum.harmonics(),
                             np.abs(line_amplitudes(params, spectrum)) ** 2])
    continuum = factor * 2.0 * noise_saturation(params, fluct) * params.kappa / (
        (omega - params.omega_q) ** 2 + params.kappa ** 2
    )
    truncated = bool(
        fluct.delta > 0
        and (omega[0] > params.omega_q - 5.0 * params.kappa
             or omega[-1] < params.omega_q + 5.0 * params.kappa)
    )
    return SpectrumResult(lines=lines, omega=omega, continuum=continuum,
                          normalization=normalization, grid_truncated=truncated)


def integrated_power(params: CavityParams, spectrum: DipoleSpectrum,
                     fluct: FluctuationModel,
                     normalization: str = "as-written") -> PowerReport:
    """Powers from integrating the spectrum over omega in [0, infinity).

    p_fluctuation = 2 C_Delta [pi/2 + arctan(omega_q/kappa)] (times the
    normalization factor); the bound p_fluctuation_max is its omega_q >> kappa
    limit, equal to c delta (g_q/g0)^2 when the bath coupling is given.
    """
    factor = tag_factor(NORMALIZATIONS, normalization, "normalization")
    p_coherent = float(np.sum(np.abs(line_amplitudes(params, spectrum)) ** 2))
    p_fluct = factor * 2.0 * noise_saturation(params, fluct) * (
        np.pi / 2.0 + np.arctan(params.omega_q / params.kappa)
    )
    if params.g0 is not None and params.c is not None:
        p_max = factor * params.c * fluct.delta * (params.g_q / params.g0) ** 2
    else:
        p_max = factor * fluct.delta * np.pi * params.g_q ** 2 / params.kappa
    return PowerReport(p_coherent=p_coherent, p_fluctuation=float(p_fluct),
                       p_fluctuation_max=float(p_max), normalization=normalization)


def spectrum_from_correlation(series: CorrelationSeries, omega_grid) -> np.ndarray:
    """Numerical half-range Wiener-Khinchin transform of a stationary correlator.

    S(omega) = (1/pi) Re[ sum_j w_j C(tau_j) exp(i omega tau_j) dtau ] with
    trapezoidal weights.

    The omega grid must be uniform, omega_k = omega_0 + k domega.  The sum is
    then a chirp-z transform (Bluestein): with a = domega dtau and
    kj = (k^2 + j^2 - (k-j)^2)/2 it is one FFT convolution with the chirp
    exp(-i a m^2/2), in O((N_tau + N_omega) log) operations.
    """
    if not series.stationary:
        raise ValueError("spectrum_from_correlation requires a stationary series")
    tau = series.tau
    dtau = uniform_steps(tau, "tau")
    weights = np.full(tau.size, dtau[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    omega = np.asarray(omega_grid, dtype=float)
    uniform_steps(omega, "omega")
    n, m = tau.size, omega.size
    a = (omega[-1] - omega[0]) / (m - 1) * (tau[-1] - tau[0]) / (n - 1)
    # exp(i omega_k tau_j) = exp(i omega_0 tau_j) exp(i (omega_k - omega_0) tau_0) exp(i a k j)
    u = series.values * weights * np.exp(1j * omega[0] * tau) * np.exp(0.5j * a * np.arange(n) ** 2)
    size = 1 << (n + m - 2).bit_length()  # a power of two >= n + m - 1
    chirp = np.zeros(size, dtype=complex)
    chirp[:m] = np.exp(-0.5j * a * np.arange(m) ** 2)
    chirp[size - n + 1:] = np.exp(-0.5j * a * np.arange(n - 1, 0, -1) ** 2)
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(chirp))[:m]
    phase = np.exp(1j * (omega - omega[0]) * tau[0]) * np.exp(0.5j * a * np.arange(m) ** 2)
    return (phase * conv).real / np.pi
