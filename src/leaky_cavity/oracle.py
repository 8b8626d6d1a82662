"""Brute-force oracles that validate the closed forms independently.

Three routes: fixed-step 4th-order integration of the amplitude equation
driven by a DipoleSpectrum (each step is the linear recursion z -> R z + f),
Monte-Carlo averaging of noise-driven trajectories, and a discrete-bath
unitary model whose continuum limit reproduces the Markovian decay rate.
None of them reuses the closed-form expressions they are checked against.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .cavity import CavityParams
from .dipole import DipoleSpectrum, FluctuationModel, TimeSeries, noise_std, uniform_steps

# Half weight of the delta function at the boundary of the memory-kernel
# integral, int_0^t f(t') delta(t-t') dt' = f(t)/2; it is what makes the
# realized decay rate pi*g0^2/dOmega rather than 2*pi*g0^2/dOmega.
DELTA_ENDPOINT_WEIGHT = 0.5

_STABILITY_LIMIT = 0.1

# Monte-Carlo trials drawn and filtered together; it bounds memory, not results.
_MC_CHUNK = 512


def _rk4_transfer(lam: complex, h: float):
    """One-step propagator R and forcing weights (c0, cm, c1) of classical RK4.

    For dz/dt = lam*z + f(t) the scheme is affine,
    z_{n+1} = R z_n + h/6 [c0 f(t_n) + cm f(t_n + h/2) + c1 f(t_n + h)].
    """
    z = lam * h
    r = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    c0 = (1.0 + z + z ** 2 / 2.0 + z ** 3 / 4.0) * h / 6.0
    cm = (4.0 + 2.0 * z + z ** 2 / 2.0) * h / 6.0
    c1 = h / 6.0
    return r, c0, cm, c1


def _scan(r: complex, forcing: np.ndarray) -> np.ndarray:
    """Cumulative states of z_{n+1} = r z_n + forcing_n starting from z_0 = 0."""
    states = [0j]
    for f in forcing.tolist():
        states.append(r * states[-1] + f)
    return np.array(states)


def _check_step(params: CavityParams, h: float):
    if h * max(params.omega_q, params.kappa) > _STABILITY_LIMIT:
        raise ValueError(
            f"step too large: h*max(omega_q, kappa) = {h * max(params.omega_q, params.kappa):.3g} "
            f"exceeds {_STABILITY_LIMIT}"
        )


def amplitude_ode_step(params: CavityParams, spectrum: DipoleSpectrum) -> float:
    """Step 0.005/max(omega_q, top harmonic, kappa) of the amplitude oracle against the closed form."""
    return 0.005 / max(params.omega_q, spectrum.harmonics()[-1], params.kappa)


def integrate_amplitude_ode(params: CavityParams, mean_dipole: DipoleSpectrum,
                            t_grid) -> TimeSeries:
    """Integrate d<a_q>/dt = -(i omega_q + kappa) <a_q> + g_q d(t) from vacuum.

    The drive is the positive-frequency signal of the DipoleSpectrum
    ``mean_dipole``, evaluated analytically at the step and half-step nodes.
    Returns <a_q(t)> on the grid; the conjugate is what mode_amplitude computes.
    """
    t = np.asarray(t_grid, dtype=float)
    h = float(uniform_steps(t, "t")[0])
    _check_step(params, h)
    nodes = t[:-1]
    f0 = mean_dipole.positive_frequency_signal(nodes)
    fm = mean_dipole.positive_frequency_signal(nodes + h / 2.0)
    f1 = mean_dipole.positive_frequency_signal(nodes + h)
    lam = -(1j * params.omega_q + params.kappa)
    r, c0, cm, c1 = _rk4_transfer(lam, h)
    forcing = params.g_q * (c0 * f0 + cm * fm + c1 * f1)
    return TimeSeries(times=t, values=_scan(r, forcing))


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Trial-averaged noise filter statistics with standard errors."""

    n_trials: int
    seed: int
    times: np.ndarray = field(repr=False)
    mean_occupation: np.ndarray = field(repr=False)    # E|d(t)|^2
    stderr_occupation: np.ndarray = field(repr=False)
    reference_time: float = 0.0
    tau: np.ndarray | None = field(default=None, repr=False)
    mean_two_time: np.ndarray | None = field(default=None, repr=False)  # E conj(d(t_ref)) d(t_ref+tau)
    stderr_two_time: np.ndarray | None = field(default=None, repr=False)


def _mean_stderr(total, total_sq, n: int):
    """Mean and its standard error from the sum and the sum of squared moduli of n samples."""
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - np.abs(mean) ** 2, 0.0) / n)


def monte_carlo_noise(params: CavityParams, fluct: FluctuationModel, t_grid,
                      tau_grid=None, n_trials: int = 1000,
                      seed: int = 0) -> TrajectoryEnsemble:
    """Estimate <D^dagger D> statistics by averaging noise-driven trajectories.

    Each trial draws one white-noise realization (seeded by (seed, trial) so
    trials are independent and the ensemble is reproducible), pushes it through
    the damped filter d(t) = g_q int_0^t exp(-(i omega_q+kappa)(t-t')) dd(t') dt'
    with the same 4th-order step and piecewise-constant forcing per step, and
    the ensemble reports mean and standard error of |d(t)|^2 on the t grid plus,
    when a tau grid is given, of conj(d(t_ref)) d(t_ref+tau) at t_ref = t_grid[-1].
    """
    t = np.asarray(t_grid, dtype=float)
    h = float(uniform_steps(t, "t")[0])
    if t[0] != 0.0:
        raise ValueError("t grid must start at 0 (vacuum initial condition)")
    _check_step(params, h)
    n_t = t.size
    tau = np.asarray([] if tau_grid is None else tau_grid, dtype=float)
    tau_steps = np.rint(tau / h).astype(int)
    if np.any(tau_steps < 0) or np.any(np.abs(tau_steps * h - tau) > 1e-9 * h):
        raise ValueError("tau grid points must be nonnegative multiples of the t step")
    n_steps = n_t - 1 + int(tau_steps.max(initial=0))
    sigma = noise_std(fluct, t[0] + h * np.arange(n_steps + 1))

    lam = -(1j * params.omega_q + params.kappa)
    r, c0, cm, c1 = _rk4_transfer(lam, h)
    gain = params.g_q * (c0 + cm + c1)  # constant forcing over each step

    ref_index = n_t - 1
    lag_taus = {}  # step index -> indices of the tau points at that lag from t_ref
    for m, lag in enumerate(tau_steps.tolist()):
        lag_taus.setdefault(ref_index + lag, []).append(m)

    occ_sum = np.zeros(n_t)
    occ_sumsq = np.zeros(n_t)
    tt_sum = np.zeros(tau_steps.size, dtype=complex)
    tt_sumsq = np.zeros(tau_steps.size)
    buffer = np.empty((min(_MC_CHUNK, n_trials), n_steps))
    for lo in range(0, n_trials, _MC_CHUNK):
        noise = buffer[:min(_MC_CHUNK, n_trials - lo)]
        for k, row in enumerate(noise, start=lo):
            np.random.default_rng([seed, k]).standard_normal(out=row)
        noise *= sigma
        z = np.zeros(noise.shape[0], dtype=complex)
        for j in range(n_steps):
            z = r * z + gain * noise[:, j]
            idx = j + 1
            if idx < n_t:
                mod2 = np.abs(z) ** 2
                occ_sum[idx] += mod2.sum()
                occ_sumsq[idx] += (mod2 ** 2).sum()
            if idx == ref_index:
                z_ref = np.conj(z)
            if idx in lag_taus:
                prod = z_ref * z
                for m in lag_taus[idx]:
                    tt_sum[m] += prod.sum()
                    tt_sumsq[m] += (np.abs(prod) ** 2).sum()

    mean_occ, stderr_occ = _mean_stderr(occ_sum, occ_sumsq, n_trials)
    result = dict(n_trials=n_trials, seed=seed, times=t, mean_occupation=mean_occ,
                  stderr_occupation=stderr_occ, reference_time=float(t[-1]))
    if tau_grid is not None:
        mean_tt, stderr_tt = _mean_stderr(tt_sum, tt_sumsq, n_trials)
        result.update(tau=tau, mean_two_time=mean_tt, stderr_two_time=stderr_tt)
    return TrajectoryEnsemble(**result)


@dataclass(frozen=True)
class BathDiscretization:
    """A flat band of explicit reservoir modes standing in for the continuum."""

    n_modes: int
    center: float
    half_width: float
    g0: float

    def __post_init__(self):
        if self.n_modes < 2:
            raise ValueError("n_modes must be at least 2")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.g0 < 0:
            raise ValueError("g0 must be nonnegative")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_modes - 1)

    @property
    def kappa_effective(self) -> float:
        """Decay rate realized by this discretization, pi g0^2 / spacing."""
        return DELTA_ENDPOINT_WEIGHT * 2.0 * np.pi * self.g0 ** 2 / self.spacing

    @property
    def recurrence_time(self) -> float:
        """Horizon beyond which the discrete bath feeds energy back."""
        return 2.0 * np.pi / self.spacing

    @classmethod
    def for_damping(cls, kappa: float, center: float, n_modes: int,
                    half_width: float) -> "BathDiscretization":
        """Choose the per-mode coupling so kappa_effective equals the target."""
        bath = cls(n_modes=n_modes, center=center, half_width=half_width, g0=0.0)
        g0 = np.sqrt(kappa * bath.spacing / (DELTA_ENDPOINT_WEIGHT * 2.0 * np.pi))
        return replace(bath, g0=g0)

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.center - self.half_width,
                           self.center + self.half_width, self.n_modes)


@dataclass(frozen=True)
class BathDecayResult:
    """Cavity amplitude under explicit bath coupling, with bookkeeping."""

    series: TimeSeries
    kappa_effective: float
    recurrence_time: float
    norm_error: float


def continuum_pole(bath: BathDiscretization) -> tuple[float, float]:
    """Realized decay rate and amplitude of the cavity pole for the continuum band.

    A flat band of finite half-width W does not decay at exactly the nominal
    rate pi g0^2 / spacing: the analytically continued self-energy puts the
    pole at rate u solving u = kappa_eff (1 + (2/pi) arctan(u/W)) with residue
    z = 1/(1 - (2 kappa_eff/(pi W)) / (1 + (u/W)^2)), so |alpha(t)| follows
    z exp(-u t) up to band-edge ripples of order kappa_eff/W.
    """
    k0 = bath.kappa_effective
    w = bath.half_width
    u = k0
    for _ in range(100):
        u_next = k0 * (1.0 + (2.0 / np.pi) * np.arctan(u / w))
        if abs(u_next - u) < 1e-15 * k0:
            u = u_next
            break
        u = u_next
    slope = (2.0 * k0 / (np.pi * w)) / (1.0 + (u / w) ** 2)
    return float(u), float(1.0 / (1.0 - slope))


def discrete_bath_decay(bath: BathDiscretization, params: CavityParams,
                        t_grid) -> BathDecayResult:
    """Decay of a single cavity excitation into the discrete bath, no drive.

    The single-excitation amplitudes obey a linear Hermitian system
    (d/dt alpha = -i omega_q alpha - i g0 sum_k beta_k, and each bath mode a
    detuned mirror term), solved exactly by eigendecomposition so the evolution
    is unitary to machine precision.  In the continuum limit |alpha(t)| follows
    exp(-kappa_effective t).
    """
    t = np.asarray(t_grid, dtype=float)
    if t[-1] >= bath.recurrence_time:
        raise ValueError(
            f"horizon {t[-1]:.3g} reaches the bath recurrence time "
            f"{bath.recurrence_time:.3g}; increase n_modes or shrink the grid"
        )
    n = bath.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = params.omega_q
    idx = np.arange(1, n + 1)
    h[idx, idx] = bath.frequencies()
    h[0, 1:] = bath.g0
    h[1:, 0] = bath.g0
    evals, evecs = np.linalg.eigh(h)
    weight = evecs[0, :]  # overlap of each eigenmode with the cavity
    phases = np.exp(-1j * np.outer(evals, t))
    alpha = (weight ** 2) @ phases

    check = t[:: max(1, t.size // 32)]
    psi = evecs @ (weight[:, None] * np.exp(-1j * np.outer(evals, check)))
    norm_error = float(np.max(np.abs(np.sum(np.abs(psi) ** 2, axis=0) - 1.0)))
    return BathDecayResult(
        series=TimeSeries(times=t, values=alpha),
        kappa_effective=bath.kappa_effective,
        recurrence_time=bath.recurrence_time,
        norm_error=norm_error,
    )
