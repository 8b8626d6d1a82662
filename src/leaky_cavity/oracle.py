"""Brute-force oracles that validate the closed forms independently.

Three routes: fixed-step 4th-order integration of the amplitude equation
driven by a DipoleSpectrum (each step is the linear recursion z -> R z + f),
Monte-Carlo averaging of noise-driven trajectories, and a discrete-bath
unitary model whose continuum limit reproduces the Markovian decay rate.
None of them reuses the closed-form expressions they are checked against.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cavity import CavityParams, kappa_from_coupling
from .dipole import DipoleSpectrum, FluctuationModel, TimeSeries, _count, _phase_row_blocks, \
    _times, noise_std, phase_table, require_finite, uniform_steps

_STABILITY_LIMIT = 0.1

# How far each oracle runs against the closed forms, in units of 1/kappa: the
# Monte-Carlo walk to kappa t = 20 with lags to kappa tau = 3, and the bath
# decay on 256 points to kappa t = 5, through a band 40 kappa wide on each side.
NOISE_KAPPA_T = 20.0
NOISE_KAPPA_TAU = 3.0
BATH_KAPPA_T = 5.0
BATH_HALF_WIDTH_KAPPAS = 40.0

# Fewest Monte-Carlo trials: a standard error needs two.
MIN_TRIALS = 2

# Monte-Carlo trials drawn and filtered together.  It bounds memory; results
# agree to rounding, as the per-chunk sums over trials reassociate.
_MC_CHUNK = 512
# Steps per block of the Monte-Carlo recursion (one GEMM row).  Like _MC_CHUNK,
# it bounds work and memory; results agree to rounding.
_MC_BLOCK = 16
# Blocks of normals drawn per trial at a time, an even number so no aligned
# pair of blocks straddles two tiles: the draw tile holds _MC_CHUNK x (64 x 16)
# floats (4 MB) whatever the walk's length.  Drawing a generator's stream in
# pieces gives the same normals, so results do not depend on it.
_MC_TILE_BLOCKS = 64


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


def _scan(r: complex, forcing: np.ndarray, z: complex = 0j) -> np.ndarray:
    """Cumulative states of z_{n+1} = r z_n + forcing_n starting from z_0 = z."""
    states = np.empty(forcing.size + 1, dtype=complex)
    states[0] = z = complex(z)
    states[1:] = [z := r * z + f for f in forcing.tolist()]
    return states


def _vacuum_step(t_grid):
    """The uniform grid t_grid, which starts from the vacuum at 0, as a 1-d array, and its step."""
    t = _times(t_grid, "t")
    h = float(uniform_steps(t, "t")[0])
    if t[0] != 0.0:
        raise ValueError("t grid must start at 0 (vacuum initial condition)")
    return t, h


def _rk4_step(params: CavityParams, h: float):
    """The cavity's RK4 transfer over a step h held to the stability limit."""
    rate = max(params.omega_q, params.kappa)
    if h * rate > _STABILITY_LIMIT:
        raise ValueError(f"step too large: h*max(omega_q, kappa) = {h * rate:.3g} "
                         f"exceeds {_STABILITY_LIMIT}")
    return _rk4_transfer(-(1j * params.omega_q + params.kappa), h)


def _arange_points(stop: float, step: float, what: str) -> int:
    """Points of np.arange(0, stop, step), ceil(stop / step), counted without building it.

    ValueError if that count is beyond a float, naming the grid as ``what``.
    """
    count = stop / step
    if not math.isfinite(count):
        raise ValueError(f"{what} has more steps than a float holds")
    return math.ceil(count)


def _fastest_rate(params: CavityParams, spectrum: DipoleSpectrum) -> float:
    """max(omega_q, top harmonic, kappa), the fastest rate of the driven cavity."""
    return max(params.omega_q, spectrum.harmonics()[-1], params.kappa)


def amplitude_ode_step(params: CavityParams, spectrum: DipoleSpectrum) -> float:
    """Step 0.005/``_fastest_rate`` of the amplitude oracle against the closed form."""
    return 0.005 / _fastest_rate(params, spectrum)


def amplitude_ode_points(params: CavityParams, spectrum: DipoleSpectrum, t_end: float) -> int:
    """Points of run's amplitude-oracle grid out to ``t_end``, counted without building it.

    They are np.arange(0, t_end + h/2, h)'s for h = ``amplitude_ode_step``.
    """
    h = amplitude_ode_step(params, spectrum)
    return _arange_points(t_end + h / 2, h,
                          f"the amplitude oracle out to t = {t_end!r} at its step {h!r}")


def noise_step(params: CavityParams) -> float:
    """Step 0.02/max(omega_q, kappa) of the Monte-Carlo noise oracle against the closed form."""
    return 0.02 / max(params.omega_q, params.kappa)


def noise_points(params: CavityParams) -> int:
    """Points of ``noise_times``, counted without building the grid.

    This is np.arange's count for steps of ``noise_step`` to the stop
    kappa t = NOISE_KAPPA_T plus half a step.
    """
    dt = noise_step(params)
    return _arange_points(NOISE_KAPPA_T / params.kappa + dt / 2, dt,
                          f"the Monte-Carlo walk at kappa = {params.kappa!r} and "
                          f"omega_q = {params.omega_q!r}")


def noise_times(params: CavityParams) -> np.ndarray:
    """The Monte-Carlo oracle's t grid: steps of ``noise_step`` out to kappa t = NOISE_KAPPA_T.

    Point k is k times the step, as np.arange(0, stop, step) forms it.
    """
    return noise_step(params) * np.arange(noise_points(params))


def noise_lag_steps(params: CavityParams) -> np.ndarray:
    """The lags of run's Monte-Carlo oracle, as indices into ``noise_times(params)``.

    Every (n_t // 200)-th point of the n_t-point grid out to kappa tau =
    NOISE_KAPPA_TAU, found by counting, so the grid need not be built.
    """
    n_t = noise_points(params)
    h = noise_step(params)
    limit = NOISE_KAPPA_TAU / params.kappa
    last = min(int(limit / h), n_t - 1)  # the last k whose point k * h is at most limit
    while last + 1 < n_t and (last + 1) * h <= limit:
        last += 1
    while last * h > limit:
        last -= 1
    return np.arange(0, last + 1, max(1, n_t // 200))


def noise_walk_steps(params: CavityParams) -> int:
    """Steps of run's Monte-Carlo walk: those of ``noise_times`` and then its largest lag."""
    return noise_points(params) - 1 + int(noise_lag_steps(params)[-1])


def _ode_rows(params: CavityParams, mean_dipole: DipoleSpectrum, t, h: float, state):
    """States at the nodes t of one row block, by RK4 steps of h from ``state`` at t[0].

    The drive at the nodes t_n .. t_{n+m} gives each step both f(t_n) and,
    where t_n + h equals t_{n+1} bit for bit, f(t_n + h).  The midpoints and
    the other ends share a second table: a product row rounds alike in any
    table of two rows or more, and a one-step block, which only a two-point
    grid has, ends on t_1.
    """
    r, c0, cm, c1 = _rk4_step(params, h)
    drive = mean_dipole.positive_frequency_signal
    on_grid = drive(t)
    nodes = t[:-1]
    ends = nodes + h
    miss = np.flatnonzero(ends != t[1:])
    off_grid = drive(np.concatenate([nodes + h / 2.0, ends[miss]]))
    forcing = c0 * on_grid[:-1] + cm * off_grid[:nodes.size]
    on_grid[1:][miss] = off_grid[nodes.size:]  # f(t_n) formed, this is f(t_n + h)
    forcing += c1 * on_grid[1:]
    forcing *= params.g_q
    return _scan(r, forcing, state)


def amplitude_ode_blocks(params: CavityParams, mean_dipole: DipoleSpectrum, n: int):
    """``integrate_amplitude_ode`` on the n points k h, k < n, one row block at a time.

    h is ``amplitude_ode_step``; the points are those np.arange(0, stop, h)
    holds, and a count such as ``amplitude_ode_points`` gives.  A block of
    rows k0 .. k1 has the nodes h * np.arange(k0, k1 + 1), formed as it is
    reached and integrated from the last state of the block before, so the
    states are those of the whole grid bit for bit.  Yields a TimeSeries of
    each block's new nodes, the first block's with t_0 and the vacuum, so no
    block has a single row unless the grid has two points; besides it only
    one block's temporaries are held.
    """
    n, h = _count(n, "n", 2), amplitude_ode_step(params, mean_dipole)
    state = 0j
    for rows in _phase_row_blocks(n - 1, mean_dipole.coeffs.size):
        t = h * np.arange(rows.start, rows.stop + 1)
        states = _ode_rows(params, mean_dipole, t, h, state)
        state, new = states[-1], int(rows.start > 0)  # a later block's t[0] ends the last
        yield TimeSeries(t[new:], states[new:])


def integrate_amplitude_ode(params: CavityParams, mean_dipole: DipoleSpectrum,
                            t_grid) -> TimeSeries:
    """Integrate d<a_q>/dt = -(i omega_q + kappa) <a_q> + g_q d(t) from vacuum.

    The drive is the positive-frequency signal of the DipoleSpectrum
    ``mean_dipole``, evaluated analytically at the step and half-step nodes.
    Returns <a_q(t)> on the uniform grid t_grid, which starts at 0; the
    conjugate is what mode_amplitude computes.  The forcing is formed and
    scanned in row blocks of the comb's phase tables, so besides the result
    only one block's temporaries are held.
    """
    t, h = _vacuum_step(t_grid)
    states = np.zeros(t.size, dtype=complex)
    for rows in _phase_row_blocks(t.size - 1, mean_dipole.coeffs.size):
        block = slice(rows.start, rows.stop + 1)
        states[block] = _ode_rows(params, mean_dipole, t[block], h, states[rows.start])
    return TimeSeries(times=t, values=states)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Trial-averaged noise filter statistics with standard errors."""

    n_trials: int
    seed: int
    times: np.ndarray = field(repr=False)
    mean_occupation: np.ndarray = field(repr=False)    # E|d(t)|^2
    stderr_occupation: np.ndarray = field(repr=False)
    reference_time: float
    tau: np.ndarray | None = field(default=None, repr=False)
    mean_two_time: np.ndarray | None = field(default=None, repr=False)  # E conj(d(t_ref)) d(t_ref+tau)
    stderr_two_time: np.ndarray | None = field(default=None, repr=False)


def _mean_stderr(total, total_sq, n: int):
    """Mean and its standard error from the sum and the sum of squared moduli of n samples."""
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - np.abs(mean) ** 2, 0.0) / n)


def _block_propagator(r: complex, gain: complex) -> np.ndarray:
    """Real (L+2, 2L) matrix P with [x_0..x_{L-1}, Re z0, Im z0] @ P = [Re z_1, Im z_1, ..., Im z_L].

    L steps of z -> r z + gain x from z0 give z_{i+1} = r^(i+1) z0 +
    sum_{m<=i} gain r^(i-m) x_m: the noise rows hold the lower-triangular
    Toeplitz matrix gain r^(i-m), the carry rows r^(i+1) and i r^(i+1).  The
    columns interleave real and imaginary parts, so a product row viewed as
    complex is z_1..z_L.
    """
    powers = r ** np.arange(_MC_BLOCK + 1)
    lag = np.arange(_MC_BLOCK) - np.arange(_MC_BLOCK)[:, None]  # i - m at row m, column i
    toeplitz = np.where(lag >= 0, gain * powers[np.maximum(lag, 0)], 0.0)
    rows = np.vstack([toeplitz, powers[1:], 1j * powers[1:]])
    return np.ascontiguousarray(rows).view(float)


def _pick_indices(picks, n_t: int) -> np.ndarray:
    """The sorted, unique integer indices ``picks`` into a grid of n_t points; all if None."""
    if picks is None:
        return np.arange(n_t)
    p = np.asarray(picks)
    if p.ndim != 1 or p.size == 0 or p.dtype.kind not in "iu":
        raise ValueError("picks must be a non-empty 1-d array of integer indices into t_grid")
    if np.any(np.diff(p) <= 0):
        raise ValueError("picks must be sorted and unique")
    if p[0] < 0 or p[-1] >= n_t:
        raise ValueError(f"picks must lie in [0, {n_t - 1}], got {p[0]}..{p[-1]}")
    return p.astype(int)


def monte_carlo_noise(params: CavityParams, fluct: FluctuationModel, t_grid,
                      tau_grid=None, *, n_trials: int, seed: int,
                      picks=None) -> TrajectoryEnsemble:
    """Estimate <D^dagger D> statistics by averaging noise-driven trajectories.

    Each trial draws one white-noise realization from its own generator,
    ``np.random.default_rng([seed, trial])``, so trials are independent and the
    ensemble is reproducible.  Each realization is pushed through
    the damped filter d(t) = g_q int_0^t exp(-(i omega_q+kappa)(t-t')) dd(t') dt'
    with the same 4th-order step and piecewise-constant forcing per step, and
    the ensemble reports mean and standard error of |d(t)|^2 at t_grid[picks]
    (every point when ``picks`` is None) plus, when a tau grid is given, of
    conj(d(t_ref)) d(t_ref+tau) at t_ref = t_grid[-1].  ``picks`` are sorted,
    unique integer indices into t_grid; the walk, its draws and its step are
    those of the whole grid whatever they are.

    The recursion runs in blocks of L steps.  The zero-start end state of every
    block of a draw tile comes from one GEMM of the tile, and a short scan
    turns them into each block's start state (its carry).  States are formed
    only in the aligned pairs of blocks that hold a read state (a pick, t_ref
    or t_ref + tau): a pair's two blocks, with their carries as two extra
    columns, are multiplied by ``_block_propagator`` in one real GEMM, so every
    product has two rows per trial.  Each statistic is summed over the chunk's
    trials by numpy row by row over all the pair's 2L states and read at its
    columns, so a state's sums do not depend on which others are read.  Each
    trial's generator stays open across its chunk and fills one row of a fixed
    draw tile at a time, so memory grows with the walk only through the sums
    at the picks.
    """
    t, h = _vacuum_step(t_grid)
    r, c0, cm, c1 = _rk4_step(params, h)
    n_t = t.size
    picked = _pick_indices(picks, n_t)
    tau = _times([] if tau_grid is None else tau_grid, "tau")
    with np.errstate(over="ignore"):  # a finite lag can still overflow tau / h
        steps = np.rint(tau / h)
    # lags past 2**53 steps, and overflowed ones, fail the first test before the cast to int
    if not np.all(steps < 2 ** 53) or np.any(np.abs(steps * h - tau) > 1e-9 * h):
        raise ValueError("tau grid points must be nonnegative multiples of the t step")
    tau_steps = steps.astype(int)
    n_steps = n_t - 1 + int(tau_steps.max(initial=0))
    seed, n_trials = _count(seed, "seed", 0), _count(n_trials, "n_trials", MIN_TRIALS)
    sigma = noise_std(fluct, h)
    gain = params.g_q * (c0 + cm + c1)  # constant forcing over each step

    n_l = _MC_BLOCK
    pair = 2 * n_l
    prop = _block_propagator(r, sigma * gain)  # takes the raw standard-normal draws
    # Zero-start state at each block end.  Column-major, the product takes one
    # BLAS kernel whatever the tile's height; a row-major copy switches kernels
    # with the height and moves last bits.
    end_prop = np.asfortranarray(prop[:n_l, -2:])
    r_block = r ** n_l
    n_pad = -(-n_steps // pair) * pair  # the padding steps draw zero noise
    tile = min(_MC_TILE_BLOCKS * n_l, n_pad)

    # Read: the picks and, with lags, t_ref and t_ref + tau.  State s >= 1 comes
    # out of step s - 1, at column s - 1 - 2 L p of pair p; state 0 is the
    # vacuum, whose sums stay 0.
    ref_index = n_t - 1
    snaps = ref_index + tau_steps
    reads = [picked[picked > 0], snaps, [ref_index]] if snaps.size else [picked[picked > 0]]
    pairs = np.unique((np.concatenate(reads) - 1) // pair)

    total = np.zeros(picked.size)  # sums over trials at the picks
    total_sq = np.zeros(picked.size)
    tt_sum = np.zeros(tau_steps.size, dtype=complex)
    tt_sumsq = np.zeros(tau_steps.size)
    rows = min(_MC_CHUNK, n_trials)
    draws = np.empty((rows, tile))
    block_end = np.empty((rows * (tile // n_l), 2))  # then, in place, each block's carry
    states = np.empty((rows, 2 * pair))  # Re d, Im d of each state of a pair
    ref = np.empty(rows, dtype=complex)  # conj d(t_ref) of each trial
    for lo in range(0, n_trials, _MC_CHUNK):
        m = min(_MC_CHUNK, n_trials - lo)
        # np.random is reached only here, so only a walk loads numpy.random
        streams = [np.random.default_rng([seed, k]) for k in range(lo, lo + m)]
        noise = draws[:m]
        noise_blocks = noise.reshape(m, tile // n_l, n_l)
        carries = block_end[:m * (tile // n_l)].view(complex).reshape(m, tile // n_l)
        out = states[:m]
        z = np.zeros(m, dtype=complex)
        for t0 in range(0, n_pad, tile):
            width = min(tile, n_steps - t0)
            for stream, row in zip(streams, noise):
                stream.standard_normal(out=row[:width])
            noise[:, width:] = 0.0  # the padding steps draw zero noise
            np.matmul(noise.reshape(m * (tile // n_l), n_l), end_prop,
                      out=block_end[:m * (tile // n_l)])
            for b in range(min(tile, n_pad - t0) // n_l):
                z, carries[:, b] = r_block * z + carries[:, b], z
            for p in pairs[(pairs >= t0 // pair) & (pairs < (t0 + tile) // pair)]:
                b, at = 2 * p - t0 // n_l, pair * p + 1  # its first block in the tile, state
                # each block's noise | Re, Im carry, freed before the sums
                aug = np.concatenate([noise_blocks[:, b:b + 2],
                                      carries[:, b:b + 2, None].view(float)], axis=2)
                np.matmul(aug.reshape(2 * m, n_l + 2), prop, out=out.reshape(2 * m, pair))
                del aug
                d = out.view(complex)  # the pair's states
                if 0 <= ref_index - at < pair:
                    np.conj(d[:, ref_index - at], out=ref[:m])
                first, last = np.searchsorted(picked, [at, at + pair])
                if last > first:
                    cols = picked[first:last] - at
                    occ = np.square(out[:, 0::2])
                    occ += np.square(out[:, 1::2])  # |d|^2
                    total[first:last] += occ.sum(axis=0)[cols]
                    total_sq[first:last] += np.square(occ, out=occ).sum(axis=0)[cols]
                lags = np.flatnonzero((snaps - at) // pair == 0)
                if lags.size:
                    cols = snaps[lags] - at
                    np.multiply(ref[:m, None], d, out=d)  # conj d(t_ref) d
                    tt_sum[lags] += d.sum(axis=0)[cols]
                    moduli = np.abs(d)
                    tt_sumsq[lags] += np.square(moduli, out=moduli).sum(axis=0)[cols]

    times = t if picks is None else t[picked]
    mean_occ, stderr_occ = _mean_stderr(total, total_sq, n_trials)
    result = dict(n_trials=n_trials, seed=seed, times=times, mean_occupation=mean_occ,
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
        _count(self.n_modes, "n_modes", 2)
        require_finite(self)
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.g0 < 0:
            raise ValueError("g0 must be nonnegative")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_modes - 1)

    @property
    def kappa_effective(self) -> float:
        """Decay rate realized by this discretization, kappa_from_coupling(g0, spacing).

        The flat band's memory kernel is 2 pi g0^2/spacing times delta(t - t'),
        and a delta at the end of the integral int_0^t counts half, which
        makes the rate pi g0^2 / spacing.
        """
        return kappa_from_coupling(self.g0, self.spacing) if self.g0 else 0.0

    @property
    def recurrence_time(self) -> float:
        """Horizon beyond which the discrete bath feeds energy back."""
        return 2.0 * np.pi / self.spacing

    def check_horizon(self, t_end: float) -> None:
        """Raise ValueError unless the recurrence time lies beyond ``t_end``."""
        if t_end >= self.recurrence_time:
            raise ValueError(f"undersized bath: horizon {t_end:.3g} reaches the recurrence "
                             f"time {self.recurrence_time:.3g}; use more modes")

    @classmethod
    def for_damping(cls, kappa: float, center: float, n_modes: int,
                    half_width: float) -> "BathDiscretization":
        """Choose the per-mode coupling so kappa_effective equals the target."""
        bath = cls(n_modes=n_modes, center=center, half_width=half_width, g0=0.0)
        g0 = np.sqrt(kappa * bath.spacing / np.pi)  # kappa_from_coupling inverted
        return replace(bath, g0=g0)

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.center - self.half_width,
                           self.center + self.half_width, self.n_modes)


def cavity_bath(params: CavityParams, n_modes: int,
                half_width_kappas: float = BATH_HALF_WIDTH_KAPPAS) -> BathDiscretization:
    """The bath of ``n_modes`` modes centred on omega_q that damps ``params`` at its kappa."""
    return BathDiscretization.for_damping(params.kappa, params.omega_q, n_modes,
                                          half_width_kappas * params.kappa)


def bath_times(params: CavityParams) -> np.ndarray:
    """The bath oracle's t grid: 256 points out to kappa t = BATH_KAPPA_T."""
    return np.linspace(0.0, BATH_KAPPA_T / params.kappa, 256)


@dataclass(frozen=True)
class BathDecayResult:
    """Cavity amplitude under explicit bath coupling, with its norm error."""

    series: TimeSeries
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


# Bernoulli-number coefficients of the asymptotic series of psi and psi'
# (B_2k / 2k and B_2k for k = 1..8), accurate to 1e-16 for z >= 10.
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
               -3617 / 8160)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                    -3617 / 510)
_PSI_SHIFT = 10

# Cap on the passes of the secular root solve.  The rational step converges
# quadratically and bisection guards it: 6-10 passes are typical, and the most
# seen over 3000 random baths (2-300 modes, g0/spacing from 1e-6 to 300, omega_q
# on, off and outside the band) was 30.
_SECULAR_PASSES = 100


def _digamma(z):
    """Digamma psi(z) and trigamma psi'(z) of an array z > 0.

    Shifts z up to at least 10 by psi(z) = psi(z+1) - 1/z, then sums the
    asymptotic (Bernoulli) series.
    """
    z = np.array(z, dtype=float)
    psi = np.zeros_like(z)
    trigamma = np.zeros_like(z)
    for _ in range(_PSI_SHIFT):
        low = z < _PSI_SHIFT
        if not low.any():
            break
        inv = np.where(low, 1.0 / z, 0.0)
        psi -= inv
        trigamma += inv * inv
        z += low
    inv = 1.0 / z
    inv2 = inv * inv
    psi += np.log(z) - 0.5 * inv - inv2 * np.polyval(_PSI_SERIES[::-1], inv2)
    trigamma += inv + 0.5 * inv2 + inv * inv2 * np.polyval(_TRIGAMMA_SERIES[::-1], inv2)
    return psi, trigamma


def _pole_sums(n: int, anchor, e):
    """T = sum_k 1/(y-k) and T2 = sum_k 1/(y-k)^2 over the poles k = 0..n-1 at y = anchor + e.

    ``anchor`` is the pole nearest y and ``e`` the offset from it, so the
    nearest pole is summed on e itself.  Within half a spacing of a pole the
    sums are psi(y+1) - psi(n-y) + pi cot(pi e) and pi^2/sin^2(pi e) - psi'(y+1)
    - psi'(n-y), both psi arguments >= 1/2.  Farther out, which only a root
    outside the band can be, the terms share one sign and are summed directly.
    """
    t1 = np.empty_like(e)
    t2 = np.empty_like(e)
    near = np.abs(e) <= 0.5
    y = anchor[near] + e[near]
    lower, d_lower = _digamma(y + 1.0)
    upper, d_upper = _digamma(n - y)
    pole = np.pi * e[near]
    t1[near] = lower - upper + np.pi / np.tan(pole)
    t2[near] = (np.pi / np.sin(pole)) ** 2 - d_lower - d_upper
    far = ~near
    inv = 1.0 / ((anchor[far, None] - np.arange(n)) + e[far, None])
    t1[far] = inv.sum(axis=1)
    t2[far] = (inv * inv).sum(axis=1)
    return t1, t2


def _arrowhead_spectrum(bath: BathDiscretization, omega_q: float):
    """Eigenvalues and cavity weights w_j^2 of the single-excitation Hamiltonian.

    The matrix [[omega_q, g0 ...], [g0, diag(omega_k)]] is an arrowhead, so its
    eigenvalues are the n+1 roots of the secular equation
    x - omega_q - g0^2 sum_k 1/(x - omega_k) = 0, one below the band, one in
    each gap between bath modes and one above it, and the cavity component of
    eigenvector j has w_j^2 = 1 / (1 + g0^2 sum_k (x_j - omega_k)^-2).  In units
    of the uniform spacing s, y = (x - omega_1)/s, the sums are closed forms in
    psi (``_pole_sums``), so one pass over all roots is O(n).  Each root is
    kept as its offset from the nearer pole, as in LAPACK dlaed4, and refined
    by the step that is exact for a single pole, safeguarded by bisection.
    """
    if bath.g0 == 0.0:
        return np.array([float(omega_q)]), np.ones(1)
    n = bath.n_modes
    s = bath.spacing
    low = bath.center - bath.half_width
    y_q = (omega_q - low) / s
    c = (bath.g0 / s) ** 2

    gap = np.arange(1, n)  # root j lies between the poles j-1 and j
    mid = gap - 0.5
    f_mid = mid - y_q - c * _pole_sums(n, gap, np.full(n - 1, -0.5))[0]
    left = f_mid >= 0.0  # root in the lower half of its gap, nearest pole j-1
    reach = np.sqrt(c * n)  # bounds the outer roots' distance from the band
    anchor = np.concatenate([[0], np.where(left, gap - 1, gap), [n - 1]])
    lo = np.concatenate([[-(max(0.0, -y_q) + reach)], np.where(left, 0.0, -0.5), [0.0]])
    hi = np.concatenate([[0.0], np.where(left, 0.5, 0.0), [max(0.0, y_q - n + 1) + reach]])
    # F(lo) <= 0 <= F(hi); start from the end away from the anchor pole.
    e = lo + hi
    offset = anchor - y_q  # F = offset + e - c T keeps e's own precision
    active = np.arange(n + 1)
    for _ in range(_SECULAR_PASSES):
        ea = e[active]
        t1, t2 = _pole_sums(n, anchor[active], ea)
        f = offset[active] + ea - c * t1
        df = 1.0 + c * t2
        lo[active] = np.where(f < 0.0, ea, lo[active])
        hi[active] = np.where(f > 0.0, ea, hi[active])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = df * ea * ea / (f + df * ea)  # root of the model b - p/e fitting F, F' at e
        # converged when the step, or the bracket, is within rounding of e
        tol = 4.0 * np.finfo(float).eps * np.abs(ea)
        done = (f == 0.0) | (np.abs(step - ea) <= tol) | (hi[active] - lo[active] <= tol)
        inside = (lo[active] < step) & (step < hi[active])
        e[active] = np.where(inside, step, np.where(done, ea, 0.5 * (lo[active] + hi[active])))
        active = active[~done]
        if active.size == 0:
            break
    else:
        raise RuntimeError("secular equation did not converge")
    weights = 1.0 / (1.0 + c * _pole_sums(n, anchor, e)[1])
    return low + s * (anchor + e), weights


def discrete_bath_decay(bath: BathDiscretization, params: CavityParams,
                        t_grid) -> BathDecayResult:
    """Decay of a single cavity excitation into the discrete bath, no drive.

    The single-excitation amplitudes obey a linear Hermitian system
    (d/dt alpha = -i omega_q alpha - i g0 sum_k beta_k, and each bath mode a
    detuned mirror term), solved exactly through the eigenvalues and cavity
    weights of its arrowhead Hamiltonian (``_arrowhead_spectrum``), so
    alpha(t) = sum_j w_j^2 exp(-i x_j t) is unitary evolution to machine
    precision.  ``norm_error`` is the completeness sum rule |sum_j w_j^2 - 1|.
    In the continuum limit |alpha(t)| follows exp(-kappa_effective t).
    """
    t = _times(t_grid, "t")
    bath.check_horizon(t.max(initial=0.0))
    evals, weights = _arrowhead_spectrum(bath, params.omega_q)
    alpha = np.empty(t.size, dtype=complex)
    for rows in _phase_row_blocks(t.size, evals.size):
        block = phase_table(t[rows], -evals)
        block *= weights
        alpha[rows] = block.sum(axis=1)
    return BathDecayResult(series=TimeSeries(times=t, values=alpha),
                           norm_error=float(abs(weights.sum() - 1.0)))
