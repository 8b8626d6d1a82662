"""Brute-force oracles that validate the closed forms independently.

Three routes: fixed-step 4th-order integration of the amplitude equation
driven by a DipoleSpectrum (each step is the linear recursion z -> R z + f),
Monte-Carlo averaging of noise-driven trajectories, and a discrete-bath
unitary model whose continuum limit reproduces the Markovian decay rate.
None of them reuses the closed-form expressions they are checked against.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .cavity import CavityParams, kappa_from_coupling
from .dipole import DipoleSpectrum, FluctuationModel, TimeSeries, _phase_row_blocks, noise_std, \
    phase_table, uniform_steps

_STABILITY_LIMIT = 0.1

# Monte-Carlo trials drawn and filtered together; it bounds memory, not results.
_MC_CHUNK = 512
# Steps per block of the Monte-Carlo recursion (one GEMM row) and blocks per
# slab (one GEMM): 256 steps x 512 trials keep the slab arrays at a few MB.
# Like _MC_CHUNK, they bound work and memory; results agree to rounding.
_MC_BLOCK = 16
_MC_SLAB_BLOCKS = 16
# Slabs of normals drawn per trial at a time: the draw tile holds
# _MC_CHUNK x (8 x 256) floats whatever the walk's length.  Drawing a
# generator's stream in pieces gives the same normals, so results do not
# depend on it.
_MC_TILE_SLABS = 8


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
    z = 0j
    states = [z]
    append = states.append
    for f in forcing.tolist():
        z = r * z + f
        append(z)
    return np.array(states, dtype=complex)


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
    return p


def _as_slice(index: np.ndarray):
    """A sorted, unique ``index`` as a slice if it has no gaps, so gathers copy no temporary."""
    if index[-1] - index[0] == index.size - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _slab_reads(picked: np.ndarray, snaps: np.ndarray, slab: int, tile: int) -> dict:
    """What the Monte-Carlo walk forms and reads in each slab that holds a read state.

    State s >= 1 comes out of step s - 1, at position s - 1 - s0 of the slab
    starting at step s0; state 0 is the vacuum.  Maps each such s0 to
    (sel, k, k_occ, span, cols, here, snap_cols): the k blocks to form, as
    indices into the draw tile (a slice when consecutive), of which the first
    k_occ hold a pick (picks lie at or before t_ref = snaps[0], snapshots at
    or after it); the slice ``span`` of ``picked`` in the slab and their state
    columns among the formed blocks (None without picks); the indices
    ``here`` of ``snaps`` in the slab and their columns.
    """
    n_l = _MC_BLOCK
    reads = {}
    for s0 in slab * np.union1d((picked[picked > 0] - 1) // slab, (snaps - 1) // slab):
        lo, hi = np.searchsorted(picked, [s0 + 1, s0 + slab + 1])
        pos = picked[lo:hi] - 1 - s0
        here = np.flatnonzero((snaps - 1) // slab == s0 // slab)
        snap_pos = snaps[here] - 1 - s0
        kind = np.zeros(slab // n_l, dtype=int)  # 2: holds a pick, 1: a snapshot only
        kind[snap_pos // n_l] = 1
        kind[pos // n_l] = 2
        blocks = np.flatnonzero(kind)
        column = np.empty(kind.size, dtype=int)
        column[blocks] = n_l * np.arange(blocks.size)
        cols = _as_slice(column[pos // n_l] + pos % n_l) if hi > lo else None
        reads[int(s0)] = (_as_slice(blocks + s0 % tile // n_l), blocks.size,
                          np.count_nonzero(kind == 2), slice(lo, hi), cols, here,
                          column[snap_pos // n_l] + snap_pos % n_l)
    return reads


def monte_carlo_noise(params: CavityParams, fluct: FluctuationModel, t_grid,
                      tau_grid=None, n_trials: int = 1000, seed: int = 0,
                      picks=None) -> TrajectoryEnsemble:
    """Estimate <D^dagger D> statistics by averaging noise-driven trajectories.

    Each trial draws one white-noise realization (seeded by (seed, trial) so
    trials are independent and the ensemble is reproducible), pushes it through
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
    only in the blocks that hold a read state (a pick, t_ref or t_ref + tau):
    per slab those blocks, with their carries as two extra columns, are
    gathered and multiplied by ``_block_propagator`` in one real GEMM, and the
    |d|^2 sums over trials are GEMVs with a ones vector over every state of
    the blocks that hold a pick.  Each trial's generator stays open across its
    chunk and fills one row of a fixed draw tile at a time, so apart from the
    step grid that sigma is measured on, memory grows with the walk only
    through the sums at the picks.
    """
    t = np.asarray(t_grid, dtype=float)
    h = float(uniform_steps(t, "t")[0])
    if t[0] != 0.0:
        raise ValueError("t grid must start at 0 (vacuum initial condition)")
    _check_step(params, h)
    n_t = t.size
    picked = _pick_indices(picks, n_t)
    tau = np.asarray([] if tau_grid is None else tau_grid, dtype=float)
    tau_steps = np.rint(tau / h).astype(int)
    if np.any(tau_steps < 0) or np.any(np.abs(tau_steps * h - tau) > 1e-9 * h):
        raise ValueError("tau grid points must be nonnegative multiples of the t step")
    n_steps = n_t - 1 + int(tau_steps.max(initial=0))
    sigma = noise_std(fluct, t[0] + h * np.arange(n_steps + 1))

    lam = -(1j * params.omega_q + params.kappa)
    r, c0, cm, c1 = _rk4_transfer(lam, h)
    gain = params.g_q * (c0 + cm + c1)  # constant forcing over each step

    n_l = _MC_BLOCK
    prop = _block_propagator(r, sigma * gain)  # takes the raw standard-normal draws
    # Zero-start state at each block end.  Column-major, the product takes one
    # BLAS kernel whatever the tile's height; a row-major copy switches kernels
    # with the height and moves last bits.
    end_prop = np.asfortranarray(prop[:n_l, -2:])
    r_block = r ** n_l
    n_blocks = min(_MC_SLAB_BLOCKS, -(-n_steps // n_l))
    slab = n_blocks * n_l
    n_pad = -(-n_steps // slab) * slab  # the padding steps draw zero noise
    tile = min(_MC_TILE_SLABS * slab, n_pad)

    # Read: the picked states, then t_ref and t_ref + tau.
    ref_index = n_t - 1
    snaps = np.concatenate([[ref_index], ref_index + tau_steps])
    reads = _slab_reads(picked, snaps, slab, tile)

    total = np.zeros(picked.size)  # sums over trials at the picks; the vacuum stays 0
    total_sq = np.zeros(picked.size)
    tt_sum = np.zeros(tau_steps.size, dtype=complex)
    tt_sumsq = np.zeros(tau_steps.size)
    rows = min(_MC_CHUNK, n_trials)
    draws = np.empty((rows, tile))
    block_end = np.empty((rows * (tile // n_l), 2))
    carries = np.empty((rows, tile // n_l), dtype=complex)
    aug = np.empty(rows * n_blocks * (n_l + 2))  # noise blocks | Re, Im carry
    states = np.empty(rows * slab * 2)  # Re z, Im z of each state of the formed blocks
    mod2 = np.empty(rows * slab)
    col_sum = np.empty(slab)
    ones = np.ones(rows)
    kept = np.empty((rows, snaps.size), dtype=complex)
    for lo in range(0, n_trials, _MC_CHUNK):
        m = min(_MC_CHUNK, n_trials - lo)
        streams = [np.random.default_rng([seed, k]) for k in range(lo, lo + m)]
        noise = draws[:m]
        noise_blocks = noise.reshape(m, tile // n_l, n_l)
        ends = block_end[:m * (tile // n_l)].view(complex).reshape(m, tile // n_l)
        z = np.zeros(m, dtype=complex)
        for t0 in range(0, n_pad, tile):
            width = min(tile, n_steps - t0)
            for stream, row in zip(streams, noise):
                stream.standard_normal(out=row[:width])
            noise[:, width:] = 0.0  # the padding steps draw zero noise
            np.matmul(noise.reshape(m * (tile // n_l), n_l), end_prop,
                      out=block_end[:m * (tile // n_l)])
            for b in range(min(tile, n_pad - t0) // n_l):
                carries[:m, b] = z
                z = r_block * z + ends[:, b]
            for s0 in range(t0, min(t0 + tile, n_pad), slab):
                if s0 not in reads:
                    continue
                sel, k, k_occ, span, cols, here, snap_cols = reads[s0]
                a = aug[:m * k * (n_l + 2)].reshape(m, k, n_l + 2)
                a[:, :, :n_l] = noise_blocks[:, sel]
                a[:, :, n_l:].view(complex)[..., 0] = carries[:m, sel]
                out = states[:m * k * 2 * n_l].reshape(m, 2 * k * n_l)
                np.matmul(a.reshape(m * k, n_l + 2), prop, out=out.reshape(m * k, 2 * n_l))
                kept[:m, here] = out[:, 2 * snap_cols] + 1j * out[:, 2 * snap_cols + 1]
                if cols is not None:
                    width_occ = k_occ * n_l
                    part = out[:, :2 * width_occ]
                    sq = mod2[:m * width_occ].reshape(m, width_occ)
                    col = col_sum[:width_occ]
                    np.square(part, out=part)
                    np.add(part[:, 0::2], part[:, 1::2], out=sq)
                    total[span] += np.matmul(ones[:m], sq, out=col)[cols]
                    np.square(sq, out=sq)
                    total_sq[span] += np.matmul(ones[:m], sq, out=col)[cols]
        prod = np.conj(kept[:m, :1]) * kept[:m, 1:]
        tt_sum += prod.sum(axis=0)
        tt_sumsq += (np.abs(prod) ** 2).sum(axis=0)

    times = t if picks is None else t[picked]
    del picked, reads  # with every point picked both grow with the grid; free them first
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
    t = np.asarray(t_grid, dtype=float)
    if t[-1] >= bath.recurrence_time:
        raise ValueError(
            f"horizon {t[-1]:.3g} reaches the bath recurrence time "
            f"{bath.recurrence_time:.3g}; increase n_modes or shrink the grid"
        )
    evals, weights = _arrowhead_spectrum(bath, params.omega_q)
    alpha = np.empty(t.size, dtype=complex)
    for rows in _phase_row_blocks(t.size, evals.size):
        block = phase_table(t[rows], -evals)
        block *= weights
        alpha[rows] = block.sum(axis=1)
    return BathDecayResult(
        series=TimeSeries(times=t, values=alpha),
        kappa_effective=bath.kappa_effective,
        recurrence_time=bath.recurrence_time,
        norm_error=float(abs(weights.sum() - 1.0)),
    )
