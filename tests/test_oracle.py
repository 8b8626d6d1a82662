import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from leaky_cavity import oracle
from leaky_cavity.cavity import CavityParams, dipole_noise_occupation, mode_amplitude
from leaky_cavity.cli import default_scenario_path
from leaky_cavity.dipole import _PHASE_BLOCK_ELEMENTS, DipoleSpectrum, DriveParams, \
    FluctuationModel, TimeSeries, noise_std
from leaky_cavity.oracle import (
    _MC_BLOCK,
    _MC_SLAB_BLOCKS,
    _MC_TILE_SLABS,
    BathDiscretization,
    _arrowhead_spectrum,
    _digamma,
    _rk4_transfer,
    _scan,
    amplitude_ode_step,
    continuum_pole,
    discrete_bath_decay,
    integrate_amplitude_ode,
    monte_carlo_noise,
)
from leaky_cavity.scenario import load_scenario


def comb_case():
    drive = DriveParams(omega=1.0, n_max=3)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.1, 0.375, 0.2j, 0.125])
    params = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1)
    return params, spec


def test_ode_matches_closed_form():
    params, spec = comb_case()
    t = np.arange(0.0, 30.0, 0.005 / params.omega_q)
    ode = integrate_amplitude_ode(params, spec, t)
    closed = np.conj(mode_amplitude(params, spec, t))
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(ode.values - closed)) / scale < 1e-8


def test_ode_is_fourth_order():
    params, spec = comb_case()
    errs = []
    for h in (0.02, 0.01):
        t = np.arange(0.0, 10.0 + h / 2, h)
        ode = integrate_amplitude_ode(params, spec, t)
        closed = np.conj(mode_amplitude(params, spec, t))
        errs.append(np.max(np.abs(ode.values - closed)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_ode_error_contracts():
    params, spec = comb_case()
    with pytest.raises(ValueError, match="step too large"):
        integrate_amplitude_ode(params, spec, np.arange(0.0, 10.0, 0.5))
    with pytest.raises(ValueError, match="uniform"):
        integrate_amplitude_ode(params, spec, np.array([0.0, 0.01, 0.03]))


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 60000])
def test_scan_matches_lfilter(n):
    from scipy.signal import lfilter

    shipped = load_scenario(default_scenario_path())
    params, _ = comb_case()
    cases = [(shipped.cavity, amplitude_ode_step(shipped.cavity, shipped.spectrum)),
             (params, 0.005 / params.omega_q), (params, 0.03)]
    rng = np.random.default_rng(n)
    forcing = rng.normal(size=n) + 1j * rng.normal(size=n)
    for cavity, h in cases:
        r = _rk4_transfer(-(1j * cavity.omega_q + cavity.kappa), h)[0]
        reference = np.concatenate([[0j], lfilter([1.0], [1.0, -r], forcing)])
        assert np.array_equal(_scan(r, forcing), reference)


def mc_setup():
    params = CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)
    fluct = FluctuationModel(0.2)
    t = np.arange(0.0, 60.0 + 0.025, 0.05)
    return params, fluct, t


def test_mc_matches_noise_occupation_law():
    params, fluct, t = mc_setup()
    ens = monte_carlo_noise(params, fluct, t, n_trials=800, seed=3)
    expected = dipole_noise_occupation(params, fluct, t)
    probe = slice(40, None, 120)
    pulls = np.abs(ens.mean_occupation[probe] - expected[probe]) / ens.stderr_occupation[probe]
    assert np.max(pulls) < 5.0


def sample_fluctuation(model, times, seed) -> TimeSeries:
    """One realization of the discretized white noise: independent N(0, delta/dt) samples.

    The draws of trial k of the Monte-Carlo oracle with seed [seed, k];
    identical seeds give identical series.
    """
    times = np.asarray(times, dtype=float)
    rng = np.random.default_rng(seed)
    return TimeSeries(times=times, values=rng.normal(0.0, noise_std(model, times), times.size))


def per_step_reference(params, fluct, t, tau, n_trials, seed):
    """Mean and standard error of the Monte-Carlo statistics from a plain per-step loop.

    Each trial's noise comes from sample_fluctuation with the seed [seed, k];
    the states advance one step at a time, z -> r z + gain x, for all trials
    at once.  Returns (occupation, two-time) pairs of (mean, stderr), the
    two-time pair None without a tau grid.
    """
    h = t[1] - t[0]
    lags = np.rint(np.asarray([] if tau is None else tau) / h).astype(int)
    n_steps = t.size - 1 + lags.max(initial=0)
    step_times = h * np.arange(n_steps + 1)
    r, c0, cm, c1 = _rk4_transfer(-(1j * params.omega_q + params.kappa), h)
    gain = params.g_q * (c0 + cm + c1)
    noise = np.array([sample_fluctuation(fluct, step_times, seed=[seed, k]).values
                      for k in range(n_trials)])
    z = np.zeros((n_trials, n_steps + 1), dtype=complex)
    for j in range(n_steps):
        z[:, j + 1] = r * z[:, j] + gain * noise[:, j]

    def stats(samples):
        return samples.mean(axis=0), samples.std(axis=0) / np.sqrt(n_trials)

    occupation = stats(np.abs(z[:, :t.size]) ** 2)
    if tau is None:
        return occupation, None
    return occupation, stats(np.conj(z[:, [t.size - 1]]) * z[:, t.size - 1 + lags])


def assert_matches_reference(ens, reference, picks=slice(None)):
    (occ_mean, occ_stderr), two_time = reference
    np.testing.assert_allclose(ens.mean_occupation, occ_mean[picks], rtol=1e-12)
    np.testing.assert_allclose(ens.stderr_occupation, occ_stderr[picks], rtol=1e-12)
    if two_time is None:
        assert ens.mean_two_time is None and ens.stderr_two_time is None
    else:
        np.testing.assert_allclose(ens.mean_two_time, two_time[0], rtol=1e-12)
        np.testing.assert_allclose(ens.stderr_two_time, two_time[1], rtol=1e-12)


def test_mc_is_deterministic_and_chunk_independent():
    # one full chunk of trials and a partial one, against a per-step reference
    params, fluct, t = mc_setup()
    tau = np.arange(0.0, 20.0 + 0.025, 2.0)
    n_trials, seed = 512 + 17, 11
    ens = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=seed)
    assert_matches_reference(ens, per_step_reference(params, fluct, t, tau, n_trials, seed))

    again = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=seed)
    assert np.array_equal(ens.mean_occupation, again.mean_occupation)
    assert np.array_equal(ens.mean_two_time, again.mean_two_time)
    other = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials,
                              seed=seed + 1)
    assert not np.array_equal(ens.mean_occupation, other.mean_occupation)


# (n_t, tau lags in steps, trials, picks).  The last state of the walk is
# always the largest lag.  With 256-step slabs of 16-step blocks, n_t = 257
# puts t_ref on the last state of the first slab and n_t = 258 on the first of
# the second; the 4395-step walk covers two 2048-step draw tiles and part of a
# third.  State s >= 1 is the (s - 1) % 16-th of its block: states 1 and 16
# open and close the first block, 17 opens the second, 256 closes the first
# slab and 257 opens the second; state 2048 closes the first draw tile.
@pytest.mark.parametrize("n_t, lags, n_trials, picks", [
    (1000, [0, 3, 3, 0, 517], 512 + 3, None),
    (4000, [0, 5, 396], 24, None),
    (257, [0, 1, 300], 40, None),
    (258, [0, 256, 255], 40, None),
    (300, None, 40, None),
    (2, [0], 5, None),
    (2, [0, 2], 5, None),
    (1000, [0, 3, 517], 512 + 3, [0, 1, 16, 17, 256, 257, 600, 999]),
    (4000, None, 24, [0, 2047, 2048, 2049, 3999]),
    (258, [0, 256, 255], 40, [257]),
    (300, [0, 40], 40, [150]),
    (300, None, 40, [0]),
], ids=["ragged-duplicate-lags-partial-chunk", "spans-draw-tiles", "ref-ends-slab",
        "ref-starts-slab", "no-tau", "one-step", "three-steps",
        "picks-block-and-slab-edges-partial-chunk", "picks-across-draw-tiles",
        "picks-t-ref-only", "single-pick", "vacuum-pick-only"])
def test_mc_slab_recursion_matches_per_step_loop(n_t, lags, n_trials, picks):
    assert _MC_BLOCK * _MC_SLAB_BLOCKS == 256
    assert _MC_TILE_SLABS * 256 == 2048
    params, fluct, _ = mc_setup()
    h = 0.05
    t = h * np.arange(n_t)
    tau = None if lags is None else h * np.array(lags, dtype=float)
    ens = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=4,
                            picks=picks)
    picked = slice(None) if picks is None else np.array(picks)
    assert np.array_equal(ens.times, t[picked])
    assert_matches_reference(ens, per_step_reference(params, fluct, t, tau, n_trials, 4),
                             picked)


def test_mc_forms_only_the_blocks_that_are_read():
    # verify's ensemble: 20 picks on 10 001 points and 151 snapshots 10 steps
    # apart from t_ref, an 11 500-step walk of 719 blocks
    n_t = 10_001
    picks = np.unique(np.linspace(1, n_t - 1, 20).astype(int))
    snaps = n_t - 1 + np.concatenate([[0], 10 * np.arange(151)])
    reads = oracle._slab_reads(picks, snaps, 256, 2048)
    assert sum(k for _, k, *_ in reads.values()) == 114
    assert sum(k_occ for _, _, k_occ, *_ in reads.values()) == 20
    every = oracle._slab_reads(np.arange(n_t), snaps, 256, 2048)
    assert sum(k for _, k, *_ in every.values()) == 719


def test_mc_picks_none_is_every_point():
    params, fluct, _ = mc_setup()
    t = 0.05 * np.arange(700)
    tau = 0.05 * np.array([0.0, 30.0, 300.0])
    every = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=6)
    picked = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=6,
                               picks=np.arange(t.size))
    assert np.array_equal(every.times, picked.times)
    for a, b in zip(ensemble_arrays(every), ensemble_arrays(picked)):
        assert np.array_equal(a, b)


def ensemble_arrays(ens):
    return (ens.mean_occupation, ens.stderr_occupation, ens.mean_two_time, ens.stderr_two_time)


def test_mc_is_independent_of_the_draw_tile(monkeypatch):
    # 4999 + 700 steps: three 2048-step tiles by default, 23 one-slab tiles
    params, fluct, _ = mc_setup()
    t = 0.05 * np.arange(5000)
    tau = 0.05 * np.array([0.0, 1.0, 700.0])
    default = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=8)
    monkeypatch.setattr(oracle, "_MC_TILE_SLABS", 1)
    one_slab = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=8)
    for a, b in zip(ensemble_arrays(default), ensemble_arrays(one_slab)):
        assert np.array_equal(a, b)


def test_mc_memory_does_not_grow_with_the_walk():
    # a whole-walk draw buffer alone would hold 40 x 100k floats, 32 MB
    params, fluct, _ = mc_setup()
    t = 0.05 * np.arange(100_001)
    tracemalloc.start()
    try:
        monte_carlo_noise(params, fluct, t, n_trials=40, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_mc_memory_with_picks_does_not_grow_with_the_walk():
    # Beyond the transient step grid that sigma is measured on, which
    # noise_std holds for a moment, nothing grows with the walk: at 200k steps
    # the per-step sums alone would take 3.2 MB.
    params, fluct, t = mc_setup()
    monte_carlo_noise(params, fluct, t, n_trials=4, seed=2, picks=[1])  # first-call caches
    excess = []
    for n_t in (20_001, 200_001):
        t = 0.05 * np.arange(n_t)
        picks = np.unique(np.linspace(1, n_t - 1, 20).astype(int))
        tracemalloc.start()
        try:
            noise_std(fluct, t[0] + 0.05 * np.arange(n_t))
            grid = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ens = monte_carlo_noise(params, fluct, t, n_trials=8, seed=2, picks=picks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.times.size == picks.size
        excess.append(peak - grid)
    assert max(excess) < 1.5e6


def test_mc_is_independent_of_blas_threads():
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from leaky_cavity.cavity import CavityParams\n"
        "from leaky_cavity.dipole import FluctuationModel\n"
        "from leaky_cavity.oracle import monte_carlo_noise\n"
        "t = np.arange(0.0, 60.0 + 0.025, 0.05)\n"
        "ens = monte_carlo_noise(CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1),\n"
        "                        FluctuationModel(0.2), t, tau_grid=np.arange(0.0, 20.01, 0.5),\n"
        "                        n_trials=600, seed=9)\n"
        "arrays = (ens.mean_occupation, ens.stderr_occupation, ens.mean_two_time,\n"
        "          ens.stderr_two_time)\n"
        "print(hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_mc_two_time_decay():
    params, fluct, t = mc_setup()
    tau = np.arange(0.0, 20.0 + 0.025, 2.0)
    ens = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=1200, seed=5)
    assert ens.reference_time == t[-1]
    c_delta = fluct.delta * params.g_q ** 2 / (2.0 * params.kappa)
    expected = c_delta * np.exp(-(1j * params.omega_q + params.kappa) * tau)
    pulls = np.abs(ens.mean_two_time - expected) / ens.stderr_two_time
    assert np.max(pulls) < 5.0


def test_mc_error_contracts():
    params, fluct, t = mc_setup()
    with pytest.raises(ValueError, match="start at 0"):
        monte_carlo_noise(params, fluct, t + 1.0, n_trials=4)
    with pytest.raises(ValueError, match="multiples"):
        monte_carlo_noise(params, fluct, t, tau_grid=[0.0, 0.07], n_trials=4)
    with pytest.raises(ValueError, match="step too large"):
        monte_carlo_noise(params, fluct, np.arange(0.0, 10.0, 0.5), n_trials=4)
    bad_picks = {"out of range": [0, t.size], "negative": [-1, 3], "unsorted": [5, 2],
                 "duplicated": [2, 2, 7], "non-integer": [1.0, 2.0], "empty": [],
                 "two-dimensional": [[1, 2]]}
    for picks in bad_picks.values():
        with pytest.raises(ValueError, match="picks"):
            monte_carlo_noise(params, fluct, t, n_trials=4, picks=picks)


def test_bath_discretization_bookkeeping():
    bath = BathDiscretization.for_damping(kappa=0.05, center=1.0, n_modes=401,
                                          half_width=2.0)
    assert bath.spacing == pytest.approx(0.01)
    assert bath.kappa_effective == pytest.approx(0.05)
    assert bath.recurrence_time == pytest.approx(2.0 * np.pi / 0.01)
    freqs = bath.frequencies()
    assert freqs[0] == pytest.approx(-1.0)
    assert freqs[-1] == pytest.approx(3.0)
    with pytest.raises(ValueError):
        BathDiscretization(n_modes=1, center=0.0, half_width=1.0, g0=0.1)
    with pytest.raises(ValueError):
        BathDiscretization(n_modes=10, center=0.0, half_width=-1.0, g0=0.1)


def test_continuum_pole_limits():
    kappa = 0.05
    narrow = BathDiscretization.for_damping(kappa, 1.0, 401, 40 * kappa)
    rate, residue = continuum_pole(narrow)
    assert rate > kappa
    assert residue > 1.0
    wide = BathDiscretization.for_damping(kappa, 1.0, 401, 4000 * kappa)
    rate_wide, residue_wide = continuum_pole(wide)
    assert abs(rate_wide - kappa) < abs(rate - kappa) / 50
    assert abs(residue_wide - 1.0) < abs(residue - 1.0) / 50


def test_discrete_bath_follows_pole_model():
    kappa = 0.05
    params = CavityParams(omega_q=1.0, g_q=0.1, kappa=kappa)
    bath = BathDiscretization.for_damping(kappa, params.omega_q, 401, 40 * kappa)
    t = np.linspace(0.0, 5.0 / kappa, 128)
    result = discrete_bath_decay(bath, params, t)
    assert result.norm_error < 1e-8
    assert result.series.values[0] == pytest.approx(1.0)
    rate, residue = continuum_pole(bath)
    target = residue * np.exp(-rate * t)
    assert np.max(np.abs(np.abs(result.series.values) - target)) < 0.05


@pytest.mark.parametrize("bath, omega_q", [
    (BathDiscretization.for_damping(0.05, 1.0, 1000, 2.0), 1.0),
    (BathDiscretization.for_damping(0.05, 1.0, 2000, 2.0), 1.0),
    (BathDiscretization.for_damping(0.05, 1.0, 2001, 2.0), 1.0),
    (BathDiscretization(n_modes=1500, center=1.0, half_width=2.0, g0=1e-4), 1.0),
    (BathDiscretization.for_damping(0.05, 1.0, 1200, 2.0), 1.7),
    (BathDiscretization(n_modes=400, center=1.0, half_width=2.0, g0=12.5 * 4.0 / 399), 1.0),
    (BathDiscretization.for_damping(0.05, 1.0, 800, 2.0), 3.5),
], ids=["markov-1000", "markov-2000", "odd-2001-on-mode", "weak-coupling", "off-centre",
        "strong-coupling", "above-band"])
def test_bath_matches_dense_eigh(bath, omega_q):
    h = np.diag(np.concatenate([[omega_q], bath.frequencies()]))
    h[0, 1:] = bath.g0
    h[1:, 0] = bath.g0
    evals, evecs = np.linalg.eigh(h)
    weights = evecs[0] ** 2
    t = np.linspace(0.0, 100.0, 256)
    reference = (np.exp(-1j * np.outer(t, evals)) * weights).sum(axis=1)

    got_evals, got_weights = _arrowhead_spectrum(bath, omega_q)
    assert got_evals == pytest.approx(evals, abs=1e-12)
    assert got_weights == pytest.approx(weights, abs=1e-12)
    result = discrete_bath_decay(bath, CavityParams(omega_q=omega_q, g_q=0.1, kappa=0.05), t)
    assert np.max(np.abs(result.series.values - reference)) <= 1e-12
    assert result.norm_error <= 1e-12


def test_bath_sum_in_row_blocks_is_bit_equal_to_one_shot():
    bath = BathDiscretization.for_damping(0.05, 1.0, 2000, 2.0)
    params = CavityParams(omega_q=1.0, g_q=0.1, kappa=0.05)
    t = np.linspace(0.0, 100.0, 301)
    assert t.size > 2 * (_PHASE_BLOCK_ELEMENTS // (bath.n_modes + 1))  # three blocks or more
    evals, weights = _arrowhead_spectrum(bath, params.omega_q)
    one_shot = (np.exp(-1j * np.outer(t, evals)) * weights).sum(axis=1)
    assert np.array_equal(discrete_bath_decay(bath, params, t).series.values, one_shot)


def test_uncoupled_bath_leaves_the_cavity_oscillating():
    bath = BathDiscretization(n_modes=100, center=1.0, half_width=2.0, g0=0.0)
    params = CavityParams(omega_q=1.3, g_q=0.1, kappa=0.05)
    t = np.linspace(0.0, 50.0, 64)
    result = discrete_bath_decay(bath, params, t)
    assert result.series.values == pytest.approx(np.exp(-1j * params.omega_q * t), abs=1e-15)
    assert result.norm_error == 0.0


def test_digamma_matches_scipy():
    from scipy.special import polygamma, psi

    z = np.concatenate([np.linspace(0.5, 30.0, 2001), [4000.5, 1e5]])
    digamma, trigamma = _digamma(z)
    assert digamma == pytest.approx(psi(z), rel=1e-15, abs=2e-15)
    assert trigamma == pytest.approx(polygamma(1, z), rel=2e-15)


def test_discrete_bath_rejects_recurrence_horizon():
    bath = BathDiscretization.for_damping(0.05, 1.0, 101, 2.0)
    params = CavityParams(omega_q=1.0, g_q=0.1, kappa=0.05)
    too_long = np.linspace(0.0, 1.1 * bath.recurrence_time, 64)
    with pytest.raises(ValueError, match="recurrence"):
        discrete_bath_decay(bath, params, too_long)
