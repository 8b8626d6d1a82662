import numpy as np
import pytest

from leaky_cavity.cavity import CavityParams, dipole_noise_occupation, mode_amplitude
from leaky_cavity.cli import default_scenario_path
from leaky_cavity.dipole import DipoleSpectrum, DriveParams, FluctuationModel, \
    sample_fluctuation
from leaky_cavity.oracle import (
    BathDiscretization,
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


def test_mc_is_deterministic_and_chunk_independent():
    # one full chunk of trials and a partial one, against a per-trial reference
    params, fluct, t = mc_setup()
    tau = np.arange(0.0, 20.0 + 0.025, 2.0)
    n_trials, seed = 512 + 17, 11
    ens = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=seed)

    h = t[1] - t[0]
    lags = np.rint(tau / h).astype(int)
    n_steps = t.size - 1 + lags.max()
    step_times = h * np.arange(n_steps + 1)
    r, c0, cm, c1 = _rk4_transfer(-(1j * params.omega_q + params.kappa), h)
    gain = params.g_q * (c0 + cm + c1)
    z = np.zeros((n_trials, n_steps + 1), dtype=complex)
    for k in range(n_trials):
        noise = sample_fluctuation(fluct, step_times, seed=[seed, k]).values
        for j in range(n_steps):
            z[k, j + 1] = r * z[k, j] + gain * noise[j]
    occupation = np.abs(z[:, :t.size]) ** 2
    two_time = np.conj(z[:, [t.size - 1]]) * z[:, t.size - 1 + lags]
    for got_mean, got_stderr, samples in (
            (ens.mean_occupation, ens.stderr_occupation, occupation),
            (ens.mean_two_time, ens.stderr_two_time, two_time)):
        np.testing.assert_allclose(got_mean, samples.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(got_stderr, samples.std(axis=0) / np.sqrt(n_trials),
                                   rtol=1e-12)

    again = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=seed)
    assert np.array_equal(ens.mean_occupation, again.mean_occupation)
    assert np.array_equal(ens.mean_two_time, again.mean_two_time)
    other = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials,
                              seed=seed + 1)
    assert not np.array_equal(ens.mean_occupation, other.mean_occupation)


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


def test_discrete_bath_rejects_recurrence_horizon():
    bath = BathDiscretization.for_damping(0.05, 1.0, 101, 2.0)
    params = CavityParams(omega_q=1.0, g_q=0.1, kappa=0.05)
    too_long = np.linspace(0.0, 1.1 * bath.recurrence_time, 64)
    with pytest.raises(ValueError, match="recurrence"):
        discrete_bath_decay(bath, params, too_long)
