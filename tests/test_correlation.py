from dataclasses import replace

import numpy as np
import pytest

from leaky_cavity import cavity, correlation
from leaky_cavity.cavity import CavityParams, line_amplitudes, mode_amplitude, noise_saturation, \
    occupation, occupation_longtime
from leaky_cavity.correlation import (
    CONVENTIONS,
    CorrelationSeries,
    stationary_correlation,
    two_time_correlation,
)
from leaky_cavity.dipole import DipoleSpectrum, DriveParams, FluctuationModel, phase_table
from leaky_cavity.oracle import amplitude_ode_step, integrate_amplitude_ode
from leaky_cavity.verification import _random_scenario


def comb_case():
    drive = DriveParams(omega=1.0, n_max=5)
    spec = DipoleSpectrum(drive=drive,
                          coeffs=[0.0, 0.9, 0.0, 0.4 * np.exp(0.7j), 0.0, 0.15])
    params = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1)
    return params, spec, FluctuationModel(0.2)


def test_coefficients_resonant_line():
    drive = DriveParams(omega=1.0, n_max=1)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.7j])
    params = CavityParams(omega_q=1.0, g_q=0.05, kappa=0.1)
    assert line_amplitudes(params, spec)[1] == pytest.approx(params.g_q * 0.7j / params.kappa)
    assert noise_saturation(params, FluctuationModel(0.4)) == pytest.approx(
        0.4 * params.g_q ** 2 / (2 * params.kappa))


def test_vacuum_reference_time_gives_zero():
    params, spec, fluct = comb_case()
    tau = np.linspace(0.0, 40.0, 200)
    for convention in CONVENTIONS:
        series = two_time_correlation(params, spec, fluct, 0.0, tau, convention)
        assert np.max(np.abs(series.values)) == 0.0


def test_tau_zero_matches_occupation_only_in_consistent_convention():
    params, spec, fluct = comb_case()
    t = 12.3
    occ = occupation(params, spec, fluct, t)
    consistent = two_time_correlation(params, spec, fluct, t, [0.0],
                                      "tau-zero-consistent")
    written = two_time_correlation(params, spec, fluct, t, [0.0], "as-written")
    assert consistent.values[0].real == pytest.approx(float(occ.total[0]), rel=1e-12)
    assert abs(consistent.values[0].imag) < 1e-15
    # the published form counts the noise occupation twice at tau = 0
    assert written.values[0].real == pytest.approx(
        float(occ.coherent[0] + 2.0 * occ.noise[0]), rel=1e-12)


def test_stationary_tau_zero_matches_longtime_occupation():
    params, spec, fluct = comb_case()
    series = stationary_correlation(params, spec, fluct, [0.0], "tau-zero-consistent")
    assert series.values[0].real == pytest.approx(
        occupation_longtime(params, spec, fluct), rel=1e-12)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_two_time_approaches_stationary(convention):
    # pointwise the finite-t correlator keeps oscillating N != M cross terms;
    # averaging the reference time over one drive period removes them and
    # leaves exactly the stationary form.
    params, spec, fluct = comb_case()
    tau = np.linspace(0.0, 30.0, 301)
    t0 = 40.0 / params.kappa
    t_samples = t0 + np.linspace(0.0, spec.drive.period, 65)
    stack = np.stack([
        two_time_correlation(params, spec, fluct, t, tau, convention).values
        for t in t_samples
    ])
    averaged = np.trapezoid(stack, t_samples, axis=0) / spec.drive.period
    limit = stationary_correlation(params, spec, fluct, tau, convention)
    scale = np.max(np.abs(limit.values))
    assert np.max(np.abs(averaged - limit.values)) / scale < 1e-9


def test_two_time_correlation_matches_ode_oracle():
    # With delta = 0 the driven cavity stays in a coherent state, so the
    # correlator factorizes into conj(alpha(t)) alpha(t + tau) of the RK4
    # oracle.  Scenarios are drawn like criterion 1's, with kappa in
    # [0.1, 1] so that kappa t <= 3 and kappa tau <= 3 stay within ~1e5 steps.
    rng = np.random.default_rng(21)
    for _ in range(4):
        params, spec = _random_scenario(rng)
        params = replace(params, kappa=float(10.0 ** rng.uniform(-1, 0)))
        h = amplitude_ode_step(params, spec)
        ref = int(rng.uniform(0.5, 3.0) / params.kappa / h)
        grid = h * np.arange(ref + int(3.0 / params.kappa / h) + 1)
        alpha = integrate_amplitude_ode(params, spec, grid).values
        lags = np.arange(0, grid.size - ref, 37)
        series = two_time_correlation(params, spec, FluctuationModel(0.0), grid[ref],
                                      grid[ref + lags] - grid[ref], "tau-zero-consistent")
        expected = np.conj(alpha[ref]) * alpha[ref + lags]
        assert np.max(np.abs(series.values - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_stationary_noise_only():
    params = CavityParams(omega_q=2.0, g_q=0.3, kappa=0.1)
    spec = DipoleSpectrum(drive=DriveParams(1.0, 1), coeffs=[0.0, 0.0])
    fluct = FluctuationModel(0.5)
    tau = np.linspace(0.0, 50.0, 400)
    c_delta = fluct.delta * params.g_q ** 2 / (2 * params.kappa)
    for convention, s in (("as-written", 2.0), ("tau-zero-consistent", 1.0)):
        series = stationary_correlation(params, spec, fluct, tau, convention)
        expected = s * c_delta * np.exp(-(1j * params.omega_q + params.kappa) * tau)
        assert np.allclose(series.values, expected, rtol=1e-12, atol=1e-15)


def test_stationary_coherent_part_has_constant_modulus():
    drive = DriveParams(omega=1.0, n_max=1)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 1.0])
    params = CavityParams(omega_q=1.0, g_q=0.05, kappa=0.1)
    tau = np.linspace(0.0, 100.0, 500)
    series = stationary_correlation(params, spec, FluctuationModel(0.0), tau,
                                    "tau-zero-consistent")
    mods = np.abs(series.values)
    assert np.allclose(mods, mods[0], rtol=1e-12)
    # elastic line: phase advances at the drive frequency
    assert np.allclose(series.values, mods[0] * np.exp(-1j * drive.omega * tau))


def test_error_contracts():
    params, spec, fluct = comb_case()
    with pytest.raises(ValueError, match="convention"):
        stationary_correlation(params, spec, fluct, [0.0], "halved")
    with pytest.raises(ValueError, match="nonnegative"):
        stationary_correlation(params, spec, fluct, [-1.0], "as-written")
    with pytest.raises(ValueError, match="t must be nonnegative"):
        two_time_correlation(params, spec, fluct, -1.0, [0.0], "as-written")
    with pytest.raises(ValueError, match="equal length"):
        CorrelationSeries(tau=[0.0, 1.0], values=[1.0], convention="as-written")


def test_stationary_flag():
    params, spec, fluct = comb_case()
    tau = np.array([0.0, 1.0])
    assert stationary_correlation(params, spec, fluct, tau, "as-written").stationary
    finite = two_time_correlation(params, spec, fluct, 3.0, tau, "as-written")
    assert not finite.stationary
    assert finite.t == 3.0


def _correlators(params, spec, fluct, tau):
    """Bytes of both correlators at one cavity and lag grid, t = 7 for the finite-time one."""
    conv = "tau-zero-consistent"
    return (two_time_correlation(params, spec, fluct, 7.0, tau, conv).values.tobytes(),
            stationary_correlation(params, spec, fluct, tau, conv).values.tobytes())


def test_correlators_are_byte_equal_with_warm_and_cold_cache():
    params, spec, fluct = comb_case()
    tau = np.linspace(0.0, 80.0, 1601)
    for call in (lambda: two_time_correlation(params, spec, fluct, 7.0, tau, "as-written"),
                 lambda: stationary_correlation(params, spec, fluct, tau, "as-written")):
        correlation._comb_phases.cache_clear()
        cold = call().values.tobytes()
        assert call().values.tobytes() == cold
        assert correlation._comb_phases.cache_info().hits == 1


def test_comb_cache_follows_arrays_changed_in_place():
    params, spec, fluct = comb_case()
    tau = np.linspace(0.0, 80.0, 1601)
    _correlators(params, spec, fluct, tau)
    tau *= 0.5
    lines = phase_table(tau, -spec.harmonics()) @ np.abs(line_amplitudes(params, spec)) ** 2
    want = lines + noise_saturation(params, fluct) * np.exp(
        -(1j * params.omega_q + params.kappa) * tau)  # the tau-zero-consistent weight is 1
    assert _correlators(params, spec, fluct, tau)[1] == want.tobytes()


@pytest.mark.parametrize("coeffs, omega", [
    ([0.0, 0.9, 0.0, 0.4 * np.exp(0.7j), 0.0, 0.16], 1.0),
    ([0.0, 0.9, 0.0, 0.4 * np.exp(0.7j), 0.0, 0.15], 1.1),
], ids=["coeffs", "omega"])
def test_comb_cache_never_shared_between_spectra(coeffs, omega):
    params, spec, fluct = comb_case()
    other = DipoleSpectrum(drive=DriveParams(omega=omega, n_max=spec.drive.n_max), coeffs=coeffs)
    tau = np.linspace(0.0, 80.0, 1601)
    correlation._comb_phases.cache_clear()
    cold = _correlators(params, other, fluct, tau)
    _correlators(params, spec, fluct, tau)
    assert _correlators(params, other, fluct, tau) == cold
    assert _correlators(params, spec, fluct, tau) != cold


def test_cached_comb_table_is_read_only():
    params, spec, fluct = comb_case()
    tau = np.linspace(0.0, 80.0, 1601)
    stationary_correlation(params, spec, fluct, tau, "as-written")
    table = correlation._comb_phases(tau.tobytes(), spec.harmonics().tobytes())
    assert correlation._comb_phases.cache_info().hits >= 1
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_detuning_scan_builds_each_phase_table_once(monkeypatch):
    rows = {cavity: 0, correlation: 0}
    for module in rows:
        def counting(t, freqs, module=module, build=module.phase_table):
            rows[module] += np.size(t)
            return build(t, freqs)
        monkeypatch.setattr(module, "phase_table", counting)
    _, spec, fluct = comb_case()
    t = np.linspace(0.0, 60.0, 1201)
    tau = np.linspace(0.0, 80.0, 1601)
    points = [CavityParams(omega_q=w, g_q=0.05, kappa=0.1) for w in (1.0, 2.0, 3.0)]
    # the sweep's order, then the scalar-t amplitude of the two-time between the
    # grid's occupation and amplitude
    for order in (("occupation", "amplitude", "two-time", "stationary"),
                  ("occupation", "two-time", "amplitude", "stationary")):
        rows.update({cavity: 0, correlation: 0})
        cavity._response_sum.cache_clear()
        correlation._comb_phases.cache_clear()
        for params in points:
            calls = {
                "occupation": lambda: occupation(params, spec, fluct, t),
                "amplitude": lambda: mode_amplitude(params, spec, t),
                "two-time": lambda: two_time_correlation(params, spec, fluct, float(t[-1]),
                                                         tau, "as-written"),
                "stationary": lambda: stationary_correlation(params, spec, fluct, tau,
                                                             "as-written"),
            }
            for name in order:
                calls[name]()
        assert rows[correlation] == tau.size, order
        # + the scalar-t amplitude of each two-time, which leaves the grid's response cached
        assert rows[cavity] == len(points) * (t.size + 1), order
