from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from leaky_cavity import cavity, correlation, dipole
from leaky_cavity.cavity import CavityParams, line_amplitudes, mode_amplitude, noise_saturation, \
    occupation, occupation_longtime
from leaky_cavity.correlation import (
    CONVENTIONS,
    CorrelationSeries,
    stationary_correlation,
    two_time_correlation,
)
from leaky_cavity.dipole import DipoleSpectrum, DriveParams, FluctuationModel, _clear_tables, \
    phase_table
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
    for lag in (np.nan, np.inf):  # inf raised numpy's "invalid value" RuntimeWarning
        with pytest.raises(ValueError, match="tau must be finite"):
            stationary_correlation(params, spec, fluct, [0.0, lag], "as-written")
        with pytest.raises(ValueError, match="tau must be finite"):
            two_time_correlation(params, spec, fluct, 1.0, [0.0, lag], "as-written")
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


def _response_forms(params, spec, fluct, t):
    """Bytes of the occupation and the amplitude on one time grid, which share one response sum."""
    return (occupation(params, spec, fluct, t).total.tobytes(),
            mode_amplitude(params, spec, t).tobytes())


class Kept(NamedTuple):
    memo: object  # a _last_table memo
    args: object  # its arguments at (params, spec, grid)
    outputs: object  # bytes of the closed forms that read its table at (params, spec, fluct, grid)


KEPT = {
    "response": Kept(cavity._response_sum,
                     lambda params, spec, grid: (params, spec.harmonics(), spec.coeffs, grid),
                     _response_forms),
    "comb": Kept(correlation._comb_phases, lambda params, spec, grid: (grid, spec.harmonics()),
                 _correlators),
}
each_kept_table = pytest.mark.parametrize("kept", KEPT.values(), ids=KEPT.keys())


def _count_builds(monkeypatch, memo) -> list:
    """The arguments of each table that ``memo`` builds from now on."""
    builds, build = [], memo.__wrapped__
    monkeypatch.setattr(memo, "__wrapped__", lambda *args: builds.append(args) or build(*args))
    return builds


@each_kept_table
def test_closed_forms_are_byte_equal_with_a_warm_and_a_cold_table(kept, monkeypatch):
    params, spec, fluct = comb_case()
    grid = np.linspace(0.0, 80.0, 1601)
    builds = _count_builds(monkeypatch, kept.memo)
    _clear_tables()
    cold = kept.outputs(params, spec, fluct, grid)
    assert len(builds) == 1  # the closed forms that read the table share one build
    assert kept.outputs(params, spec, fluct, grid) == cold
    assert len(builds) == 1
    _clear_tables()
    assert kept.outputs(params, spec, fluct, grid) == cold
    args = kept.args(params, spec, grid)
    assert kept.memo(*args).tobytes() == kept.memo.__wrapped__(*args).tobytes()


@each_kept_table
def test_kept_table_is_read_only(kept, monkeypatch):
    params, spec, fluct = comb_case()
    grid = np.linspace(0.0, 80.0, 1601)
    kept.outputs(params, spec, fluct, grid)
    builds = _count_builds(monkeypatch, kept.memo)
    table = kept.memo(*kept.args(params, spec, grid))
    assert builds == []  # the very table the closed forms read
    with pytest.raises(ValueError):
        table[0] = 0.0


@each_kept_table
def test_kept_table_follows_arrays_changed_in_place(kept):
    params, spec, fluct = comb_case()
    grid = np.linspace(0.0, 80.0, 1601)
    _clear_tables()
    kept.outputs(params, spec, fluct, grid)
    grid *= 0.5
    warm = kept.outputs(params, spec, fluct, grid)
    _clear_tables()
    assert warm == kept.outputs(params, spec, fluct, grid)


@pytest.mark.parametrize("coeffs, omega", [
    ([0.0, 0.9, 0.0, 0.4 * np.exp(0.7j), 0.0, 0.16], 1.0),
    ([0.0, 0.9, 0.0, 0.4 * np.exp(0.7j), 0.0, 0.15], 1.1),
], ids=["coeffs", "omega"])
@each_kept_table
def test_kept_table_never_shared_between_spectra(kept, coeffs, omega):
    params, spec, fluct = comb_case()
    other = DipoleSpectrum(drive=DriveParams(omega=omega, n_max=spec.drive.n_max), coeffs=coeffs)
    grid = np.linspace(0.0, 80.0, 1601)
    _clear_tables()
    cold = kept.outputs(params, other, fluct, grid)
    kept.outputs(params, spec, fluct, grid)
    assert kept.outputs(params, other, fluct, grid) == cold
    assert kept.outputs(params, spec, fluct, grid) != cold


def test_decay_cache_follows_the_cavity_and_the_lag_grid():
    params, spec, fluct = comb_case()
    tau = np.linspace(0.0, 80.0, 1601)
    cases = [(params, tau), (CavityParams(omega_q=params.omega_q, g_q=params.g_q,
                                          kappa=2 * params.kappa), tau),
             (CavityParams(omega_q=2 * params.omega_q, g_q=params.g_q, kappa=params.kappa),
              tau), (params, 0.5 * tau)]
    cold = []
    for cavity_params, lags in cases:
        _clear_tables()
        cold.append(_correlators(cavity_params, spec, fluct, lags))
    assert [_correlators(p, spec, fluct, lags) for p, lags in cases] == cold
    assert len(set(cold)) == len(cases)


def test_clear_tables_empties_every_memo(monkeypatch):
    params, spec, _ = comb_case()
    grid = np.linspace(0.0, 80.0, 1601)
    assert len(dipole._MEMOS) == len(KEPT)
    builds = {name: _count_builds(monkeypatch, kept.memo) for name, kept in KEPT.items()}
    for kept in KEPT.values():
        kept.memo(*kept.args(params, spec, grid))
    _clear_tables()
    assert all(cell == [None, None] for cell in dipole._MEMOS)
    for calls in builds.values():
        calls.clear()
    for kept in KEPT.values():
        kept.memo(*kept.args(params, spec, grid))
    assert {name: len(calls) for name, calls in builds.items()} == dict.fromkeys(KEPT, 1)


def test_detuning_scan_builds_each_phase_table_once(monkeypatch):
    rows = {cavity: 0, correlation: 0}
    for module in rows:
        def counting(t, freqs, module=module, build=module.phase_table):
            if np.size(freqs) > 1:  # a comb or response table, not a one-column phase factor
                rows[module] += np.size(t)
            return build(t, freqs)
        monkeypatch.setattr(module, "phase_table", counting)
    _, spec, fluct = comb_case()
    t = np.linspace(0.0, 60.0, 1201)
    tau = np.linspace(0.0, 80.0, 1601)
    points = [CavityParams(omega_q=w, g_q=0.05, kappa=0.1) for w in (1.0, 2.0, 3.0)]
    # the sweep's order, then the scalar-t amplitude of the two-time between the
    # grid's occupation and amplitude, which evicts the grid's response
    for order, builds in ((("occupation", "amplitude", "two-time", "stationary"), 1),
                          (("occupation", "two-time", "amplitude", "stationary"), 2)):
        rows.update({cavity: 0, correlation: 0})
        _clear_tables()
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
        # + the scalar-t amplitude of each two-time
        assert rows[cavity] == len(points) * (builds * t.size + 1), order
