import numpy as np
import pytest

from leaky_cavity import cavity, correlation, dipole, oracle, spectrum
from leaky_cavity.cavity import (
    CavityParams,
    dipole_noise_occupation,
    kappa_from_coupling,
    line_amplitudes,
    mode_amplitude,
    occupation,
    occupation_longtime,
)
from leaky_cavity.correlation import stationary_correlation, two_time_correlation
from leaky_cavity.dipole import DipoleSpectrum, DriveParams, FluctuationModel, phase_table
from leaky_cavity.oracle import cavity_bath, discrete_bath_decay, integrate_amplitude_ode, \
    monte_carlo_noise


def three_line_case():
    drive = DriveParams(omega=1.0, n_max=3)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.375, 0.2j, 0.125])
    params = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1)
    return params, spec


@pytest.mark.parametrize("g0,c,expected", [
    (1.0, np.pi, 1.0),
    (2.0, np.pi, 4.0),
    (0.5, 1.0, 0.25 * np.pi),
])
def test_kappa_from_coupling(g0, c, expected):
    assert kappa_from_coupling(g0, c) == pytest.approx(expected, abs=1e-12)


def test_kappa_from_coupling_rejects_nonpositive():
    for g0, c in [(0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                  (1.0, np.inf)]:  # NaN returned NaN
        with pytest.raises(ValueError, match="g0 and c must be positive and finite"):
            kappa_from_coupling(g0, c)


def test_params_derive_kappa_from_bath():
    p = CavityParams(omega_q=1.0, g_q=0.1, g0=1.0, c=np.pi)
    assert p.kappa == pytest.approx(1.0, abs=1e-14)


def test_params_reject_inconsistent_kappa():
    with pytest.raises(ValueError, match="inconsistent"):
        CavityParams(omega_q=1.0, g_q=0.1, kappa=0.5, g0=1.0, c=np.pi)


@pytest.mark.parametrize("kappa", [0.0, -0.1])
def test_params_require_damping(kappa):
    # every stationary form (occupation_longtime, the correlators' limits)
    # relies on this: without damping there is no stationary state
    with pytest.raises(ValueError, match="kappa must be positive"):
        CavityParams(omega_q=1.0, g_q=0.1, kappa=kappa)


def test_amplitude_vanishes_at_t0():
    params, spec = three_line_case()
    assert mode_amplitude(params, spec, 0.0) == 0.0


def test_amplitude_resonant_longtime():
    # single resonant line: |<a^dag>| -> g_q |d_1| / kappa
    drive = DriveParams(omega=1.0, n_max=1)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.7])
    params = CavityParams(omega_q=1.0, g_q=0.05, kappa=0.1)
    t = 20.0 / params.kappa
    amp = mode_amplitude(params, spec, t)
    expected = params.g_q * 0.7 / params.kappa * np.exp(1j * params.omega_q * t)
    assert abs(amp - expected) < 1e-8


def test_amplitude_matches_ode_oracle():
    params, spec = three_line_case()
    h = 0.005 / params.omega_q
    t = np.arange(0.0, 30.0, h)
    ode = integrate_amplitude_ode(params, spec, t)
    closed = mode_amplitude(params, spec, t)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(np.conj(ode.values) - closed)) / scale < 1e-8


def test_occupation_zero_at_t0():
    params, spec = three_line_case()
    curve = occupation(params, spec, FluctuationModel(0.2), 0.0)
    assert curve.total[0] == 0.0


def test_noise_occupation_saturates_to_one():
    params = CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)
    spec = DipoleSpectrum(drive=DriveParams(1.0, 1), coeffs=[0.0, 0.0])
    fluct = FluctuationModel(0.2)
    curve = occupation(params, spec, fluct, 30.0 / params.kappa)
    assert curve.total[0] == pytest.approx(1.0, rel=1e-12)


def test_full_mode_occupation_equals_squared_oracle_amplitude():
    params, spec = three_line_case()
    h = 0.005 / params.omega_q
    t = np.arange(0.0, 30.0, h)
    ode = integrate_amplitude_ode(params, spec, t)
    curve = occupation(params, spec, FluctuationModel(0.0), t)
    ref = np.abs(ode.values) ** 2
    assert np.max(np.abs(curve.coherent - ref)) / np.max(ref) < 1e-8


def test_longtime_single_resonant_line():
    drive = DriveParams(omega=1.0, n_max=1)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 1.0])
    params = CavityParams(omega_q=1.0, g_q=0.05, kappa=0.1)
    assert occupation_longtime(params, spec, FluctuationModel(0.0)) == pytest.approx(0.25)


def test_longtime_noise_only():
    spec = DipoleSpectrum(drive=DriveParams(1.0, 1), coeffs=[0.0, 0.0])
    params = CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)
    assert occupation_longtime(params, spec, FluctuationModel(0.2)) == pytest.approx(1.0)


def test_longtime_matches_period_average():
    params, spec = three_line_case()
    fluct = FluctuationModel(0.1)
    t0 = 30.0 / params.kappa
    t = np.linspace(t0, t0 + spec.drive.period, 4001)
    curve = occupation(params, spec, fluct, t)
    average = np.trapezoid(curve.total, t) / spec.drive.period
    assert average == pytest.approx(occupation_longtime(params, spec, fluct), rel=1e-3)


@pytest.mark.parametrize("coeffs, omega_q, kappa", [
    ([0.0, 0.375, 0.0, 0.125], 3.0, 0.25),
    ([0.3, 0.375, 0.2j, 0.125], 2.5, 0.2),
], ids=["shipped-comb", "dc-line"])
def test_coherent_power_is_the_oracle_period_mean(coeffs, omega_q, kappa):
    # the ODE oracle on whole drive periods, each step at most the oracle's, past kappa t = 30:
    # its last period's mean of |alpha|^2 is the power of the lines
    spec = DipoleSpectrum(drive=DriveParams(omega=1.0, n_max=3), coeffs=coeffs)
    params = CavityParams(omega_q=omega_q, g_q=0.05, kappa=kappa)
    period = spec.drive.period
    steps = int(np.ceil(period / oracle.amplitude_ode_step(params, spec)))
    periods = int(np.ceil(30.0 / (kappa * period))) + 1
    ode = integrate_amplitude_ode(params, spec, np.arange(periods * steps + 1) * (period / steps))
    mean = np.mean(np.abs(ode.values[-steps:]) ** 2)
    no_noise = FluctuationModel(0.0)
    assert mean == pytest.approx(spectrum.integrated_power(params, spec, no_noise).p_coherent,
                                 rel=1e-8)
    assert mean == pytest.approx(occupation_longtime(params, spec, no_noise), rel=1e-8)


def test_noise_occupation_half_life_value():
    params = CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)
    fluct = FluctuationModel(0.2)
    t = 10.0 * np.log(2.0)  # 1 - e^{-2 kappa t} = 3/4
    assert dipole_noise_occupation(params, fluct, t) == pytest.approx(0.75)
    assert dipole_noise_occupation(params, fluct, 0.0) == 0.0


def test_noise_occupation_monotone_and_bounded():
    params = CavityParams(omega_q=2.0, g_q=0.3, kappa=0.07)
    fluct = FluctuationModel(0.4)
    t = np.linspace(0.0, 200.0, 500)
    vals = dipole_noise_occupation(params, fluct, t)
    bound = fluct.delta * params.g_q ** 2 / (2.0 * params.kappa)
    assert np.all(np.diff(vals) >= 0)
    assert np.all(vals <= bound + 1e-15)


def test_occupation_positive_for_random_parameters():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        drive = DriveParams(omega=1.0, n_max=n)
        coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        spec = DipoleSpectrum(drive=drive, coeffs=coeffs)
        params = CavityParams(omega_q=float(rng.integers(1, 8)),
                              g_q=float(rng.uniform(0.01, 0.3)),
                              kappa=float(10 ** rng.uniform(-2, 0)))
        t = rng.uniform(0.0, 50.0, size=32)
        t.sort()
        curve = occupation(params, spec, FluctuationModel(float(rng.uniform(0, 1))), t)
        assert np.all(curve.noise >= 0)
        assert np.all(curve.total >= 0)
        assert np.allclose(curve.total, curve.coherent + curve.noise)


def _bath_decay(t):
    params = three_line_case()[0]
    return discrete_bath_decay(cavity_bath(params, 64), params, t)


# The closed forms, correlators and oracles that take a time argument, and its
# name: a number or a 1-d array of finite times >= 0
TIME_FORMS = {
    "amplitude": ("t", lambda t: mode_amplitude(*three_line_case(), t)),
    "occupation": ("t", lambda t: occupation(*three_line_case(), FluctuationModel(0.2), t)),
    "noise-occupation": ("t", lambda t: dipole_noise_occupation(three_line_case()[0],
                                                                FluctuationModel(0.2), t)),
    "bath-decay": ("t", _bath_decay),
    "two-time-t": ("t", lambda t: two_time_correlation(
        *three_line_case(), FluctuationModel(0.2), t, [0.0, 1.0], "as-written")),
    "two-time-tau": ("tau", lambda tau: two_time_correlation(
        *three_line_case(), FluctuationModel(0.2), 1.0, tau, "as-written")),
    "stationary-tau": ("tau", lambda tau: stationary_correlation(
        *three_line_case(), FluctuationModel(0.2), tau, "as-written")),
    "walk-t": ("t", lambda t: monte_carlo_noise(three_line_case()[0], FluctuationModel(0.2), t,
                                                n_trials=2, seed=0)),
    "walk-tau": ("tau", lambda tau: monte_carlo_noise(
        three_line_case()[0], FluctuationModel(0.2), 0.005 * np.arange(10), tau, n_trials=2,
        seed=0)),
    "ode-t": ("t", lambda t: integrate_amplitude_ode(*three_line_case(), t)),
}


@pytest.mark.parametrize("t, message", [
    (-1.0, "must be nonnegative"),
    ([0.0, 2.0, -1.0], "must be nonnegative"),
    (np.ones((2, 3)), r"must be a number or a 1-d array, got shape \(2, 3\)"),
    # NaN returned NaN, and inf raised numpy's "invalid value" RuntimeWarning under -W error
    (np.nan, "must be finite"),
    (np.inf, "must be finite"),
    ([0.0, np.nan, 2.0], "must be finite"),
    # taken as t = 1
    (True, "must be a time, got a boolean"),
], ids=["negative-number", "negative-point", "two-dimensional", "nan-number", "inf-number",
        "nan-point", "boolean"])
@pytest.mark.parametrize("name, form", TIME_FORMS.values(), ids=TIME_FORMS.keys())
def test_closed_forms_share_one_time_rule(monkeypatch, name, form, t, message):
    # the rule comes before the bath's solve and the walk's propagator
    monkeypatch.setattr(oracle, "_arrowhead_spectrum", None)
    monkeypatch.setattr(oracle, "_block_propagator", None)
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        form(t)


# one point raised TypeError after the whole correlator was formed, two numpy's broadcast error
@pytest.mark.parametrize("t", [np.array([1.0]), np.array([1.0, 2.0]), [1.0]],
                         ids=["one-point", "two-points", "list"])
def test_two_time_correlation_takes_one_reference_time(monkeypatch, t):
    monkeypatch.setattr(correlation, "mode_amplitude", None)  # refused before any work
    with pytest.raises(ValueError, match=rf"^t must be one time, got shape \({len(t)},\)$"):
        two_time_correlation(*three_line_case(), FluctuationModel(0.2), t, [0.0, 1.0],
                             "as-written")


def test_an_empty_bath_grid_gives_an_empty_series():
    # it raised IndexError at the horizon check's t[-1]
    result = _bath_decay(np.array([]))
    assert result.series.times.size == 0 and result.series.values.size == 0


def _one_table_response_sum(params, harmonics, coeffs, t):
    """The line-response sum built as one (t x lines) table, the reference for the row blocks."""
    detuning = params.omega_q - harmonics
    denom = 1j * detuning + params.kappa
    resp = phase_table(t, detuning)
    resp -= np.exp(-params.kappa * t)[:, None]
    resp *= coeffs / denom
    return resp.sum(axis=1)


# Two lines is the smallest comb (n_max >= 1).  A one-column table is not
# bit-equal: numpy then multiplies down the rows, and which element lands in
# the vector tail depends on where a block starts.  Nor is a one-row
# matrix-vector product, so the "one-row" case asks for blocks of one row and
# gets blocks of two, as every table of more than one row does.
@pytest.mark.parametrize("n_lines", [2, 4, 16])
@pytest.mark.parametrize("block_rows", [1, 3, None], ids=["one-row", "three-rows", "default"])
def test_blocked_response_sum_is_bit_equal_to_one_table(monkeypatch, block_rows, n_lines):
    # the three sums over a grid and the comb: the line response, the drive
    # sum and the two-time correlator's drive integral (a lag grid against the comb)
    if block_rows is not None:
        monkeypatch.setattr(dipole, "_PHASE_BLOCK_ELEMENTS", block_rows * n_lines)
    b = max(2, dipole._PHASE_BLOCK_ELEMENTS // n_lines)  # rows per block
    rng = np.random.default_rng(n_lines)
    harmonics = 0.7 * np.arange(n_lines, dtype=float)
    coeffs = rng.normal(size=n_lines) + 1j * rng.normal(size=n_lines)
    spec = DipoleSpectrum(drive=DriveParams(omega=0.7, n_max=n_lines - 1), coeffs=coeffs)
    params = CavityParams(omega_q=2.1, g_q=0.05, kappa=0.3)
    fluct = FluctuationModel(0.2)
    for n_rows in sorted({1, 2, b - 1, b, b + 1, 2 * b + 1, 3 * b}):
        t = np.sort(rng.uniform(0.0, 50.0, n_rows))
        dipole._clear_tables()
        got = cavity._response_sum(params, harmonics, coeffs, t)
        want = _one_table_response_sum(params, harmonics, coeffs, t)
        assert got.view(np.uint8).tobytes() == want.view(np.uint8).tobytes(), n_rows

        got = spec.positive_frequency_signal(t)
        want = phase_table(t, -harmonics) @ coeffs
        assert got.view(np.uint8).tobytes() == want.view(np.uint8).tobytes(), n_rows

        got = two_time_correlation(params, spec, fluct, 7.5, t, "as-written").values
        with monkeypatch.context() as one_block:
            one_block.setattr(dipole, "_PHASE_BLOCK_ELEMENTS", 1 << 62)
            want = two_time_correlation(params, spec, fluct, 7.5, t, "as-written").values
        assert got.view(np.uint8).tobytes() == want.view(np.uint8).tobytes(), n_rows


@pytest.mark.parametrize("n_cols", [1, 2, 3, 16])
def test_row_blocks_cover_the_table_in_order_with_no_lone_row(monkeypatch, n_cols):
    monkeypatch.setattr(dipole, "_PHASE_BLOCK_ELEMENTS", 5 * n_cols)
    for n_rows in range(40):
        blocks = dipole._phase_row_blocks(n_rows, n_cols)
        assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n_rows))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(2 <= size <= 6 for size in sizes) or sizes == [1], (n_rows, sizes)


# Each closed form that sums or lists the line weights |A_N|^2, read where only they
# contribute: no noise, and the stationary correlator at tau = 0
LINE_WEIGHT_SITES = {
    "spectrum-lines": lambda params, spec: spectrum.power_spectrum(
        params, spec, FluctuationModel(0.0), [0.0, 1.0]).lines[:, 1],
    "coherent-power": lambda params, spec: spectrum.integrated_power(
        params, spec, FluctuationModel(0.0)).p_coherent,
    "long-time-occupation": lambda params, spec: occupation_longtime(
        params, spec, FluctuationModel(0.0)),
    "stationary-correlation": lambda params, spec: stationary_correlation(
        params, spec, FluctuationModel(0.0), [0.0], "tau-zero-consistent").values[0],
}


@pytest.mark.parametrize("site", LINE_WEIGHT_SITES.values(), ids=LINE_WEIGHT_SITES.keys())
def test_each_line_weight_site_calls_the_one_formula(site, monkeypatch):
    # doubling the one formula doubles each site exactly, as a factor of 2 rounds alike
    params, spec = three_line_case()
    weights = np.abs(line_amplitudes(params, spec)) ** 2
    assert np.array_equal(cavity._line_weights(params, spec), weights)
    before = np.asarray(site(params, spec))
    shipped = cavity._line_weights
    for module in (cavity, correlation, spectrum):
        monkeypatch.setattr(module, "_line_weights", lambda *args: 2.0 * shipped(*args))
    assert np.array_equal(np.asarray(site(params, spec)), 2.0 * before)
