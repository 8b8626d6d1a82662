import numpy as np
import pytest

from leaky_cavity import cavity, dipole
from leaky_cavity.cavity import (
    CavityParams,
    dipole_noise_occupation,
    kappa_from_coupling,
    mode_amplitude,
    occupation,
    occupation_longtime,
)
from leaky_cavity.dipole import DipoleSpectrum, DriveParams, FluctuationModel, phase_table
from leaky_cavity.oracle import integrate_amplitude_ode


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
    with pytest.raises(ValueError):
        kappa_from_coupling(0.0, 1.0)
    with pytest.raises(ValueError):
        kappa_from_coupling(1.0, -1.0)


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
# the vector tail depends on where a block starts.
@pytest.mark.parametrize("n_lines", [2, 4, 16])
@pytest.mark.parametrize("block_rows", [1, 3, None], ids=["one-row", "three-rows", "default"])
def test_blocked_response_sum_is_bit_equal_to_one_table(monkeypatch, block_rows, n_lines):
    if block_rows is not None:
        monkeypatch.setattr(dipole, "_PHASE_BLOCK_ELEMENTS", block_rows * n_lines)
    b = max(1, dipole._PHASE_BLOCK_ELEMENTS // n_lines)
    rng = np.random.default_rng(n_lines)
    harmonics = 0.7 * np.arange(n_lines, dtype=float)
    coeffs = rng.normal(size=n_lines) + 1j * rng.normal(size=n_lines)
    params = CavityParams(omega_q=2.1, g_q=0.05, kappa=0.3)
    for n_rows in sorted({1, b - 1, b, b + 1}):
        t = np.sort(rng.uniform(0.0, 50.0, n_rows))
        cavity._response_sum.cache_clear()
        got = cavity._response_sum(params, harmonics.tobytes(), coeffs.tobytes(), t.tobytes())
        want = _one_table_response_sum(params, harmonics, coeffs, t)
        assert got.view(np.uint8).tobytes() == want.view(np.uint8).tobytes(), n_rows


def test_response_cache_follows_arrays_changed_in_place():
    params, spec = three_line_case()
    t = np.linspace(0.0, 40.0, 401)
    occupation(params, spec, FluctuationModel(0.2), t)
    t *= 0.5
    resp = _one_table_response_sum(params, spec.harmonics(), spec.coeffs, t)
    want = params.g_q * np.conj(resp) * np.exp(1j * params.omega_q * t)
    assert mode_amplitude(params, spec, t).tobytes() == want.tobytes()


@pytest.mark.parametrize("other", [
    DipoleSpectrum(drive=DriveParams(omega=1.0, n_max=3), coeffs=[0.0, 0.375, 0.2j, 0.126]),
    DipoleSpectrum(drive=DriveParams(omega=1.1, n_max=3), coeffs=[0.0, 0.375, 0.2j, 0.125]),
], ids=["coeffs", "omega"])
def test_response_cache_never_shared_between_spectra(other):
    params, spec = three_line_case()
    t = np.linspace(0.0, 40.0, 401)
    cavity._response_sum.cache_clear()
    cold = mode_amplitude(params, other, t)
    mode_amplitude(params, spec, t)
    after_spec = mode_amplitude(params, other, t)
    assert cold.tobytes() == after_spec.tobytes()
    assert not np.array_equal(cold, mode_amplitude(params, spec, t))


def test_cached_response_is_read_only():
    params, spec = three_line_case()
    t = np.linspace(0.0, 40.0, 401)
    occupation(params, spec, FluctuationModel(0.0), t)
    cached = cavity._response_sum(params, spec.harmonics().tobytes(), spec.coeffs.tobytes(),
                                  t.tobytes())
    assert cavity._response_sum.cache_info().hits >= 1
    with pytest.raises(ValueError):
        cached[0] = 0.0
