import numpy as np
import pytest

from leaky_cavity.cavity import CavityParams, noise_saturation
from leaky_cavity.correlation import stationary_correlation
from leaky_cavity.dipole import DipoleSpectrum, DriveParams, FluctuationModel
from leaky_cavity.spectrum import (
    NORMALIZATIONS,
    default_omega_grid,
    integrated_power,
    power_spectrum,
    spectrum_from_correlation,
)


def comb_case(delta=0.2):
    drive = DriveParams(omega=1.0, n_max=3)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.375, 0.0, 0.125])
    params = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1)
    return params, spec, FluctuationModel(delta)


def test_resonant_line_weight():
    drive = DriveParams(omega=1.0, n_max=1)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.7])
    params = CavityParams(omega_q=1.0, g_q=0.05, kappa=0.1)
    result = power_spectrum(params, spec, FluctuationModel(0.0))
    assert result.lines[1, 0] == 1.0
    assert result.lines[1, 1] == pytest.approx((params.g_q * 0.7 / params.kappa) ** 2)


def test_continuum_peak_value():
    params, spec, fluct = comb_case()
    c_delta = fluct.delta * params.g_q ** 2 / (2 * params.kappa)
    omega = np.array([params.omega_q])
    as_written = power_spectrum(params, spec, fluct, omega, "as-written")
    wkt = power_spectrum(params, spec, fluct, omega, "wkt-consistent")
    assert as_written.continuum[0] == pytest.approx(2 * c_delta / params.kappa)
    assert wkt.continuum[0] == pytest.approx(2 * c_delta / (np.pi * params.kappa))
    # line weights are convention-independent
    assert np.allclose(as_written.lines, wkt.lines)


def test_quadrature_matches_closed_form_power():
    params, spec, fluct = comb_case()
    omega = np.arange(0.0, params.omega_q + 200 * params.kappa, params.kappa / 20)
    for normalization in NORMALIZATIONS:
        result = power_spectrum(params, spec, fluct, omega, normalization)
        report = integrated_power(params, spec, fluct, normalization)
        quad = np.trapezoid(result.continuum, omega)
        assert quad == pytest.approx(report.p_fluctuation, rel=1e-2)
        assert report.p_coherent == pytest.approx(result.lines[:, 1].sum(), rel=1e-12)


def test_fluctuation_power_bound():
    params, spec, fluct = comb_case()
    report = integrated_power(params, spec, fluct)
    assert 0 < report.p_fluctuation < report.p_fluctuation_max
    assert report.p_fluctuation_max == pytest.approx(
        fluct.delta * np.pi * params.g_q ** 2 / params.kappa)
    assert report.p_total == report.p_coherent + report.p_fluctuation


def test_bound_saturates_for_high_cavity_frequency():
    spec = DipoleSpectrum(drive=DriveParams(1.0, 1), coeffs=[0.0, 0.0])
    fluct = FluctuationModel(0.3)
    kappa = 0.1
    gaps = []
    for ratio in (1.0, 10.0, 100.0, 1000.0):
        params = CavityParams(omega_q=ratio * kappa, g_q=0.2, kappa=kappa)
        report = integrated_power(params, spec, fluct)
        gaps.append(1.0 - report.p_fluctuation / report.p_fluctuation_max)
    assert all(g > 0 for g in gaps)
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 1e-3


def test_bound_from_bath_coupling_matches_kappa_form():
    spec = DipoleSpectrum(drive=DriveParams(1.0, 1), coeffs=[0.0, 0.1])
    fluct = FluctuationModel(0.3)
    with_bath = CavityParams(omega_q=2.0, g_q=0.2, g0=0.5, c=1.0)
    with_kappa = CavityParams(omega_q=2.0, g_q=0.2, kappa=with_bath.kappa)
    a = integrated_power(with_bath, spec, fluct)
    b = integrated_power(with_kappa, spec, fluct)
    assert a.p_fluctuation_max == pytest.approx(
        with_bath.c * fluct.delta * (with_bath.g_q / with_bath.g0) ** 2)
    assert a.p_fluctuation_max == b.p_fluctuation_max


@pytest.mark.parametrize("normalization", sorted(NORMALIZATIONS))
@pytest.mark.parametrize("params", [
    CavityParams(omega_q=2.0, g_q=0.2, kappa=0.3),
    CavityParams(omega_q=2.0, g_q=0.2, g0=0.5, c=1.3),
], ids=["kappa", "bath"])
def test_bound_is_two_pi_noise_saturation(params, normalization):
    spec = DipoleSpectrum(drive=DriveParams(1.0, 1), coeffs=[0.0, 0.1])
    fluct = FluctuationModel(0.3)
    report = integrated_power(params, spec, fluct, normalization)
    factor = NORMALIZATIONS[normalization]
    assert report.p_fluctuation_max == factor * 2.0 * noise_saturation(params, fluct) * np.pi


def test_default_grid_covers_lines_and_lorentzian():
    params, spec, fluct = comb_case()
    omega = default_omega_grid(params, spec)
    assert omega[0] == 0.0
    assert omega[-1] >= spec.harmonics()[-1] + 10 * params.kappa
    step = np.diff(omega)
    assert np.max(step) <= params.kappa / 20 * (1 + 1e-9)
    assert not power_spectrum(params, spec, fluct, omega).grid_truncated


def test_truncated_grid_is_flagged():
    params, spec, fluct = comb_case()
    off_core = np.linspace(0.0, params.omega_q - 6 * params.kappa, 50)
    assert power_spectrum(params, spec, fluct, off_core).grid_truncated
    # no continuum at all means nothing to truncate
    assert not power_spectrum(params, spec, FluctuationModel(0.0),
                              off_core).grid_truncated


@pytest.mark.parametrize("grid, message", [
    ([], "omega grid must be a 1-d array"),
    (3.0, "omega grid must be a 1-d array"),
    ([[0.0, 1.0]], "omega grid must be a 1-d array"),
    ([0.0, np.nan, 2.0], "omega grid must be finite"),  # gave a NaN continuum
    ([0.0, 1.0, np.inf], "omega grid must be finite"),
], ids=["empty", "0-d", "2-d", "nan", "inf"])
def test_power_spectrum_needs_a_1d_omega_grid(grid, message):
    with pytest.raises(ValueError, match=message):
        power_spectrum(*comb_case(), grid)


def test_transform_recovers_lorentzian():
    params = CavityParams(omega_q=2.0, g_q=0.3, kappa=0.1)
    spec = DipoleSpectrum(drive=DriveParams(1.0, 1), coeffs=[0.0, 0.0])
    fluct = FluctuationModel(0.2)
    tau = np.arange(0.0, 30.0 / params.kappa, 0.01 / params.kappa)
    # the published Lorentzian pairs with the published correlator: transform
    # the "as-written" series, recover the "wkt-consistent" continuum.
    series = stationary_correlation(params, spec, fluct, tau, "as-written")
    omega = np.linspace(params.omega_q - 5 * params.kappa,
                        params.omega_q + 5 * params.kappa, 101)
    numeric = spectrum_from_correlation(series, omega)
    analytic = power_spectrum(params, spec, fluct, omega, "wkt-consistent").continuum
    assert np.max(np.abs(numeric - analytic)) / np.max(analytic) < 1e-3


def dense_wkt(series, omega):
    """The Wiener-Khinchin sum with every exp(i omega tau) formed, for reference."""
    tau = series.tau
    weights = np.full(tau.size, tau[1] - tau[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    terms = series.values * weights
    # 64 frequencies at a time bound the table at 64 x N_tau
    return np.concatenate([np.exp(1j * np.outer(omega[lo:lo + 64], tau)).dot(terms)
                           for lo in range(0, omega.size, 64)]).real / np.pi


def criterion_6_case():
    # the grids of verification.check_spectrum_round_trip, lines and continuum together
    kappa = 0.1
    params = CavityParams(omega_q=2.0, g_q=0.05, kappa=kappa)
    spec = DipoleSpectrum(drive=DriveParams(omega=1.0, n_max=3),
                          coeffs=[0.0, 0.9, 0.1 * np.exp(0.4j), 1.0])
    dtau = 0.01 / kappa
    tau = np.arange(0.0, 30.0 / kappa + dtau / 2, dtau)
    series = stationary_correlation(params, spec, FluctuationModel(0.2), tau,
                                    "tau-zero-consistent")
    return series, np.arange(0.0, 4.0, 2.0 * np.pi / tau[-1] / 16.0)


SWEEP_OMEGA_Q, SWEEP_KAPPA = 11.3, 0.2


def sweep_window_case():
    # 20001 lags and a 16-point window far from omega = 0
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(0.2, 1.0, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
    spec = DipoleSpectrum(drive=DriveParams(omega=1.0, n_max=15), coeffs=coeffs)
    params = CavityParams(omega_q=SWEEP_OMEGA_Q, g_q=0.1, kappa=SWEEP_KAPPA)
    series = stationary_correlation(params, spec, FluctuationModel(0.2),
                                    np.linspace(0.0, 200.0, 20001), "tau-zero-consistent")
    return series, params.omega_q + params.kappa / 4.0 * np.arange(-8, 8)


@pytest.mark.parametrize("case", [criterion_6_case, sweep_window_case],
                         ids=["criterion-6", "sweep-window"])
def test_chirp_z_transform_matches_dense_sum(case):
    series, omega = case()
    reference = dense_wkt(series, omega)
    got = spectrum_from_correlation(series, omega)
    assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))


# (case, window centre, window step): criterion 6's 3001 lags and the sweep's 20001
WINDOW_CASES = {"n3001": (criterion_6_case, 2.0, 2.0 * np.pi / 300.0 / 16.0),
                "n20001": (sweep_window_case, SWEEP_OMEGA_Q, SWEEP_KAPPA / 4.0)}


@pytest.mark.parametrize("m", [16, 512, 3056])
@pytest.mark.parametrize("lags", sorted(WINDOW_CASES))
def test_narrow_and_wide_chirp_z_windows_match_dense_sum(lags, m):
    case, centre, step = WINDOW_CASES[lags]
    series, _ = case()
    omega = centre + step * (np.arange(m) - m // 2)
    got = spectrum_from_correlation(series, omega)
    reference = dense_wkt(series, omega)
    assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_transform_requires_uniform_omega_grid():
    series, _ = criterion_6_case()
    with pytest.raises(ValueError, match="uniform"):
        spectrum_from_correlation(series, [1.0, 1.1, 1.3])
    with pytest.raises(ValueError, match="omega grid must be increasing"):
        spectrum_from_correlation(series, [3.0, 2.0, 1.0])
    # both returned [nan nan], with 6 and 12 RuntimeWarnings
    for omega in ([0.0, np.inf], [-1e308, 1e308]):
        with pytest.raises(ValueError, match="^omega grid steps must be finite$"):
            spectrum_from_correlation(series, omega)


def test_transform_error_contracts():
    params, spec, fluct = comb_case()
    tau = np.linspace(0.0, 10.0, 101)
    from leaky_cavity.correlation import two_time_correlation

    finite = two_time_correlation(params, spec, fluct, 1.0, tau, "as-written")
    with pytest.raises(ValueError, match="stationary"):
        spectrum_from_correlation(finite, [0.0])
    ragged = stationary_correlation(params, spec, fluct, tau ** 2, "as-written")
    with pytest.raises(ValueError, match="uniform"):
        spectrum_from_correlation(ragged, [0.0])
    with pytest.raises(ValueError, match="normalization"):
        power_spectrum(params, spec, fluct, normalization="unit")
