import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaky_cavity.dipole import (
    DriveParams,
    DipoleSpectrum,
    FluctuationModel,
    TimeSeries,
    fourier_decompose,
    phase_table,
    synthesize_mean_dipole,
    uniform_steps,
)
from test_oracle import sample_fluctuation


def periodic_grid(drive, n_periods=4, per_period=512):
    return np.linspace(0.0, n_periods * drive.period, n_periods * per_period + 1)


def test_single_cosine_harmonic():
    drive = DriveParams(omega=1.0, n_max=3)
    t = periodic_grid(drive)
    spec = fourier_decompose(TimeSeries(times=t, values=np.cos(t)), drive)
    assert abs(spec.coeffs[1] - 0.5) < 1e-10
    assert np.all(np.abs(np.delete(spec.coeffs, 1)) < 1e-10)


def test_zero_signal_decomposes_to_zero():
    drive = DriveParams(omega=1.0, n_max=2)
    t = periodic_grid(drive)
    spec = fourier_decompose(TimeSeries(times=t, values=np.zeros_like(t)), drive)
    assert np.all(spec.coeffs == 0)


def test_cos_cubed_harmonics():
    # cos^3 = (3 cos + cos 3)/4, so d_1 = 3/8 and d_3 = 1/8
    drive = DriveParams(omega=1.0, n_max=4)
    t = periodic_grid(drive)
    spec = fourier_decompose(TimeSeries(times=t, values=np.cos(t) ** 3), drive)
    assert abs(spec.coeffs[1] - 0.375) < 1e-10
    assert abs(spec.coeffs[3] - 0.125) < 1e-10
    assert np.all(np.abs(spec.coeffs[[0, 2, 4]]) < 1e-10)


def test_cos_cubed_against_quadrature_oracle():
    """Independent oracle: brute-force Simpson quadrature of the projection integral."""
    from scipy.integrate import simpson

    drive = DriveParams(omega=1.3, n_max=3)
    t = periodic_grid(drive, n_periods=2, per_period=2048)
    vals = np.cos(drive.omega * t) ** 3
    spec = fourier_decompose(TimeSeries(times=t, values=vals), drive)
    span = t[-1] - t[0]
    for n in range(4):
        oracle = simpson(vals * np.exp(1j * n * drive.omega * t), x=t) / span
        assert abs(spec.coeffs[n] - oracle) < 1e-9


def trapezoid_projection(signal, drive):
    """d_N by np.trapezoid of each harmonic's integrand over the window, N = 0..n_max."""
    t = signal.times - signal.times[0]
    return np.array([np.trapezoid(signal.values * np.exp(1j * n * drive.omega * t), t)
                     for n in range(drive.n_max + 1)]) / signal.span


@pytest.mark.parametrize("omega, n_max, periods, per_period, start", [
    (1.0, 15, 40, 1024, 0.0),  # the sweep-series benchmark's window
    (1.3, 6, 3, 13, 0.0),      # 2 n_max + 1 samples a period: the top bin is just below M/2
    (0.7, 4, 5, 51, 12.5),     # a window that does not start at 0
    (2.0, 1, 1, 4, 0.0),
], ids=["sweep-comb", "least-sampling", "offset-start", "one-period"])
def test_fft_projection_is_the_trapezoid_rule(omega, n_max, periods, per_period, start):
    # the real FFT rounds otherwise than the per-harmonic sum: 9.6e-15 of the largest
    # coefficient on the sweep comb
    drive = DriveParams(omega=omega, n_max=n_max)
    rng = np.random.default_rng(n_max)
    spec = DipoleSpectrum(drive=drive, coeffs=rng.normal(size=n_max + 1)
                          + 1j * rng.normal(size=n_max + 1))
    t = start + np.linspace(0.0, periods * drive.period, periods * per_period + 1)
    values = synthesize_mean_dipole(spec, t).values + rng.normal(size=t.size)  # and off-comb noise
    signal = TimeSeries(times=t, values=values)
    reference = trapezoid_projection(signal, drive)
    coeffs = fourier_decompose(signal, drive).coeffs
    assert np.max(np.abs(coeffs - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_incommensurate_window_rejected():
    drive = DriveParams(omega=1.0, n_max=2)
    t = np.linspace(0.0, 1.7 * drive.period, 1001)
    with pytest.raises(ValueError, match="incommensurate window"):
        fourier_decompose(TimeSeries(times=t, values=np.cos(t)), drive)


def test_complex_series_rejected():
    # cos t + 5i sin t used to decompose as cos t alone, the imaginary part dropped
    drive = DriveParams(omega=1.0, n_max=2)
    t = periodic_grid(drive)
    with pytest.raises(ValueError, match="a dipole series must be real"):
        fourier_decompose(TimeSeries(times=t, values=np.cos(t) + 5j * np.sin(t)), drive)


def test_window_of_too_many_periods_rejected():
    # 1e300 time units at omega = 1e10 is more periods than a float holds
    drive = DriveParams(omega=1e10, n_max=1)
    series = TimeSeries(times=np.array([0.0, 1e300]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="incommensurate window: span 1e[+]300 is inf periods"):
        fourier_decompose(series, drive)


def test_undersampled_grid_rejected():
    drive = DriveParams(omega=1.0, n_max=6)
    t = np.linspace(0.0, drive.period, 9)  # 8 samples/period < 2*6+1
    with pytest.raises(ValueError, match="aliasing risk"):
        fourier_decompose(TimeSeries(times=t, values=np.cos(t)), drive)


def test_synthesize_cosine_values():
    drive = DriveParams(omega=1.0, n_max=1)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.5])
    out = synthesize_mean_dipole(spec, [0.0, np.pi])
    assert np.allclose(out.values, [1.0, -1.0], atol=1e-12)


def test_synthesize_zero_spectrum():
    drive = DriveParams(omega=1.0, n_max=2)
    spec = DipoleSpectrum(drive=drive, coeffs=np.zeros(3))
    out = synthesize_mean_dipole(spec, np.linspace(0, 10, 50))
    assert np.all(out.values == 0)


def test_round_trip_cos_cubed():
    drive = DriveParams(omega=1.0, n_max=4)
    t = periodic_grid(drive)
    signal = TimeSeries(times=t, values=np.cos(t) ** 3)
    spec = fourier_decompose(signal, drive)
    back = synthesize_mean_dipole(spec, t)
    assert np.max(np.abs(back.values - signal.values)) < 1e-9


def test_round_trip_clipped_cosine():
    drive = DriveParams(omega=1.0, n_max=15)
    t = periodic_grid(drive, per_period=4096)
    signal = TimeSeries(times=t, values=np.clip(np.cos(drive.omega * t), -0.6, 0.6))
    spec = fourier_decompose(signal, drive)
    back = synthesize_mean_dipole(spec, t)
    # the clip corners make the harmonics decay only like 1/n^2, so a 15-line
    # truncation is a few parts in 10^3 in rms with a larger corner overshoot
    err = back.values - signal.values
    assert np.sqrt(np.mean(err ** 2)) < 5e-3
    assert np.max(np.abs(err)) < 2e-2
    # even harmonics vanish for the symmetric clip
    assert np.all(np.abs(spec.coeffs[2::2]) < 1e-10)
    # rms truncation error shrinks as the cutoff rises
    wide = fourier_decompose(signal, DriveParams(omega=1.0, n_max=31))
    wide_err = synthesize_mean_dipole(wide, t).values - signal.values
    assert np.sqrt(np.mean(wide_err ** 2)) < np.sqrt(np.mean(err ** 2)) / 2


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                min_size=2, max_size=6))
def test_synthesized_dipole_is_real_and_parseval(pairs):
    coeffs = np.array([complex(re, im) for re, im in pairs])
    drive = DriveParams(omega=1.0, n_max=len(coeffs) - 1)
    spec = DipoleSpectrum(drive=drive, coeffs=coeffs)
    t = periodic_grid(drive, n_periods=1, per_period=1024)
    out = synthesize_mean_dipole(spec, t)
    assert np.isrealobj(out.values)
    # Parseval: (1/T) int |d|^2 = |d_0|^2 + 2 sum_{N>=1} |d_N|^2 (real part of d_0 only)
    power = np.trapezoid(out.values ** 2, t) / drive.period
    expected = coeffs[0].real ** 2 + 2.0 * np.sum(np.abs(coeffs[1:]) ** 2)
    assert abs(power - expected) < 1e-8 * max(1.0, expected)


def test_fluctuation_zero_delta():
    out = sample_fluctuation(FluctuationModel(0.0), np.linspace(0, 1, 101), seed=1)
    assert np.all(out.values == 0)


def test_fluctuation_variance():
    dt = 0.01
    t = np.arange(0, 1e4, dt)
    out = sample_fluctuation(FluctuationModel(0.2), t, seed=42)
    assert out.values.var() == pytest.approx(0.2 / dt, rel=0.01)


def test_fluctuation_deterministic_under_seed():
    t = np.linspace(0, 1, 1001)
    a = sample_fluctuation(FluctuationModel(0.3), t, seed=7)
    b = sample_fluctuation(FluctuationModel(0.3), t, seed=7)
    assert np.array_equal(a.values, b.values)
    c = sample_fluctuation(FluctuationModel(0.3), t, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_fluctuation_autocorrelation_is_delta_like():
    dt = 0.02
    n = 200_000
    out = sample_fluctuation(FluctuationModel(0.5), np.arange(n) * dt, seed=3)
    v = out.values
    target = 0.5 / dt
    stderr0 = np.sqrt(2.0 / n) * target  # var of a variance estimator
    assert abs(v.var() - target) < 5 * stderr0
    for lag in (1, 2, 5):
        corr = np.mean(v[:-lag] * v[lag:])
        stderr = target / np.sqrt(n - lag)
        assert abs(corr) < 5 * stderr


def test_fluctuation_requires_uniform_grid():
    t = np.array([0.0, 0.1, 0.3, 0.35])
    with pytest.raises(ValueError, match="not uniform"):
        sample_fluctuation(FluctuationModel(0.1), t, seed=0)


@pytest.mark.parametrize("grid, message", [
    ([0.0, 0.1, 0.3, 0.35], "omega grid is not uniform"),
    ([1.0], "omega grid is not uniform"),
    ([3.0, 2.0, 1.0], "omega grid must be increasing"),
    ([1.0, 1.0, 1.0], "omega grid must be increasing"),
    ([0.0, 1.0, 2.0, 1.5], "omega grid must be increasing"),
    # [inf] came back, with numpy's "invalid value" RuntimeWarning from the uniformity check
    ([0.0, np.inf], "omega grid steps must be finite"),
    # the step overflowed, with numpy's "overflow" RuntimeWarning
    ([-1e308, 1e308], "omega grid steps must be finite"),
], ids=["ragged", "one-point", "uniform-descending", "constant", "turns-back", "infinite-step",
        "overflowing-step"])
def test_uniform_steps_names_the_fault(grid, message):
    with pytest.raises(ValueError, match=message):
        uniform_steps(np.array(grid), "omega")


def bits(values):
    """The bytes of each float of a complex array, so +0 and -0 differ."""
    return np.ascontiguousarray(values).view(np.uint64)


def test_phase_table_is_bit_equal_to_dense_exp():
    rng = np.random.default_rng(20)
    # a comb of 25 lines as the drive takes it, and frequencies of -0, 0 and up to 1e9
    combs = [-DriveParams(omega=0.7, n_max=24).harmonics(),
             np.array([0.0, -0.0, 1.0, -2.0, 0.3, 1e6, -1e9, 10.9])]
    # products of -0 and 0, at most DBL_MIN (subnormal ones too), and up to 1e8 and beyond
    t = np.concatenate([[0.0, -0.0, 5e-324, -1e-310, 2.2e-308 / 17, -3.5, 1e8 / 16.8, 1e15],
                        np.linspace(-50.0, 50.0, 301),
                        rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.uniform(-320.0, 6.0, 400),
                        rng.uniform(-1e8, 1e8, 400) / 16.8])
    strided = np.repeat(t, 3)[::3]
    assert not strided.flags.contiguous
    for f in combs:
        for times in (t, strided):
            table = phase_table(times, f)
            dense = np.exp(1j * np.outer(times, f))
            assert np.array_equal(table, dense)
            assert np.array_equal(bits(table.real), bits(dense.real))
            # 1j * x adds +0 to x, so only a product of -0 keeps its sign here
            assert np.array_equal(bits(table.imag + 0.0), bits(dense.imag))
            product = np.outer(times, f)
            negative_zero = (product == 0) & np.signbit(product)
            assert negative_zero.any() and np.signbit(table.imag[negative_zero]).all()
    assert phase_table(0.5, combs[1]).shape == (1, combs[1].size)


def test_phase_table_of_an_infinite_phase_is_invalid():
    with pytest.warns(RuntimeWarning, match="invalid value"):
        table = phase_table(np.array([np.inf]), np.array([1.0]))
    assert np.isnan(table.real[0, 0]) and np.isnan(table.imag[0, 0])


def test_positive_frequency_signal_of_a_scalar_time():
    spec = DipoleSpectrum(drive=DriveParams(omega=1.0, n_max=2), coeffs=[0.1, 0.2 - 0.3j, 0.05j])
    value = spec.positive_frequency_signal(0.7)
    assert isinstance(value, complex)
    assert value == spec.positive_frequency_signal(np.array([0.7]))[0]


def test_spectrum_serialization_round_trip():
    drive = DriveParams(omega=2.0, n_max=2)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.1, 0.2 - 0.3j, 0.05j])
    doc = spec.to_dict()
    assert doc["dc_retained"] is True
    assert doc["omega"] == drive.omega
    back = DipoleSpectrum(drive=DriveParams(omega=doc["omega"], n_max=len(doc["coeffs"]) - 1),
                          coeffs=[complex(re, im) for re, im in doc["coeffs"]])
    assert back.drive == drive
    assert np.array_equal(back.coeffs, spec.coeffs)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DriveParams(omega=-1.0, n_max=2)
    with pytest.raises(ValueError):
        DriveParams(omega=1.0, n_max=0)
    with pytest.raises(ValueError):
        FluctuationModel(delta=-0.1)
    with pytest.raises(ValueError):
        TimeSeries(times=np.array([0.0, 0.0, 1.0]), values=np.zeros(3))


@pytest.mark.parametrize("n_max", [3.0, True, "3"], ids=["integral-float", "bool", "text"])
def test_drive_refuses_a_cutoff_that_is_not_an_integer(n_max):
    # a float cutoff used to pass and fail later, in fourier_decompose's np.empty
    with pytest.raises(ValueError, match="n_max must be an integer"):
        DriveParams(omega=1.0, n_max=n_max)


@pytest.mark.parametrize("times", [[-1e308, 1e308], [0.0, np.inf], [np.nan]],
                         ids=["overflowing", "infinite", "nan"])
def test_time_series_refuses_a_span_that_is_not_finite(times):
    # under filterwarnings = error, an overflowing difference would raise a warning
    with pytest.raises(ValueError, match="time span must be finite"):
        TimeSeries(times=np.array(times), values=np.zeros(len(times)))
