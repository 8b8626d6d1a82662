import json

import numpy as np
import pytest

from leaky_cavity import io as lcio
from leaky_cavity.cavity import CavityParams, occupation
from leaky_cavity.correlation import stationary_correlation
from leaky_cavity.dipole import DipoleSpectrum, DriveParams, FluctuationModel, TimeSeries
from leaky_cavity.io import (
    read_timeseries_csv,
    write_correlation_csv,
    write_dipole_spectrum_json,
    write_ensemble_csv,
    write_occupation_csv,
    write_power_report_json,
    write_spectrum_csv,
    write_spectrum_json,
    write_timeseries_csv,
)
from leaky_cavity.oracle import monte_carlo_noise
from leaky_cavity.spectrum import integrated_power, power_spectrum


def comb_case():
    drive = DriveParams(omega=1.0, n_max=3)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.375, 0.2j, 0.125])
    params = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1)
    return params, spec, FluctuationModel(0.2)


def test_real_timeseries_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    series = TimeSeries(times=np.linspace(0, 1, 50), values=rng.normal(size=50))
    path = tmp_path / "series.csv"
    write_timeseries_csv(path, series, label="d")
    back = read_timeseries_csv(path)
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.values, series.values)


def test_complex_timeseries_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.normal(size=30) + 1j * rng.normal(size=30)
    series = TimeSeries(times=np.linspace(0, 1, 30), values=vals)
    path = tmp_path / "series.csv"
    write_timeseries_csv(path, series, label="alpha")
    assert path.read_text().splitlines()[0] == "t,alpha_re,alpha_im"
    back = read_timeseries_csv(path)
    assert np.array_equal(back.values, series.values)


def test_writes_are_deterministic(tmp_path):
    params, spec, fluct = comb_case()
    curve = occupation(params, spec, fluct, np.linspace(0, 50, 100))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_occupation_csv(a, curve)
    write_occupation_csv(b, curve)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "t,coherent,noise,total"


def test_correlation_csv_carries_metadata(tmp_path):
    params, spec, fluct = comb_case()
    series = stationary_correlation(params, spec, fluct, np.linspace(0, 10, 20),
                                    "as-written")
    path = tmp_path / "corr.csv"
    write_correlation_csv(path, series)
    head = path.read_text().splitlines()[:3]
    assert head[0] == "# convention=as-written"
    assert head[1] == "# t=stationary"
    assert head[2] == "tau,re,im"


def test_read_timeseries_skips_comments(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("# produced elsewhere\n# note\nt,d\n0,1.5\n0.5,2.5\n")
    back = read_timeseries_csv(path)
    assert np.array_equal(back.times, [0.0, 0.5])
    assert np.array_equal(back.values, [1.5, 2.5])
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_timeseries_csv(empty)


def test_spectrum_and_power_json(tmp_path):
    params, spec, fluct = comb_case()
    result = power_spectrum(params, spec, fluct, np.linspace(0, 5, 40))
    write_spectrum_csv(tmp_path / "lines.csv", tmp_path / "cont.csv", result)
    write_spectrum_json(tmp_path / "spectrum.json", result)
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["normalization"] == "as-written"
    assert len(doc["lines"]) == spec.coeffs.size
    assert float(doc["lines"][1][1]) == result.lines[1, 1]

    report = integrated_power(params, spec, fluct)
    write_power_report_json(tmp_path / "power.json", report)
    pdoc = json.loads((tmp_path / "power.json").read_text())
    assert float(pdoc["p_total"]) == report.p_total
    assert float(pdoc["p_fluctuation_max"]) == report.p_fluctuation_max


def test_dipole_spectrum_json_round_trip(tmp_path):
    _, spec, _ = comb_case()
    path = tmp_path / "dipole.json"
    write_dipole_spectrum_json(path, spec)
    doc = json.loads(path.read_text())
    assert doc == spec.to_dict()
    assert np.array_equal([complex(re, im) for re, im in doc["coeffs"]], spec.coeffs)
    assert doc["dc_retained"] is True


def test_ensemble_csv(tmp_path):
    params = CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)
    t = np.arange(0.0, 5.0 + 0.025, 0.05)
    ens = monte_carlo_noise(params, FluctuationModel(0.2), t, n_trials=8, seed=0)
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ens, which="occupation")
    head = path.read_text().splitlines()
    assert head[0] == "# n_trials=8"
    assert head[2] == "t,mean_re,mean_im,stderr"
    with pytest.raises(ValueError, match="no two-time data"):
        write_ensemble_csv(path, ens, which="two_time")
    with pytest.raises(ValueError, match="unknown ensemble table"):
        write_ensemble_csv(path, ens, which="spectrum")


def one_shot_rows(header, columns, comments=()):
    """The CSV text of _write_rows built by joining every line at once."""
    lines = [f"# {c}" for c in comments] + [header]
    lines += [",".join("{:.17g}".format(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


BATCH = lcio._ROW_BATCH


@pytest.mark.parametrize("n", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3])
def test_batched_rows_equal_one_shot_join(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = (np.arange(n) * 0.1, rng.normal(size=n) * 1e-300, -rng.normal(size=n) * 1e300)
    path = tmp_path / "rows.csv"
    lcio._write_rows(path, "t,a,b", columns, comments=["first", "second=2"])
    assert path.read_bytes() == one_shot_rows("t,a,b", columns, ["first", "second=2"]).encode()


def test_failed_write_leaves_the_target_untouched(tmp_path, monkeypatch):
    # the third row cannot be formatted, after the first batch is written
    monkeypatch.setattr(lcio, "_ROW_BATCH", 2)
    column = np.array([1.0, 2.0, "three", 4.0], dtype=object)
    fresh = tmp_path / "fresh.csv"
    with pytest.raises(ValueError):
        lcio._write_rows(fresh, "x", (column,))
    assert list(tmp_path.iterdir()) == []

    kept = tmp_path / "kept.csv"
    kept.write_text("earlier run\n")
    with pytest.raises(ValueError):
        lcio._write_rows(kept, "x", (column,))
    with pytest.raises(TypeError):
        lcio._write_json(kept, {"a": 1.0, "b": object()})
    assert kept.read_text() == "earlier run\n"
    assert list(tmp_path.iterdir()) == [kept]
