"""Deterministic CSV/JSON writers for the result types.

All numbers are written with 17 significant digits so identical inputs give
byte-identical files.
"""

import json

import numpy as np

from .cavity import OccupationCurve
from .correlation import CorrelationSeries
from .dipole import DipoleSpectrum, TimeSeries
from .oracle import TrajectoryEnsemble
from .spectrum import PowerReport, SpectrumResult


_NUMBER = "{:.17g}"


def _fmt(x: float) -> str:
    return _NUMBER.format(float(x))


def _write_rows(path, header: str, columns, comments=()):
    """Write one CSV row per index of the equal-length 1-d arrays ``columns``."""
    row = ",".join([_NUMBER] * len(columns))
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(map(row.format, *(col.tolist() for col in columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_timeseries_csv(path, series: TimeSeries, label: str = "value"):
    if np.iscomplexobj(series.values):
        _write_rows(path, f"t,{label}_re,{label}_im",
                    (series.times, series.values.real, series.values.imag))
    else:
        _write_rows(path, f"t,{label}", (series.times, series.values))


def write_occupation_csv(path, curve: OccupationCurve):
    _write_rows(path, "t,coherent,noise,total",
                (curve.times, curve.coherent, curve.noise, curve.total))


def write_correlation_csv(path, series: CorrelationSeries):
    comments = [f"convention={series.convention}",
                "t=stationary" if series.stationary else f"t={_fmt(series.t)}"]
    _write_rows(path, "tau,re,im",
                (series.tau, series.values.real, series.values.imag),
                comments=comments)


def write_spectrum_csv(lines_path, continuum_path, result: SpectrumResult):
    _write_rows(lines_path, "omega,weight", result.lines.T,
                comments=[f"normalization={result.normalization}"])
    _write_rows(continuum_path, "omega,s", (result.omega, result.continuum),
                comments=[f"normalization={result.normalization}",
                          f"grid_truncated={result.grid_truncated}"])


def write_ensemble_csv(path, ensemble: TrajectoryEnsemble, which: str = "occupation"):
    comments = [f"n_trials={ensemble.n_trials}", f"seed={ensemble.seed}"]
    if which == "occupation":
        _write_rows(path, "t,mean_re,mean_im,stderr",
                    (ensemble.times, ensemble.mean_occupation,
                     np.zeros_like(ensemble.mean_occupation),
                     ensemble.stderr_occupation),
                    comments=comments)
    elif which == "two_time":
        if ensemble.tau is None:
            raise ValueError("ensemble has no two-time data")
        comments.append(f"reference_time={_fmt(ensemble.reference_time)}")
        _write_rows(path, "tau,mean_re,mean_im,stderr",
                    (ensemble.tau, ensemble.mean_two_time.real,
                     ensemble.mean_two_time.imag, ensemble.stderr_two_time),
                    comments=comments)
    else:
        raise ValueError(f"unknown ensemble table {which!r}")


def _write_json(path, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_dipole_spectrum_json(path, spectrum: DipoleSpectrum):
    _write_json(path, spectrum.to_dict())


def read_dipole_spectrum_json(path) -> DipoleSpectrum:
    with open(path) as fh:
        return DipoleSpectrum.from_dict(json.load(fh))


def write_spectrum_json(path, result: SpectrumResult):
    doc = {
        "lines": [[_fmt(w), _fmt(s)] for w, s in result.lines],
        "continuum": [[_fmt(w), _fmt(s)] for w, s in zip(result.omega, result.continuum)],
        "normalization": result.normalization,
        "grid_truncated": result.grid_truncated,
    }
    _write_json(path, doc)


def write_power_report_json(path, report: PowerReport):
    doc = {
        "p_coherent": _fmt(report.p_coherent),
        "p_fluctuation": _fmt(report.p_fluctuation),
        "p_total": _fmt(report.p_total),
        "p_fluctuation_max": _fmt(report.p_fluctuation_max),
        "normalization": report.normalization,
    }
    _write_json(path, doc)


def read_timeseries_csv(path) -> TimeSeries:
    with open(path) as fh:
        body = [ln.strip() for ln in fh
                if ln.strip() and not ln.lstrip().startswith("#")]
    if len(body) < 2:  # the first non-comment line is the header
        raise ValueError(f"{path}: no data rows")
    data = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need a time column and a value column")
    if data.shape[1] >= 3:
        return TimeSeries(times=data[:, 0], values=data[:, 1] + 1j * data[:, 2])
    return TimeSeries(times=data[:, 0], values=data[:, 1])
