"""Deterministic CSV/JSON writers for the result types.

All numbers are written with 17 significant digits so identical inputs give
byte-identical files, and read back bit for bit.  Numbers cross the text
boundary in bulk, in C: a CSV batch is one printf-style template applied to a
float block, and a CSV is parsed by ``numpy.loadtxt``.  Each file is written to
a temporary file beside it and moved into place, so a failed write leaves any
earlier file untouched.
"""

import json
import os
import warnings
from contextlib import contextmanager

import numpy as np

from .cavity import OccupationCurve
from .correlation import CorrelationSeries
from .dipole import DipoleSpectrum, TimeSeries
from .oracle import TrajectoryEnsemble
from .spectrum import PowerReport, SpectrumResult


_NUMBER = "%.17g"

# CSV rows formatted and written at a time; it bounds memory, not bytes.
_ROW_BATCH = 4096


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


@contextmanager
def _atomic_open(path):
    """Text handle on a temporary file that replaces ``path`` when the block succeeds.

    On error the temporary file is removed and ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_rows(path, header: str, columns, comments=()):
    """Write one CSV row per index of the equal-length 1-d arrays ``columns``.

    Each batch is copied into a float block (a cell that is no number raises
    ``ValueError``) and formatted by one ``%`` of the row template repeated.
    """
    row = ",".join([_NUMBER] * len(columns)) + "\n"
    n = len(columns[0])
    with _atomic_open(path) as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + header + "\n")
        for lo in range(0, n, _ROW_BATCH):
            block = np.empty((min(_ROW_BATCH, n - lo), len(columns)))
            for j, col in enumerate(columns):
                block[:, j] = col[lo:lo + _ROW_BATCH]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


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
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with _atomic_open(path) as fh:
        fh.write(text)


def write_dipole_spectrum_json(path, spectrum: DipoleSpectrum):
    _write_json(path, spectrum.to_dict())


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
    """Columns t, value or t, re, im after a header; blank and ``#`` lines are skipped.

    A ``#`` also ends a data line.  A cell that is no number, a row with
    another column count, a file of other than two or three columns, or times
    that do not increase over a finite span raise ``ValueError`` naming ``path``.
    """
    with open(path) as fh:
        header = fh.readline()
        while header and (not header.strip() or header.lstrip().startswith("#")):
            header = fh.readline()
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if len(data) == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] not in (2, 3):
        raise ValueError(f"{path}: need a time column and a value column (t, value or "
                         f"t, re, im), got {data.shape[1]} columns")
    values = data[:, 1]
    if data.shape[1] == 3:  # not re + 1j*im, which turns a -0 into 0 and an infinite im into nan
        values = np.ascontiguousarray(data[:, 1:3]).view(complex)[:, 0]
    try:
        return TimeSeries(times=data[:, 0], values=values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
