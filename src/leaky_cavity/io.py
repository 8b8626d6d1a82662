"""Deterministic CSV/JSON writers for the result types.

All numbers are written with 17 significant digits so identical inputs give
byte-identical files, and read back bit for bit.  Numbers cross the text
boundary in bulk: a CSV batch is turned into its ``%.17g`` text by one numpy
kernel (``_format_block``) that derives every digit exactly, and a CSV is
parsed in C by ``numpy.loadtxt``.  Each file is written to a temporary file
beside it and moved into place, so a failed write leaves any earlier file
untouched.
"""

import functools
import itertools
import json
import os
import warnings
from contextlib import contextmanager

import numpy as np

from .cavity import OccupationCurve
from .correlation import CorrelationSeries
from .dipole import DipoleSpectrum, SeriesBlocks, TimeSeries
from .oracle import TrajectoryEnsemble
from .spectrum import PowerReport, SpectrumResult


_NUMBER = "%.17g"

# CSV rows copied into one float block and turned into text by _format_block at a
# time; it bounds memory, not bytes.  The kernel's temporaries, about 300 bytes a
# cell, then stay in cache: at 4096 rows of three columns a cell cost about 40 % more.
_KERNEL_ROWS = 1024


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


# The kernel derives the digits of a cell of magnitude in [_FAST_MIN, _FAST_MAX).
# Within that range 10**(16 - k), its low part and every Dekker product are normal
# doubles, so the scaled value is exact to about 5e-15.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
# A scaled value this close to a rounding tie may round either way, so its cell goes
# to _fmt; the guard is five orders of magnitude wider than the error above.
_TIE_GUARD = 1e-9
_K_MIN, _K_MAX = -283, 283  # decimal exponents the tables cover (estimate, shift, carry)
# A cell's text is kept from a frame of _FRAME bytes that holds every character any
# cell could need: a sign (0), the "0.000" of a fixed form below 1 (1-5), the 17
# digits with a dot slot after each but the last (6-38), "e" (39), the exponent's
# sign and two or three digits (40-43, NUL-padded), and both separators (44-45).
_FRAME = 48
_MINUS, _PREFIX, _DIGITS, _E, _EXP, _COMMA, _NEWLINE = 0, 1, 6, 39, 40, 44, 45
_FIXED = range(-4, 17)  # exponents that %.17g writes without "e"
_FORMS = len(_FIXED) + 1  # one per fixed exponent, and the e-form
# mask row of a cell: ((negative * _FORMS + form) * 17 + significant digits - 1) * 2 + last
_PER_FORM = 17 * 2


def _kept(exponent, digits: int) -> list:
    """Frame bytes of an unsigned cell of ``digits`` significant digits; None is the e-form."""
    def digit(i):
        return _DIGITS + 2 * i

    def dot_after(i):
        return _DIGITS + 2 * i + 1

    sig = [digit(i) for i in range(digits)]
    if exponent is None:
        return sig + ([dot_after(0)] if digits > 1 else []) + [_E, *range(_EXP, _EXP + 4)]
    if exponent < 0:  # "0." and -exponent - 1 zeros
        return [*range(_PREFIX, _PREFIX + 1 - exponent)] + sig
    whole = [digit(i) for i in range(max(digits, exponent + 1))]
    return whole + ([dot_after(exponent)] if digits > exponent + 1 else [])


@functools.cache
def _tables() -> dict:
    """The kernel's lookup tables, built on first use from integer arithmetic (about 0.2 MB)."""
    # 10**p as hi + lo; Python's int -> float and int / int round correctly
    pow_hi, pow_lo = [], []
    for p in range(16 - _K_MAX, 17 - _K_MIN):
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            hi = 1 / 10 ** -p
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -p) / (den * 10 ** -p)
        pow_hi.append(hi)
        pow_lo.append(lo)
    pow_hi = np.array(pow_hi)
    c = pow_hi * _SPLIT
    pow_hh = c - (c - pow_hi)

    # Python, not numpy arithmetic: integer loops that nothing else runs would add their
    # code pages (faulted in 64 KB at a time) to the resident memory of every process
    pairs = [f"{i:02d}" for i in range(100)]
    pair_digits = [len(p.rstrip("0")) for p in pairs]  # significant digits of a pair
    tail = bytes(2 + pair_digits[lo] for lo in range(1, 100))
    group_digits = b"".join(bytes([pair_digits[hi]]) + tail for hi in range(100))
    # 2 * (significant digits - 1) of D when group j of its four is the last nonzero one
    sig = b"".join(group_digits.translate(bytes([0, *(2 * (4 * j + v) for v in range(1, 5))])
                                          .ljust(256)) for j in range(4))
    exponents = range(_K_MIN, _K_MAX + 1)
    frame = np.zeros(_FRAME, dtype=np.uint8)  # the fixed characters
    frame[[_MINUS, *range(_PREFIX, _PREFIX + 5), _E, _COMMA, _NEWLINE]] = list(b"-0.000e,\n")
    frame[_DIGITS + 1:_E - 1:2] = ord(".")
    mask = np.zeros((2, _FORMS, 17, 2, _FRAME), dtype=np.uint8)
    for form in range(_FORMS):
        for digits in range(1, 18):
            mask[:, form, digits - 1, :, _kept(_FIXED[form] if form < len(_FIXED) else None,
                                               digits)] = 0xFF
    mask[1, ..., _MINUS] = 0xFF
    mask[..., 0, _COMMA] = 0xFF
    mask[..., 1, _NEWLINE] = 0xFF
    tables = {
        # row _K_MAX - k holds 10**(16 - k): hi, hi's Dekker halves, lo
        "pow_hi": pow_hi, "pow_hh": pow_hh, "pow_hl": pow_hi - pow_hh,
        "pow_lo": np.array(pow_lo),
        # ASCII of 0000..9999, four bytes each
        "group": np.frombuffer("".join(p + p.join(pairs) for p in pairs).encode(), np.uint32),
        "lead": np.frombuffer(b"0123456789", dtype=np.uint8),
        "sig": np.frombuffer(sig, dtype=np.uint8),
        "exp": np.array([f"{x:+03d}".encode() for x in exponents], dtype="S4").view(np.uint32),
        "form": np.array([(x - _FIXED[0] if x in _FIXED else len(_FIXED)) * _PER_FORM
                          for x in exponents]),
        "frame": frame,
        "mask": mask.reshape(-1, _FRAME),
    }
    for table in tables.values():  # shared by every call
        table.setflags(write=False)
    return tables


def _scaled(tables: dict, a, k):
    """a * 10**(16 - k) as the unevaluated sum hi + lo, exact to about 5e-15.

    a times the high part of 10**p splits exactly into hi + err (Dekker); the low
    part of 10**p adds the rest.
    """
    row = _K_MAX - k
    t_hi, t_hh, t_hl, t_lo = (tables[name].take(row)
                              for name in ("pow_hi", "pow_hh", "pow_hl", "pow_lo"))
    c = a * _SPLIT
    a_h = c - (c - a)
    a_l = a - a_h
    hi = a * t_hi
    lo = ((a_h * t_hh - hi) + a_h * t_hl + a_l * t_hh) + a_l * t_hl
    lo += a * t_lo
    return hi, lo


def _format_block(block) -> bytes:
    """The ``%.17g`` text of a 2-d float block: cells joined by ``,``, each row ended by a newline.

    A cell of magnitude in [1e-280, 1e280) gets its correctly rounded 17-digit
    integer D and decimal exponent X from ``_scaled``, with X estimated by
    ``log10`` and corrected by a range check on D.  Zero is written as D = 0.
    D and X fill each cell's frame through lookup tables, a mask per (sign, form,
    significant digits, last column) clears what the cell does not show, and the
    cleared bytes are dropped.  Any other cell, or one whose scaled value lies
    within ``_TIE_GUARD`` of a rounding tie, is formatted by ``_fmt``.
    """
    tables = _tables()
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    odd = zero = None
    if not fast.all():
        zero = a == 0
        odd = ~(fast | zero)
        a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(tables, a, k)
    # log10 may miss D's decade by one next to a power of ten
    below = (hi - 1e16) + lo < 0
    above = (hi - 1e17) + lo >= 0
    off = np.flatnonzero(below | above)
    if off.size:
        k[off] += above[off].astype(np.intp) - below[off]
        hi[off], lo[off] = _scaled(tables, a[off], k[off])
    # hi is an integer (it is at least 2**53), so lo holds the fraction
    near = np.rint(lo)
    d = hi.astype(np.int64) + near.astype(np.int64)
    tie = np.abs(lo - near) > 0.5 - _TIE_GUARD
    odd = tie if odd is None else odd | tie
    # a value that rounds up to 10**17 is 1e16 of the next decade, which is also what
    # the next decade gives: a decade boundary needs no guard
    carry = np.flatnonzero((hi - 1e17) + near == 0)
    if carry.size:
        d[carry] = 10 ** 16
        k[carry] += 1
    if zero is not None:
        d[zero] = 0
        k[zero] = 0

    # D = lead * 10**16 + four groups of four digits
    top = d // 10 ** 8
    lead = top // 10 ** 8
    halves = np.stack((top - lead * 10 ** 8, d - top * 10 ** 8), axis=1).astype(np.int32)
    high = halves // 10000
    groups = np.stack((high, halves - high * 10000), axis=2).reshape(n, 4)
    k -= _K_MIN
    sig = tables["sig"].take(groups + np.arange(0, 40000, 10000))
    key = tables["form"].take(k)
    key += np.maximum(np.maximum(sig[:, 0], sig[:, 1]), np.maximum(sig[:, 2], sig[:, 3]))
    key += np.signbit(x) * (_FORMS * _PER_FORM)
    key.reshape(rows, cols)[:, -1] += 1
    # every character a cell could need, of which the cell's mask row keeps what it shows
    frame = np.empty((n, _FRAME), dtype=np.uint8)
    frame[:] = tables["frame"]
    frame[:, _DIGITS] = tables["lead"].take(lead)
    frame[:, _DIGITS + 2:_E:2] = tables["group"].take(groups).view(np.uint8)
    frame.view(np.uint32)[:, _EXP // 4] = tables["exp"].take(k)
    frame &= tables["mask"].take(key, axis=0)
    if odd.any():
        cells = np.flatnonzero(odd)
        text = [_fmt(x[i]) + ("\n" if i % cols == cols - 1 else ",") for i in cells]
        frame[cells] = np.array(text, dtype=f"S{_FRAME}").view(np.uint8).reshape(-1, _FRAME)
    return frame.tobytes().translate(None, b"\0")


@contextmanager
def _atomic_open(path):
    """Binary handle on a temporary file that replaces ``path`` when the block succeeds.

    On error the temporary file is removed and ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _text_blocks(columns):
    """The ``%.17g`` CSV rows of the equal-length 1-d arrays ``columns``, ``_KERNEL_ROWS`` at a time.

    Each block of rows is copied into a float block (a cell that is no number
    raises ``ValueError``) and turned into text by ``_format_block``.
    """
    n = len(columns[0])
    for lo in range(0, n, _KERNEL_ROWS):
        block = np.empty((min(_KERNEL_ROWS, n - lo), len(columns)))
        for j, col in enumerate(columns):
            block[:, j] = col[lo:lo + _KERNEL_ROWS]
        yield _format_block(block)


def _write_rows(path, header: str, batches, comments=()):
    """Write one CSV row per index of each batch of equal-length 1-d arrays in ``batches``.

    The batches are written in turn as they come, so a caller can stream its
    rows; one with whole arrays passes one batch.
    """
    with _atomic_open(path) as fh:
        fh.write(("".join(f"# {c}\n" for c in comments) + header + "\n").encode())
        for columns in batches:
            for text in _text_blocks(columns):
                fh.write(text)


def write_timeseries_csv(path, series: TimeSeries | SeriesBlocks, label: str = "value"):
    """Write rows t,{label} of a real series, or t,{label}_re,{label}_im of a complex one.

    A SeriesBlocks is written block by block as its blocks come; ValueError if
    they hold other than its length of rows.
    """
    blocks = iter([series] if isinstance(series, TimeSeries) else series.blocks)
    first = next(blocks)
    is_complex = np.iscomplexobj(first.values)
    header = f"t,{label}_re,{label}_im" if is_complex else f"t,{label}"

    def batches():
        rows = 0
        for block in itertools.chain([first], blocks):
            rows += len(block)
            yield ((block.times, block.values.real, block.values.imag) if is_complex
                   else (block.times, block.values))
        if rows != len(series):
            raise ValueError(f"the blocks of a series of {len(series)} points hold {rows}")

    _write_rows(path, header, batches())


def write_occupation_csv(path, curve: OccupationCurve):
    _write_rows(path, "t,coherent,noise,total",
                [(curve.times, curve.coherent, curve.noise, curve.total)])


def write_correlation_csv(path, series: CorrelationSeries):
    comments = [f"convention={series.convention}",
                "t=stationary" if series.stationary else f"t={_fmt(series.t)}"]
    _write_rows(path, "tau,re,im", [(series.tau, series.values.real, series.values.imag)],
                comments=comments)


def write_spectrum_csv(lines_path, continuum_path, result: SpectrumResult):
    _write_rows(lines_path, "omega,weight", [result.lines.T],
                comments=[f"normalization={result.normalization}"])
    _write_rows(continuum_path, "omega,s", [(result.omega, result.continuum)],
                comments=[f"normalization={result.normalization}",
                          f"grid_truncated={result.grid_truncated}"])


def write_ensemble_csv(path, ensemble: TrajectoryEnsemble, which: str):
    comments = [f"n_trials={ensemble.n_trials}", f"seed={ensemble.seed}"]
    if which == "occupation":
        _write_rows(path, "t,mean_re,mean_im,stderr",
                    [(ensemble.times, ensemble.mean_occupation,
                      np.zeros_like(ensemble.mean_occupation), ensemble.stderr_occupation)],
                    comments=comments)
    elif which == "two_time":
        if ensemble.tau is None:
            raise ValueError("ensemble has no two-time data")
        comments.append(f"reference_time={_fmt(ensemble.reference_time)}")
        _write_rows(path, "tau,mean_re,mean_im,stderr",
                    [(ensemble.tau, ensemble.mean_two_time.real,
                      ensemble.mean_two_time.imag, ensemble.stderr_two_time)],
                    comments=comments)
    else:
        raise ValueError(f"unknown ensemble table {which!r}")


def _write_json(path, doc: dict):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with _atomic_open(path) as fh:
        fh.write(text.encode())


def write_dipole_spectrum_json(path, spectrum: DipoleSpectrum):
    _write_json(path, spectrum.to_dict())


# The json.dumps(indent=2) text of a top-level key's list of [x, y] number strings
# is its CSV rows "x,y\n" with the separators replaced by these.
_PAIRS_OPEN = b'[\n    [\n      "'
_PAIRS_COMMA = b'",\n      "'
_PAIRS_NEXT = b'"\n    ],\n    [\n      "'
_PAIRS_CLOSE = b'"\n    ]\n  ]'


def _write_json_pairs(fh, columns):
    """Write the two equal-length 1-d arrays ``columns`` as the JSON list of ``[_fmt(x), _fmt(y)]``.

    The text is that of ``json.dumps(..., indent=2)`` for a list under a
    top-level key, streamed one ``_format_block`` of rows at a time.
    """
    if len(columns[0]) == 0:
        fh.write(b"[]")
        return
    sep = _PAIRS_OPEN
    for text in _text_blocks(columns):
        # "," becomes NUL first, which no cell's text holds, as _PAIRS_NEXT holds a ","
        fh.write(sep + text[:-1].replace(b",", b"\0").replace(b"\n", _PAIRS_NEXT)
                 .replace(b"\0", _PAIRS_COMMA))
        sep = _PAIRS_NEXT
    fh.write(_PAIRS_CLOSE)


def write_spectrum_json(path, result: SpectrumResult):
    """The document ``json.dumps(doc, indent=2, sort_keys=True)`` gives, written block by block.

    ``doc`` holds ``lines`` and ``continuum`` as lists of ``[omega, value]``
    pairs of 17-digit strings, ``normalization`` and ``grid_truncated``.
    """
    with _atomic_open(path) as fh:
        fh.write(b'{\n  "continuum": ')
        _write_json_pairs(fh, (result.omega, result.continuum))
        fh.write(f',\n  "grid_truncated": {json.dumps(result.grid_truncated)},\n  "lines": '
                 .encode())
        _write_json_pairs(fh, result.lines.T)
        fh.write(f',\n  "normalization": {json.dumps(result.normalization)}\n}}\n'.encode())


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
    """Columns t, value after a header; blank and ``#`` lines are skipped.

    A ``#`` also ends a data line.  A cell that is no number, a row with
    another column count, a file of other than two columns (a dipole series is
    real, so a t, re, im file is refused too), or times that do not increase
    over a finite span raise ``ValueError`` naming ``path``.
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
    if data.shape[1] != 2:
        raise ValueError(f"{path}: need a time column and a value column (t, value; a dipole "
                         f"series must be real), got {data.shape[1]} columns")
    try:
        return TimeSeries(times=data[:, 0], values=data[:, 1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
