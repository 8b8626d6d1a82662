import json
import re
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leaky_cavity import io as lcio
from leaky_cavity.cavity import CavityParams, occupation
from leaky_cavity.cli import default_scenario_path
from leaky_cavity.correlation import stationary_correlation
from leaky_cavity.dipole import DipoleSpectrum, DriveParams, FluctuationModel, SeriesBlocks, \
    TimeSeries
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
from leaky_cavity.runner import run
from leaky_cavity.spectrum import SpectrumResult, integrated_power, power_spectrum


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


def dumped_spectrum_json(result):
    """spectrum.json as one json.dumps of the whole document."""
    doc = {
        "lines": [[lcio._fmt(w), lcio._fmt(s)] for w, s in result.lines],
        "continuum": [[lcio._fmt(w), lcio._fmt(s)] for w, s in zip(result.omega, result.continuum)],
        "normalization": result.normalization,
        "grid_truncated": result.grid_truncated,
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def spectrum_result(n_lines, n_points, truncated, seed=0):
    rng = np.random.default_rng(seed)
    continuum = rng.normal(size=n_points) * 10.0 ** rng.uniform(-300.0, 300.0, n_points)
    continuum[:3] = [-0.0, 0.0, 5e-324][:n_points]  # -0, 0 and a subnormal among the cells
    lines = np.column_stack([np.arange(n_lines) * 0.75, -rng.exponential(size=n_lines)])
    return SpectrumResult(lines=lines, omega=np.linspace(-2.0, 2.0, n_points),
                          continuum=continuum, normalization="half-range",
                          grid_truncated=truncated)


@pytest.mark.parametrize("truncated", [False, True])
@pytest.mark.parametrize("n_lines, n_points", [(0, 1), (1, 1023), (1, 1024), (16, 1025),
                                               (0, 3), (2, 4097), (1, 0)])
def test_spectrum_json_is_the_dumped_document(tmp_path, n_lines, n_points, truncated):
    result = spectrum_result(n_lines, n_points, truncated)
    path = tmp_path / "spectrum.json"
    write_spectrum_json(path, result)
    assert path.read_bytes() == dumped_spectrum_json(result)


def test_spectrum_json_memory_does_not_grow_with_the_grid(tmp_path):
    # the whole document as Python strings took 136 MB at 250 000 points
    result = spectrum_result(16, 250_000, False)
    path = tmp_path / "spectrum.json"
    tracemalloc.start()
    try:
        write_spectrum_json(path, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert path.stat().st_size > 60 * 250_000


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


# four kernel blocks of rows, so the cases below cross block boundaries
BATCH = 4 * lcio._KERNEL_ROWS

# signed zero, the smallest subnormal and normal, the largest finite values,
# a value with no short binary form, a small integer and one above 2**53
EDGES = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 3.0, 1e16])


@pytest.mark.parametrize("n", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3, "edges"])
def test_batched_rows_equal_one_shot_join(tmp_path, n):
    if n == "edges":  # tiled past one batch, so a partial batch holds them too
        edges = np.tile(EDGES, BATCH // EDGES.size + 2)
        columns = (edges, -edges, np.roll(edges, 3))
    else:
        rng = np.random.default_rng(n)
        columns = (np.arange(n) * 0.1, rng.normal(size=n) * 1e-300,
                   -rng.normal(size=n) * 1e300)
    path = tmp_path / "rows.csv"
    lcio._write_rows(path, "t,a,b", [columns], comments=["first", "second=2"])
    assert path.read_bytes() == one_shot_rows("t,a,b", columns, ["first", "second=2"]).encode()


@pytest.mark.parametrize("cuts", [[], [1], [1, 2], [1023, 1025, 3000], [0, 0, 4096]],
                         ids=["one", "first-row-alone", "single-rows", "uneven", "empty-batches"])
def test_streamed_batches_equal_one_batch(tmp_path, cuts):
    rng = np.random.default_rng(len(cuts))
    columns = (np.arange(5000) * 0.1, rng.normal(size=5000), np.tile(EDGES, 625))
    batches = zip(*(np.split(col, cuts) for col in columns))
    path = tmp_path / "rows.csv"
    lcio._write_rows(path, "t,a,b", batches)
    assert path.read_bytes() == one_shot_rows("t,a,b", columns).encode()


@pytest.mark.parametrize("dtype", [float, complex])
def test_series_blocks_are_written_as_the_whole_series(tmp_path, dtype):
    rng = np.random.default_rng(5)
    t = np.arange(3000) * 0.01
    values = rng.normal(size=3000) * (1j if dtype is complex else 1) + rng.normal(size=3000)
    write_timeseries_csv(tmp_path / "whole.csv", TimeSeries(t, values), label="x")
    cuts = [(0, 1025), (1025, 1026), (1026, 3000)]
    blocks = (TimeSeries(t[lo:hi], values[lo:hi]) for lo, hi in cuts)
    write_timeseries_csv(tmp_path / "blocks.csv", SeriesBlocks(3000, blocks), label="x")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("length", [2, 4])
def test_series_blocks_of_another_length_leave_no_file(tmp_path, length):
    blocks = [TimeSeries(np.arange(3.0), np.ones(3))]
    with pytest.raises(ValueError, match=f"a series of {length} points hold 3"):
        write_timeseries_csv(tmp_path / "short.csv", SeriesBlocks(length, blocks))
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_the_target_untouched(tmp_path, monkeypatch):
    # the third row cannot be formatted, after the first block of rows is written
    monkeypatch.setattr(lcio, "_KERNEL_ROWS", 2)
    column = np.array([1.0, 2.0, "three", 4.0], dtype=object)
    fresh = tmp_path / "fresh.csv"
    with pytest.raises(ValueError):
        lcio._write_rows(fresh, "x", [(column,)])
    assert list(tmp_path.iterdir()) == []

    kept = tmp_path / "kept.csv"
    kept.write_text("earlier run\n")
    with pytest.raises(ValueError):
        lcio._write_rows(kept, "x", [(column,)])
    with pytest.raises(TypeError):
        lcio._write_json(kept, {"a": 1.0, "b": object()})
    assert kept.read_text() == "earlier run\n"
    assert list(tmp_path.iterdir()) == [kept]


def test_fmt_is_the_row_number_format():
    bits = np.random.default_rng(3).integers(0, 2**64, size=2000, dtype=np.uint64)
    values = np.concatenate([EDGES, -EDGES, [np.inf, -np.inf, np.nan], bits.view(np.float64)])
    assert [lcio._fmt(v) for v in values] == ["{:.17g}".format(v) for v in values.tolist()]


def exact_ties(rng, n) -> np.ndarray:
    """q / 2**j for odd q with q * 5**j of 18 digits, the last a 5: a tie at 17 digits."""
    ties = []
    for j in rng.integers(3, 26, size=n).tolist():
        q = int(rng.integers(-(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53))) | 1
        ties.append(q / 2 ** j)  # exact: q < 2**53
    return np.array(ties)


def hard_corpus() -> np.ndarray:
    """Values where a 17-digit formatter can go wrong, both signs, in a fixed order."""
    rng = np.random.default_rng(19)
    tens = np.array([float(f"1e{e}") for e in range(-300, 301)])
    # 18 significant digits ending in 5: a hair from a tie once they are rounded to binary
    mantissas = rng.integers(10 ** 16, 10 ** 17, size=2000) * 10 + 5
    exponents = rng.integers(-300, 290, size=2000)
    near_ties = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    values = np.concatenate([
        rng.integers(0, 2 ** 64, size=6000, dtype=np.uint64).view(np.float64),  # every exponent
        tens, np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf), near_ties,
        exact_ties(rng, 2000),
        rng.integers(2 ** 52, 10 ** 18, size=2000).astype(np.float64),
        EDGES, np.arange(1, 400) * 5e-324, [2.225073858507201e-308, np.inf, np.nan],
    ])
    return np.concatenate([values, -values])


def formatted(rows) -> str:
    return "".join(",".join("{:.17g}".format(v) for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("cols", [1, 2, 3, 4])
def test_kernel_matches_format_on_hard_values(tmp_path, cols):
    values = hard_corpus()
    columns = np.resize(values, (cols, -(-values.size // cols)))  # rows cross many kernel blocks
    path = tmp_path / "rows.csv"
    lcio._write_rows(path, "x", [columns])
    assert path.read_bytes() == one_shot_rows("x", columns).encode()


def test_exact_ties_reach_the_fallback(monkeypatch):
    calls = []
    fmt = lcio._fmt
    monkeypatch.setattr(lcio, "_fmt", lambda x: calls.append(x) or fmt(x))
    ties = exact_ties(np.random.default_rng(5), 50)
    block = np.column_stack([ties, -ties])
    assert lcio._format_block(block).decode() == formatted(block.tolist())
    assert len(calls) == block.size


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.floats(), min_size=cols, max_size=cols),
                          min_size=1, max_size=12)))
def test_kernel_matches_format_on_any_floats(rows):
    block = np.array(rows, dtype=np.float64)
    assert lcio._format_block(block).decode() == formatted(rows)


def test_run_formats_nearly_every_cell_in_the_kernel(tmp_path, monkeypatch):
    # a narrower fast range would send more cells through _fmt and slow run down
    counts = {"cells": 0, "fallbacks": 0}
    inside = []
    kernel, fmt = lcio._format_block, lcio._fmt

    def counting_fmt(x):
        counts["fallbacks"] += bool(inside)
        return fmt(x)

    def counting_kernel(block):
        counts["cells"] += block.size
        inside.append(block)
        try:
            return kernel(block)
        finally:
            inside.pop()

    monkeypatch.setattr(lcio, "_fmt", counting_fmt)
    monkeypatch.setattr(lcio, "_format_block", counting_kernel)
    run(default_scenario_path(), tmp_path)
    assert counts["cells"] > 200_000
    assert counts["fallbacks"] <= counts["cells"] // 1000


def float_parse(path):
    """The reader's parse before numpy.loadtxt: ``float()`` on every cell."""
    with open(path) as fh:
        body = [ln.strip() for ln in fh
                if ln.strip() and not ln.lstrip().startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])


def assert_same_bits(series, table):
    assert np.array_equal(series.times.view(np.uint64), table[:, 0].view(np.uint64))
    assert np.array_equal(series.values.view(np.uint64), table[:, 1].view(np.uint64))


def test_read_is_bit_equal_to_float_parse(tmp_path):
    bits = np.random.default_rng(4).integers(0, 2**64, size=(5000, 3), dtype=np.uint64)
    bits = bits.view(np.float64)
    # times must increase; positive ones never overflow in the reader's difference check
    times = np.unique(np.abs(bits[np.isfinite(bits[:, 0]), 0]))
    edge_values = np.column_stack([EDGES, -EDGES[::-1]])
    for t, values in [(times, bits[:times.size, 1:]), (np.arange(EDGES.size), edge_values)]:
        for column in values.T:
            written = tmp_path / "written.csv"
            write_timeseries_csv(written, TimeSeries(times=t, values=column))
            assert_same_bits(read_timeseries_csv(written), float_parse(written))
    # more digits than the writer gives, and cases that round near a tie or underflow
    hard = ["0.1000000000000000055511151231257827", "2.2250738585072011e-308",
            "9007199254740993", "2.4703282292062328e-324", "2.4703282292062327e-324",
            "1.7976931348623158e308", "1.7976931348623159e308", "1e-400", "-0", "+1.5",
            ".5", "5.", "1E5", "Infinity", "-inf", "nan", "123456789012345678901234567890"]
    typed = tmp_path / "typed.csv"
    typed.write_text("t,d\n" + "".join(f"{i},{h}\n" for i, h in enumerate(hard)))
    assert_same_bits(read_timeseries_csv(typed), float_parse(typed))


@pytest.mark.parametrize("text", [
    "t,d\r\n0,1.5\r\n0.5,2.5\r\n",
    "# made elsewhere\n\n  # indented note\nt,d\n0,1.5\n0.5,2.5\n",
    "t,d\n\n0,1.5\n\n# between rows\n0.5,2.5\n\n",
    "  t , d \n  0 ,\t1.5 \n0.5 , 2.5\t\n",
    "t,d\n0.25,-3e-7\n",
], ids=["crlf", "comments-before-header", "blank-lines", "padded-cells",
        "single-row"])
def test_read_layouts(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode())
    assert_same_bits(read_timeseries_csv(path), float_parse(path))


def test_read_hash_ends_a_data_line(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t,d\n0,1.5 # a note\n0.5,2.5\n")
    assert np.array_equal(read_timeseries_csv(path).values, [1.5, 2.5])


@pytest.mark.parametrize("body, message", [
    ("t,d\n0,1\n0.5,abc\n", "could not convert string 'abc'"),
    ("t,d\n0,1\n0.5,2,3\n", "number of columns changed from 2 to 3"),
    ("t,d\n1_0,2\n", "could not convert string '1_0'"),  # float() took it
    ("t,d\n0,1\n   \n1,2\n", "number of columns changed from 2 to 1"),  # once skipped
], ids=["non-numeric", "ragged", "underscore", "spaces-only-row"])
def test_read_errors_name_the_file(tmp_path, body, message):
    path = tmp_path / "series.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
        read_timeseries_csv(path)


@pytest.mark.parametrize("body, message", [
    ("t,a,b,c\n0,1,2,3\n1,4,5,6\n", "need a time column .* got 4 columns"),
    ("t,d_re,d_im\n0,1.5,-2\n0.5,2.5,1e-300\n",
     "need a time column and a value column [(]t, value; a dipole series must be real[)], "
     "got 3 columns"),
    ("t,d\n-1e308,1\n1e308,2\n", "time span must be finite"),
    ("t,d\n0,1\ninf,2\n", "time span must be finite"),
    ("t,d\n0,1\n0,2\n", "times must be strictly increasing"),
], ids=["four-columns", "three-columns", "overflowing-span", "infinite-time",
        "repeated-time"])
def test_read_refuses_a_layout_it_cannot_take(tmp_path, body, message):
    path = tmp_path / "series.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        read_timeseries_csv(path)


def test_json_is_written_in_one_call(tmp_path, monkeypatch):
    writes = []
    atomic_open = lcio._atomic_open

    @contextmanager
    def counting_open(path):
        with atomic_open(path) as fh:
            yield SimpleNamespace(write=lambda text: writes.append(text) or fh.write(text))

    monkeypatch.setattr(lcio, "_atomic_open", counting_open)
    doc = {"b": [1.5, {"c": None}], "a": "x"}
    path = tmp_path / "doc.json"
    lcio._write_json(path, doc)
    assert len(writes) == 1
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
