import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leaky_cavity import oracle
from leaky_cavity.cavity import CavityParams, dipole_noise_occupation, mode_amplitude
from leaky_cavity.cli import default_scenario_path
from leaky_cavity.dipole import _PHASE_BLOCK_ELEMENTS, DipoleSpectrum, DriveParams, \
    FluctuationModel, TimeSeries, _phase_row_blocks, noise_std, uniform_steps
from leaky_cavity.oracle import (
    _MC_BLOCK,
    _MC_TILE_BLOCKS,
    BathDiscretization,
    _arrowhead_spectrum,
    _digamma,
    _ode_rows,
    _rk4_step,
    _rk4_transfer,
    _scan,
    _vacuum_step,
    amplitude_ode_step,
    continuum_pole,
    discrete_bath_decay,
    amplitude_ode_blocks,
    integrate_amplitude_ode,
    monte_carlo_noise,
)
from leaky_cavity.artifacts import RelativeDeviation, _amplitude_oracle
from leaky_cavity.scenario import load_scenario


def comb_case():
    drive = DriveParams(omega=1.0, n_max=3)
    spec = DipoleSpectrum(drive=drive, coeffs=[0.1, 0.375, 0.2j, 0.125])
    params = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1)
    return params, spec


def test_ode_matches_closed_form():
    params, spec = comb_case()
    t = np.arange(0.0, 30.0, 0.005 / params.omega_q)
    ode = integrate_amplitude_ode(params, spec, t)
    closed = np.conj(mode_amplitude(params, spec, t))
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(ode.values - closed)) / scale < 1e-8


def test_ode_is_fourth_order():
    params, spec = comb_case()
    errs = []
    for h in (0.02, 0.01):
        t = np.arange(0.0, 10.0 + h / 2, h)
        ode = integrate_amplitude_ode(params, spec, t)
        closed = np.conj(mode_amplitude(params, spec, t))
        errs.append(np.max(np.abs(ode.values - closed)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_ode_error_contracts():
    params, spec = comb_case()
    with pytest.raises(ValueError, match="step too large"):
        integrate_amplitude_ode(params, spec, np.arange(0.0, 10.0, 0.5))
    with pytest.raises(ValueError, match="uniform"):
        integrate_amplitude_ode(params, spec, np.array([0.0, 0.01, 0.03]))
    with pytest.raises(ValueError, match="start at 0"):  # the vacuum starts at t = 0
        integrate_amplitude_ode(params, spec, np.arange(1.0, 2.0, 0.01))


def test_a_block_far_from_zero_keeps_its_step():
    # the nodes h * k for k from 2e7, as amplitude_ode_blocks forms them: their steps
    # spread by 4.4e-9, which uniform_steps refuses, and a block split in two is the same
    params, spec = comb_case()
    h = amplitude_ode_step(params, spec)
    t = h * np.arange(2 * 10 ** 7, 2 * 10 ** 7 + 8193)
    with pytest.raises(ValueError, match="not uniform"):
        uniform_steps(t)
    whole = _ode_rows(params, spec, t, h, 0.5j)
    head = _ode_rows(params, spec, t[:4097], h, 0.5j)
    tail = _ode_rows(params, spec, t[4096:], h, head[-1])
    assert np.array_equal(whole.view(np.uint64), np.concatenate([head, tail[1:]]).view(np.uint64))


def three_evaluation_ode(params, spec, t):
    """The amplitude oracle with the drive evaluated at every step's start, middle and end."""
    h = _vacuum_step(t)[1]
    r, c0, cm, c1 = _rk4_step(params, h)
    states = np.empty(t.size, dtype=complex)
    states[0] = 0j
    for rows in _phase_row_blocks(t.size - 1, spec.coeffs.size):
        nodes = t[rows]
        f0 = spec.positive_frequency_signal(nodes)
        fm = spec.positive_frequency_signal(nodes + h / 2.0)
        f1 = spec.positive_frequency_signal(nodes + h)
        forcing = params.g_q * (c0 * f0 + cm * fm + c1 * f1)
        states[rows.start:rows.stop + 1] = _scan(r, forcing, states[rows.start])
    return states


def end_misses(t):
    """Steps n whose end t_n + h is not the grid node t_{n+1}, h being the first step."""
    return np.flatnonzero(t[:-1] + (t[1] - t[0]) != t[1:])


def comb(n_max, seed):
    rng = np.random.default_rng(seed)
    return DipoleSpectrum(drive=DriveParams(omega=0.75, n_max=n_max),
                          coeffs=rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1))


def exact_grid(n):
    """A grid of power-of-two steps: every step ends on the next node."""
    return 2.0 ** -9 * np.arange(n)


def jittered_grid(n):
    """An exact grid whose nodes after t_1 sit 1e-10 steps up and down, uniform to the
    oracle's tolerance: only step 0 ends on a node, since h = t_1 - 0 bit for bit."""
    t = exact_grid(n)
    t[2:] += 2.0 ** -9 * 1e-10 * (-1.0) ** np.arange(2, n)
    return t


def one_node_nudged(n):
    """An exact grid with t_2 one ulp down: step 1 alone ends off the grid, since t_2 + h
    is a tie that rounds to t_3.  Its state z_2 = r z_1 + forcing_1 is of the forcing's size,
    so a forcing that rounds otherwise shows."""
    t = exact_grid(n)
    t[2] = np.nextafter(t[2], 0.0)
    return t


STEP_END_CASES = {  # (cavity, comb, grid, steps whose end is evaluated on its own)
    "every-end-on-the-grid": (CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1), comb(3, 1),
                              exact_grid(5000), 0),
    "some-ends-on-the-grid": (CavityParams(omega_q=2.25, g_q=0.3, kappa=0.2), comb(20, 2),
                              np.linspace(0.0, 20.0, 6001), 1671),
    "only-step-0-on-the-grid": (CavityParams(omega_q=0.75, g_q=0.05, kappa=0.1), comb(1, 3),
                                jittered_grid(3000), 2998),
    "one-miss-in-a-block": (CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1), comb(15, 7),
                            one_node_nudged(5000), 1),
    "uncoupled": (CavityParams(omega_q=3.0, g_q=0.0, kappa=0.1), comb(3, 5),
                  np.linspace(0.0, 10.0, 2001), 483),
}


@pytest.mark.parametrize("case", STEP_END_CASES.values(), ids=STEP_END_CASES.keys())
def test_ode_reuses_grid_nodes_bit_for_bit(case, monkeypatch):
    params, spec, t, n_misses = case
    misses = end_misses(t)
    assert misses.size == n_misses
    blocks = _phase_row_blocks(t.size - 1, spec.coeffs.size)
    if n_misses == 1:  # a lone miss in a block of many rows, whose one-row product rounds otherwise
        assert len(blocks) > 1 and blocks[0].stop > 2
        end, start = t[misses[0]] + t[1], t[misses[0]]
        assert (spec.positive_frequency_signal(np.array([end]))[0]
                != spec.positive_frequency_signal(np.array([end, start]))[0])
    reference = three_evaluation_ode(params, spec, t)

    rows = []
    drive = DipoleSpectrum.positive_frequency_signal
    monkeypatch.setattr(DipoleSpectrum, "positive_frequency_signal",
                        lambda self, nodes: rows.append(np.size(nodes)) or drive(self, nodes))
    values = integrate_amplitude_ode(params, spec, t).values
    assert np.array_equal(values.view(np.uint64), reference.view(np.uint64))
    # two tables per block: its nodes with the next block's first, and its midpoints with
    # its missed ends
    assert len(rows) == 2 * len(blocks)
    assert sum(rows) == t.size + len(blocks) - 1 + t.size - 1 + n_misses


def test_ode_of_one_step_takes_both_nodes_from_one_product():
    # A one-step grid has a one-row block, where the three-evaluation oracle forms
    # three one-row products.  Its end lies on t_1, so f(t_0) and f(t_1) come from
    # one two-row product, as the rule for phase tables asks, and only the
    # midpoint's product has one row; a one-row product may round otherwise.
    params, spec = comb_case()
    t = np.array([0.0, 0.005 / params.omega_q])
    h = _vacuum_step(t)[1]
    r, c0, cm, c1 = _rk4_step(params, h)
    f0, f1 = spec.positive_frequency_signal(t)
    fm = spec.positive_frequency_signal(t[:1] + h / 2.0)[0]
    expected = np.array([0j, params.g_q * (c0 * f0 + cm * fm + c1 * f1)])
    values = integrate_amplitude_ode(params, spec, t).values
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
    assert np.allclose(values, three_evaluation_ode(params, spec, t), rtol=1e-15, atol=0.0)


def test_noise_std_is_sqrt_delta_over_the_step():
    assert noise_std(FluctuationModel(0.2), 0.05) == np.sqrt(0.2 / 0.05)
    assert noise_std(FluctuationModel(0.0), 0.01) == 0.0


def test_noise_step_scales_with_the_fastest_rate():
    assert oracle.noise_step(CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)) == 0.02
    assert oracle.noise_step(CavityParams(omega_q=0.5, g_q=1.0, kappa=4.0)) == 0.005


@pytest.mark.parametrize("omega_q, kappa", [(3.0, 0.1), (1.0, 0.1), (0.5, 4.0), (1.0, 0.07),
                                            (2.3, 0.0137), (0.01, 0.3), (5.0, 0.03)])
def test_noise_grids_are_counted_without_building_them(omega_q, kappa):
    # the grid as np.arange forms it, and run's lags as the grid's own points
    from leaky_cavity.oracle import noise_lag_steps, noise_walk_steps

    params = CavityParams(omega_q=omega_q, g_q=1.0, kappa=kappa)
    dt = oracle.noise_step(params)
    t = np.arange(0.0, oracle.NOISE_KAPPA_T / kappa + dt / 2, dt)
    assert oracle.noise_points(params) == t.size
    assert np.array_equal(oracle.noise_times(params).view(np.uint64), t.view(np.uint64))
    tau = t[t <= oracle.NOISE_KAPPA_TAU / kappa][:: max(1, t.size // 200)]
    assert np.array_equal(t[noise_lag_steps(params)], tau)
    assert noise_walk_steps(params) == t.size - 1 + round(tau[-1] / dt)


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 60000])
def test_scan_matches_lfilter(n):
    from scipy.signal import lfilter

    shipped = load_scenario(default_scenario_path())
    params, _ = comb_case()
    cases = [(shipped.cavity, amplitude_ode_step(shipped.cavity, shipped.spectrum)),
             (params, 0.005 / params.omega_q), (params, 0.03)]
    rng = np.random.default_rng(n)
    forcing = rng.normal(size=n) + 1j * rng.normal(size=n)
    for cavity, h in cases:
        r = _rk4_transfer(-(1j * cavity.omega_q + cavity.kappa), h)[0]
        reference = np.concatenate([[0j], lfilter([1.0], [1.0, -r], forcing)])
        assert np.array_equal(_scan(r, forcing), reference)


def test_amplitude_oracle_working_set_does_not_grow_with_the_comb_tables():
    # 200k steps of a 16-line comb: one phase table of the drive would take 51 MB,
    # and the forcing as a Python list 8 MB, against 3.2 MB of output
    rng = np.random.default_rng(15)
    spec = DipoleSpectrum(drive=DriveParams(omega=1.0, n_max=15),
                          coeffs=rng.normal(size=16) + 1j * rng.normal(size=16))
    params = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1)
    t = amplitude_ode_step(params, spec) * np.arange(200_001)
    tracemalloc.start()
    try:
        ode = integrate_amplitude_ode(params, spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * ode.values.nbytes


def whole_array_deviation(params, spec, ode):
    """The amplitude figure of the whole arrays: max |conj(ODE) - closed| / max |closed|."""
    closed = mode_amplitude(params, spec, ode.times)
    return np.max(np.abs(np.conj(ode.values) - closed)) / np.max(np.abs(closed))


def streamed(params, spec, n):
    """Times, states and amplitude figure of amplitude_ode_blocks on n points, block by block."""
    figure = RelativeDeviation()
    times, states = [], []
    for block in amplitude_ode_blocks(params, spec, n):
        assert len(block) >= 2
        figure.add(block.values, np.conj(mode_amplitude(params, spec, block.times)))
        times.append(block.times)
        states.append(block.values)
    return np.concatenate(times), np.concatenate(states), figure.value()


# (cavity, comb, the grid k h of the oracle's step h whose point count is streamed): the
# grid of steps 2^-9, the oracle's step at omega_q = 0.005 * 2^9, where every step ends
# on the next node, and np.arange grids of random combs of 1-20 lines
STREAM_CASES = {"every-end-on-the-grid": (
    CavityParams(omega_q=0.005 * 2 ** 9, g_q=0.05, kappa=0.1), comb(3, 1), exact_grid(5000))}
for seed in range(1, 8, 2):
    rng = np.random.default_rng(seed)
    n_max = int(rng.integers(1, 21))
    params = CavityParams(omega_q=float(rng.uniform(0.5, 5.0)), g_q=float(rng.uniform(0.01, 0.3)),
                          kappa=float(10.0 ** rng.uniform(-2, 0)))
    spec = comb(n_max, seed)
    h, t_end = amplitude_ode_step(params, spec), float(rng.uniform(10.0, 30.0))
    STREAM_CASES[f"seed-{seed}-arange-{n_max}-lines"] = (params, spec, np.arange(0.0, t_end, h))
# two full blocks of a 16-line comb and one row more, which joins the second block
_JOIN = (CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1), comb(15, 9))
STREAM_CASES["single-row-join"] = (*_JOIN, amplitude_ode_step(*_JOIN) * np.arange(
    2 * (_PHASE_BLOCK_ELEMENTS // 16) + 2))


@pytest.mark.parametrize("case", STREAM_CASES.values(), ids=STREAM_CASES.keys())
def test_streamed_states_and_figure_equal_the_collected_ones(case):
    params, spec, t = case
    if case is STREAM_CASES["single-row-join"]:
        rows = _PHASE_BLOCK_ELEMENTS // spec.coeffs.size
        assert [b.stop - b.start for b in _phase_row_blocks(t.size - 1, spec.coeffs.size)] == [
            rows, rows + 1]
    times, states, figure = streamed(params, spec, t.size)
    ode = integrate_amplitude_ode(params, spec, t)
    assert np.array_equal(times.view(np.uint64), t.view(np.uint64))
    assert np.array_equal(states.view(np.uint64), ode.values.view(np.uint64))
    assert figure == whole_array_deviation(params, spec, ode)
    assert figure < 1e-6


@pytest.mark.parametrize("t_end", [0.01, 1.0 / 3.0, 7.0])
def test_a_point_count_streams_the_arange_grid(t_end):
    # run's grid np.arange(0, t_end + h/2, h), given by its point count
    params, spec = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1), comb(7, 11)
    h = amplitude_ode_step(params, spec)
    t = np.arange(0.0, t_end + h / 2, h)
    times, states, figure = streamed(params, spec, t.size)
    ode = integrate_amplitude_ode(params, spec, t)
    assert np.array_equal(times.view(np.uint64), t.view(np.uint64))
    assert np.array_equal(states.view(np.uint64), ode.values.view(np.uint64))
    assert figure == whole_array_deviation(params, spec, ode)


# Each count argument: its name, its least value, and a call that takes it
COUNTS = {
    "drive-n_max": ("n_max", 1, lambda n: DriveParams(omega=1.0, n_max=n)),
    "bath-n_modes": ("n_modes", 2, lambda n: discrete_bath_decay(
        BathDiscretization(n_modes=n, center=3.0, half_width=4.0, g0=0.01),
        comb_case()[0], np.linspace(0.0, 10.0, 11))),
    "walk-seed": ("seed", 0, lambda n: monte_carlo_noise(*mc_setup(), n_trials=4, seed=n)),
    "walk-n_trials": ("n_trials", 2, lambda n: monte_carlo_noise(*mc_setup(), n_trials=n,
                                                                 seed=0)),
    "ode-blocks-n": ("n", 2, lambda n: next(amplitude_ode_blocks(*comb_case(), n))),
}


# n_modes=2.5 and 300.0 ended in numpy's TypeError from np.full, the walk's and the
# ODE blocks' floats in Python's TypeError, and seed=True was taken
@pytest.mark.parametrize("make, message", [
    (lambda least: 2.5, "an integer, got {value!r}"),
    (lambda least: float(least + 1), "an integer, got {value!r}"),
    (lambda least: True, "an integer, got {value!r}"),
    (lambda least: str(least + 1), "an integer, got {value!r}"),
    (lambda least: least - 1, "at least {least}, got {value}"),
], ids=["fraction", "integral-float", "bool", "text", "below-least"])
@pytest.mark.parametrize("name, least, call", COUNTS.values(), ids=COUNTS.keys())
def test_counts_share_one_rule(monkeypatch, name, least, call, make, message):
    monkeypatch.setattr(oracle, "_arrowhead_spectrum", None)  # the rule comes before the solve
    value = make(least)
    expected = f"{name} must be " + message.format(value=value, least=least)
    with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
        call(value)


def test_a_point_count_below_two_is_refused():
    params, spec = comb_case()
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"n must be at least 2, got {n}"):
            next(amplitude_ode_blocks(params, spec, n))


def relative_deviation(blocks):
    """The figure of RelativeDeviation fed the (value, reference) pairs of ``blocks``."""
    figure = RelativeDeviation()
    for value, reference in blocks:
        figure.add(value, reference)
    return figure.value()


def test_relative_deviation_equals_the_whole_array_figure():
    rng = np.random.default_rng(3)
    value, reference = rng.normal(size=(2, 1000)) + 1j * rng.normal(size=(2, 1000))
    bounds = [0, 1, 7, 500, 998, 1000]  # uneven blocks, single points among them
    blocks = [(value[lo:hi], reference[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert relative_deviation(blocks) == (np.max(np.abs(value - reference))
                                          / np.max(np.abs(reference)))


@pytest.mark.parametrize("where", ["value", "reference"])
@pytest.mark.parametrize("block", [0, 1, 2])
def test_relative_deviation_propagates_nan(where, block):
    # a NaN in any block stays, whichever block holds the maxima
    blocks = [(np.array([1.0, 2.0]), np.array([1.5, 4.0])) for _ in range(3)]
    blocks[block][where == "reference"][1] = np.nan
    assert np.isnan(relative_deviation(blocks))


def test_relative_deviation_is_none_at_a_zero_reference():
    assert relative_deviation([(np.array([1.0, -2.0]), np.zeros(2))] * 3) is None
    assert relative_deviation([(np.zeros(2), np.zeros(2)), (np.ones(2), np.array([0.0, 0.5]))]) \
        == 2.0


def test_amplitude_oracle_heap_does_not_grow_with_the_horizon(tmp_path):
    # run's amplitude oracle (ODE, closed form, figure and CSV) holds one row block at a time
    shipped = load_scenario(default_scenario_path())

    def peak(t_end):
        config = replace(shipped, t_grid=np.array([0.0, t_end]))
        tracemalloc.start()
        try:
            checks = _amplitude_oracle(config, lambda name: str(tmp_path / name))
            return tracemalloc.get_traced_memory()[1], checks
        finally:
            tracemalloc.stop()

    peak(1.0)  # the CSV kernel's tables are built once
    shipped_peak, checks = peak(100.0)
    long_peak, long_checks = peak(1000.0)
    assert long_peak <= 1.2 * shipped_peak
    assert checks["amplitude_oracle_max_rel_deviation"] < 1e-8
    assert long_checks["amplitude_oracle_max_rel_deviation"] < 1e-8
    assert (tmp_path / "amplitude_oracle.csv").read_text().count("\n") == 600_002


def mc_setup():
    params = CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)
    fluct = FluctuationModel(0.2)
    t = np.arange(0.0, 60.0 + 0.025, 0.05)
    return params, fluct, t


def test_mc_matches_noise_occupation_law():
    params, fluct, t = mc_setup()
    ens = monte_carlo_noise(params, fluct, t, n_trials=800, seed=3)
    expected = dipole_noise_occupation(params, fluct, t)
    probe = slice(40, None, 120)
    pulls = np.abs(ens.mean_occupation[probe] - expected[probe]) / ens.stderr_occupation[probe]
    assert np.max(pulls) < 5.0


def sample_fluctuation(model, times, seed) -> TimeSeries:
    """One realization of the discretized white noise: independent N(0, delta/dt) samples.

    The draws of trial k of the Monte-Carlo oracle with seed [seed, k];
    identical seeds give identical series.
    """
    times = np.asarray(times, dtype=float)
    rng = np.random.default_rng(seed)
    sigma = noise_std(model, uniform_steps(times).mean())
    return TimeSeries(times=times, values=rng.normal(0.0, sigma, times.size))


def per_step_reference(params, fluct, t, tau, n_trials, seed):
    """Mean and standard error of the Monte-Carlo statistics from a plain per-step loop.

    Each trial's noise comes from sample_fluctuation with the seed [seed, k];
    the states advance one step at a time, z -> r z + gain x, for all trials
    at once.  Returns (occupation, two-time) pairs of (mean, stderr), the
    two-time pair None without a tau grid.
    """
    h = t[1] - t[0]
    lags = np.rint(np.asarray([] if tau is None else tau) / h).astype(int)
    n_steps = t.size - 1 + lags.max(initial=0)
    step_times = h * np.arange(n_steps + 1)
    r, c0, cm, c1 = _rk4_transfer(-(1j * params.omega_q + params.kappa), h)
    gain = params.g_q * (c0 + cm + c1)
    noise = np.array([sample_fluctuation(fluct, step_times, seed=[seed, k]).values
                      for k in range(n_trials)])
    z = np.zeros((n_trials, n_steps + 1), dtype=complex)
    for j in range(n_steps):
        z[:, j + 1] = r * z[:, j] + gain * noise[:, j]

    def stats(samples):
        return samples.mean(axis=0), samples.std(axis=0) / np.sqrt(n_trials)

    occupation = stats(np.abs(z[:, :t.size]) ** 2)
    if tau is None:
        return occupation, None
    return occupation, stats(np.conj(z[:, [t.size - 1]]) * z[:, t.size - 1 + lags])


def assert_matches_reference(ens, reference, picks=slice(None)):
    (occ_mean, occ_stderr), two_time = reference
    np.testing.assert_allclose(ens.mean_occupation, occ_mean[picks], rtol=1e-12)
    np.testing.assert_allclose(ens.stderr_occupation, occ_stderr[picks], rtol=1e-12)
    if two_time is None:
        assert ens.mean_two_time is None and ens.stderr_two_time is None
    else:
        np.testing.assert_allclose(ens.mean_two_time, two_time[0], rtol=1e-12)
        np.testing.assert_allclose(ens.stderr_two_time, two_time[1], rtol=1e-12)


def test_mc_is_deterministic_and_chunk_independent():
    # one full chunk of trials and a partial one, against a per-step reference
    params, fluct, t = mc_setup()
    tau = np.arange(0.0, 20.0 + 0.025, 2.0)
    n_trials, seed = 512 + 17, 11
    ens = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=seed)
    assert_matches_reference(ens, per_step_reference(params, fluct, t, tau, n_trials, seed))

    again = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=seed)
    assert np.array_equal(ens.mean_occupation, again.mean_occupation)
    assert np.array_equal(ens.mean_two_time, again.mean_two_time)
    other = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials,
                              seed=seed + 1)
    assert not np.array_equal(ens.mean_occupation, other.mean_occupation)


# (n_t, tau lags in steps, trials, picks).  The last state of the walk is
# always the largest lag.  With aligned 32-step pairs of 16-step blocks, n_t =
# 257 puts t_ref on state 256, which closes the eighth pair and the first
# 256-step slab of the ids, and n_t = 258 on state 257, which opens the ninth;
# the 2395-step walk covers two 1024-step draw tiles and part of a third.
# State s >= 1 is the (s - 1) % 16-th of its block: states 1 and 16 open and
# close the first block, 17 opens the second, 32 closes the first pair and 33
# opens the second; state 1024 closes the first draw tile.  513 trials leave a
# last chunk of one trial, and state 20 lies in the second block of a pair.
@pytest.mark.parametrize("n_t, lags, n_trials, picks", [
    (1000, [0, 3, 3, 0, 517], 512 + 3, None),
    (2000, [0, 5, 396], 24, None),
    (257, [0, 1, 300], 40, None),
    (258, [0, 256, 255], 40, None),
    (300, None, 40, None),
    (2, [0], 5, None),
    (2, [0, 2], 5, None),
    (1000, [0, 3, 517], 512 + 3, [0, 1, 16, 17, 256, 257, 600, 999]),
    (2000, None, 24, [0, 1023, 1024, 1025, 1999]),
    (258, [0, 256, 255], 40, [257]),
    (300, [0, 40], 40, [150]),
    (300, None, 40, [0]),
    (300, [0, 32, 33, 100], 513, [1, 32, 33, 64, 65]),
    (300, None, 40, [20]),
], ids=["ragged-duplicate-lags-partial-chunk", "spans-draw-tiles", "ref-ends-slab",
        "ref-starts-slab", "no-tau", "one-step", "three-steps",
        "picks-block-and-slab-edges-partial-chunk", "picks-across-draw-tiles",
        "picks-t-ref-only", "single-pick", "vacuum-pick-only",
        "pair-edges-one-trial-last-chunk", "only-read-in-second-block"])
def test_mc_slab_recursion_matches_per_step_loop(n_t, lags, n_trials, picks):
    assert _MC_BLOCK == 16 and _MC_TILE_BLOCKS * 16 == 1024
    params, fluct, _ = mc_setup()
    h = 0.05
    t = h * np.arange(n_t)
    tau = None if lags is None else h * np.array(lags, dtype=float)
    ens = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=4,
                            picks=picks)
    picked = slice(None) if picks is None else np.array(picks)
    assert np.array_equal(ens.times, t[picked])
    assert_matches_reference(ens, per_step_reference(params, fluct, t, tau, n_trials, 4),
                             picked)


class CountingNumpy:
    """numpy, but counting the products with the walk's pair propagator."""

    def __init__(self):
        self.pair_products = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, y, **kwargs):
        self.pair_products += y.shape == (_MC_BLOCK + 2, 2 * _MC_BLOCK)
        return np.matmul(x, y, **kwargs)


def test_mc_forms_only_the_blocks_that_are_read(monkeypatch):
    # verify's ensemble: 20 picks on 10 001 points and 151 snapshots 10 steps
    # apart from t_ref, an 11 500-step walk of 719 blocks in 360 aligned pairs.
    # State s >= 1 lies in pair (s - 1) // 32, and the walk forms each pair
    # that holds a read state once and no other.
    params, fluct, t, tau, picks = verify_walk()
    snaps = t.size - 1 + 10 * np.arange(tau.size)
    counting = CountingNumpy()
    monkeypatch.setattr(oracle, "np", counting)
    for reads, pairs in ((picks, 67), (np.arange(t.size), 360)):
        held = np.unique((np.concatenate([reads[reads > 0], snaps]) - 1) // 32)
        assert held.size == pairs
        counting.pair_products = 0
        monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=2, seed=1, picks=reads)
        assert counting.pair_products == pairs


def test_mc_picks_none_is_every_point():
    # A pick's sums are the every-point walk's read at its column, bit for bit,
    # whichever other states are read: on pair edges (states 32, 33), tile
    # edges (1024, 1025, 2048) and verify's 20 picks.
    params, fluct, _ = mc_setup()
    t = 0.05 * np.arange(700)
    tau = 0.05 * np.array([0.0, 30.0, 300.0])
    every = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=6)
    picked = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=6,
                               picks=np.arange(t.size))
    assert np.array_equal(every.times, picked.times)
    for a, b in zip(ensemble_arrays(every), ensemble_arrays(picked)):
        assert np.array_equal(a, b)

    params, fluct, t, tau, verify_picks = verify_walk()
    every = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=6)
    edges = np.array([0, 1, 31, 32, 33, 64, 65, 1023, 1024, 1025, 2048, 2049, 10_000])
    for picks in (verify_picks, edges):
        sparse = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=6,
                                   picks=picks)
        assert np.array_equal(sparse.times, t[picks])
        for a, b in zip(ensemble_arrays(every), ensemble_arrays(sparse)):
            assert np.array_equal(a if a.size == b.size else a[picks], b)


def ensemble_arrays(ens):
    return (ens.mean_occupation, ens.stderr_occupation, ens.mean_two_time, ens.stderr_two_time)


def test_mc_is_independent_of_the_draw_tile(monkeypatch):
    # 4999 + 700 steps: six 1024-step tiles by default, 179 tiles of one pair
    params, fluct, _ = mc_setup()
    t = 0.05 * np.arange(5000)
    tau = 0.05 * np.array([0.0, 1.0, 700.0])
    default = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=8)
    monkeypatch.setattr(oracle, "_MC_TILE_BLOCKS", 2)
    one_pair = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=515, seed=8)
    for a, b in zip(ensemble_arrays(default), ensemble_arrays(one_pair)):
        assert np.array_equal(a, b)


def test_mc_memory_does_not_grow_with_the_walk():
    # a whole-walk draw buffer alone would hold 40 x 100k floats, 32 MB
    params, fluct, _ = mc_setup()
    t = 0.05 * np.arange(100_001)
    tracemalloc.start()
    try:
        monte_carlo_noise(params, fluct, t, n_trials=40, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_mc_memory_with_picks_does_not_grow_with_the_walk():
    # Beyond the temporaries of the t grid's input check, nothing grows with
    # the walk: at 200k steps the per-step sums alone would take 3.2 MB.
    params, fluct, t = mc_setup()
    monte_carlo_noise(params, fluct, t, n_trials=4, seed=2, picks=[1])  # first-call caches
    excess = []
    for n_t in (20_001, 200_001):
        t = 0.05 * np.arange(n_t)
        picks = np.unique(np.linspace(1, n_t - 1, 20).astype(int))
        tracemalloc.start()
        try:
            uniform_steps(t, "t")
            grid = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ens = monte_carlo_noise(params, fluct, t, n_trials=8, seed=2, picks=picks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.times.size == picks.size
        excess.append(peak - grid)
    assert max(excess) < 1e5


def verify_walk():
    """verify's Monte-Carlo geometry: 20 picks on 10 001 points, 151 lags 10 steps apart."""
    params = CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)
    t = oracle.noise_times(params)
    tau = np.arange(0.0, oracle.NOISE_KAPPA_TAU / params.kappa + 0.1, 0.2)
    picks = np.unique(np.linspace(1, t.size - 1, 20).astype(int))
    assert (t.size, tau.size, picks.size) == (10_001, 151, 20)
    return params, FluctuationModel(0.2), t, tau, picks


def test_mc_chunk_heap_with_verify_reads():
    # One 512-trial chunk of verify's walk, 20 picks and 151 snapshots 10 steps
    # apart.  The walk holds the 4 MB draw tile, the block ends and one pair of
    # read blocks with its sums' temporaries at a time: about 5.9 MB.  The bound
    # fails a walk that keeps slab-wide state and product buffers and a
    # chunk-wide snapshot table (10.4 MB).
    params, fluct, t, tau, picks = verify_walk()
    monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=4, seed=1, picks=picks)
    tracemalloc.start()
    try:
        monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=512, seed=1234,
                          picks=picks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# Digests of the walk's statistics on verify's read pattern, the same at 1 and
# 2 OpenBLAS threads: one full chunk and one of 88 trials, and a last chunk
# of one trial.
@pytest.mark.parametrize("n_trials, digest", [
    (600, "85802e63067d74e34c75727477d619af67789007fb61418caecf47e0dba187ac"),
    (513, "c00e3931c6254564c8bef9ddeb0c435029d652028937055909ab48bde5d1fbf4"),
], ids=["600-trials", "513-trials"])
def test_mc_bytes_on_verify_reads_are_pinned(n_trials, digest):
    params, fluct, t, tau, picks = verify_walk()
    ens = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=n_trials, seed=1234,
                            picks=picks)
    assert ensemble_digest(ens) == digest


def test_mc_bytes_with_lone_lags_are_pinned():
    # Lags 16 steps apart leave a single snapshot in some pairs of read
    # blocks; numpy must still sum its products row by row.
    params, fluct, _ = mc_setup()
    t = 0.05 * np.arange(3000)
    picks = np.unique(np.linspace(1, t.size - 1, 20).astype(int))
    ens = monte_carlo_noise(params, fluct, t, tau_grid=0.05 * np.arange(0.0, 800.0, 16.0),
                            n_trials=513, seed=8, picks=picks)
    assert ensemble_digest(ens) == \
        "addbea8b09a21454b256bf6e4bcbf27879ed43861f33150cd989f84bfad51e90"


def ensemble_digest(ens):
    return hashlib.sha256(b"".join(a.tobytes() for a in ensemble_arrays(ens))).hexdigest()


def test_mc_is_independent_of_blas_threads():
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from leaky_cavity.cavity import CavityParams\n"
        "from leaky_cavity.dipole import FluctuationModel\n"
        "from leaky_cavity.oracle import monte_carlo_noise\n"
        "t = np.arange(0.0, 60.0 + 0.025, 0.05)\n"
        "ens = monte_carlo_noise(CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1),\n"
        "                        FluctuationModel(0.2), t, tau_grid=np.arange(0.0, 20.01, 0.5),\n"
        "                        n_trials=600, seed=9)\n"
        "arrays = (ens.mean_occupation, ens.stderr_occupation, ens.mean_two_time,\n"
        "          ens.stderr_two_time)\n"
        "print(hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_mc_two_time_decay():
    params, fluct, t = mc_setup()
    tau = np.arange(0.0, 20.0 + 0.025, 2.0)
    ens = monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=1200, seed=5)
    assert ens.reference_time == t[-1]
    c_delta = fluct.delta * params.g_q ** 2 / (2.0 * params.kappa)
    expected = c_delta * np.exp(-(1j * params.omega_q + params.kappa) * tau)
    pulls = np.abs(ens.mean_two_time - expected) / ens.stderr_two_time
    assert np.max(pulls) < 5.0


def test_mc_error_contracts():
    params, fluct, t = mc_setup()
    with pytest.raises(ValueError, match="start at 0"):
        monte_carlo_noise(params, fluct, t + 1.0, n_trials=4, seed=0)
    # a lag of 1.5e308 overflowed tau / h, numpy's RuntimeWarning under -W error
    for tau in ([0.0, 0.07], [0.0, 1e300], [0.0, 1.5e308]):
        with pytest.raises(ValueError, match="multiples of the t step"):
            monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=4, seed=0)
    # NaN and inf raised numpy's "invalid value encountered in cast" under -W error;
    # the time rule of every closed form refuses them first
    for tau in ([0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="^tau must be finite$"):
            monte_carlo_noise(params, fluct, t, tau_grid=tau, n_trials=4, seed=0)
    with pytest.raises(ValueError, match="step too large"):
        monte_carlo_noise(params, fluct, np.arange(0.0, 10.0, 0.5), n_trials=4, seed=0)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        monte_carlo_noise(params, fluct, t, n_trials=4, seed=-1)
    for n_trials in (0, 1):  # no mean, or a standard error of 0 and infinite pulls
        with pytest.raises(ValueError, match="n_trials must be at least 2"):
            monte_carlo_noise(params, fluct, t, n_trials=n_trials, seed=0)
    bad_picks = {"out of range": [0, t.size], "negative": [-1, 3], "unsorted": [5, 2],
                 "duplicated": [2, 2, 7], "non-integer": [1.0, 2.0], "empty": [],
                 "two-dimensional": [[1, 2]]}
    for picks in bad_picks.values():
        with pytest.raises(ValueError, match="picks"):
            monte_carlo_noise(params, fluct, t, n_trials=4, seed=0, picks=picks)


def test_bath_discretization_bookkeeping():
    bath = BathDiscretization.for_damping(kappa=0.05, center=1.0, n_modes=401,
                                          half_width=2.0)
    assert bath.spacing == pytest.approx(0.01)
    assert bath.kappa_effective == pytest.approx(0.05)
    assert bath.recurrence_time == pytest.approx(2.0 * np.pi / 0.01)
    freqs = bath.frequencies()
    assert freqs[0] == pytest.approx(-1.0)
    assert freqs[-1] == pytest.approx(3.0)
    with pytest.raises(ValueError):
        BathDiscretization(n_modes=1, center=0.0, half_width=1.0, g0=0.1)
    with pytest.raises(ValueError):
        BathDiscretization(n_modes=10, center=0.0, half_width=-1.0, g0=0.1)


def test_continuum_pole_limits():
    kappa = 0.05
    narrow = BathDiscretization.for_damping(kappa, 1.0, 401, 40 * kappa)
    rate, residue = continuum_pole(narrow)
    assert rate > kappa
    assert residue > 1.0
    wide = BathDiscretization.for_damping(kappa, 1.0, 401, 4000 * kappa)
    rate_wide, residue_wide = continuum_pole(wide)
    assert abs(rate_wide - kappa) < abs(rate - kappa) / 50
    assert abs(residue_wide - 1.0) < abs(residue - 1.0) / 50


def test_discrete_bath_follows_pole_model():
    kappa = 0.05
    params = CavityParams(omega_q=1.0, g_q=0.1, kappa=kappa)
    bath = BathDiscretization.for_damping(kappa, params.omega_q, 401, 40 * kappa)
    t = np.linspace(0.0, 5.0 / kappa, 128)
    result = discrete_bath_decay(bath, params, t)
    assert result.norm_error < 1e-8
    assert result.series.values[0] == pytest.approx(1.0)
    rate, residue = continuum_pole(bath)
    target = residue * np.exp(-rate * t)
    assert np.max(np.abs(np.abs(result.series.values) - target)) < 0.05


@pytest.mark.parametrize("bath, omega_q", [
    (BathDiscretization.for_damping(0.05, 1.0, 1000, 2.0), 1.0),
    (BathDiscretization.for_damping(0.05, 1.0, 2000, 2.0), 1.0),
    (BathDiscretization.for_damping(0.05, 1.0, 2001, 2.0), 1.0),
    (BathDiscretization(n_modes=1500, center=1.0, half_width=2.0, g0=1e-4), 1.0),
    (BathDiscretization.for_damping(0.05, 1.0, 1200, 2.0), 1.7),
    (BathDiscretization(n_modes=400, center=1.0, half_width=2.0, g0=12.5 * 4.0 / 399), 1.0),
    (BathDiscretization.for_damping(0.05, 1.0, 800, 2.0), 3.5),
], ids=["markov-1000", "markov-2000", "odd-2001-on-mode", "weak-coupling", "off-centre",
        "strong-coupling", "above-band"])
def test_bath_matches_dense_eigh(bath, omega_q):
    h = np.diag(np.concatenate([[omega_q], bath.frequencies()]))
    h[0, 1:] = bath.g0
    h[1:, 0] = bath.g0
    evals, evecs = np.linalg.eigh(h)
    weights = evecs[0] ** 2
    t = np.linspace(0.0, 100.0, 256)
    reference = (np.exp(-1j * np.outer(t, evals)) * weights).sum(axis=1)

    got_evals, got_weights = _arrowhead_spectrum(bath, omega_q)
    assert got_evals == pytest.approx(evals, abs=1e-12)
    assert got_weights == pytest.approx(weights, abs=1e-12)
    result = discrete_bath_decay(bath, CavityParams(omega_q=omega_q, g_q=0.1, kappa=0.05), t)
    assert np.max(np.abs(result.series.values - reference)) <= 1e-12
    assert result.norm_error <= 1e-12


def test_bath_sum_in_row_blocks_is_bit_equal_to_one_shot():
    bath = BathDiscretization.for_damping(0.05, 1.0, 2000, 2.0)
    params = CavityParams(omega_q=1.0, g_q=0.1, kappa=0.05)
    t = np.linspace(0.0, 100.0, 301)
    assert t.size > 2 * (_PHASE_BLOCK_ELEMENTS // (bath.n_modes + 1))  # three blocks or more
    evals, weights = _arrowhead_spectrum(bath, params.omega_q)
    one_shot = (np.exp(-1j * np.outer(t, evals)) * weights).sum(axis=1)
    assert np.array_equal(discrete_bath_decay(bath, params, t).series.values, one_shot)


def test_uncoupled_bath_leaves_the_cavity_oscillating():
    bath = BathDiscretization(n_modes=100, center=1.0, half_width=2.0, g0=0.0)
    params = CavityParams(omega_q=1.3, g_q=0.1, kappa=0.05)
    t = np.linspace(0.0, 50.0, 64)
    result = discrete_bath_decay(bath, params, t)
    assert result.series.values == pytest.approx(np.exp(-1j * params.omega_q * t), abs=1e-15)
    assert result.norm_error == 0.0


def test_digamma_matches_scipy():
    from scipy.special import polygamma, psi

    z = np.concatenate([np.linspace(0.5, 30.0, 2001), [4000.5, 1e5]])
    digamma, trigamma = _digamma(z)
    assert digamma == pytest.approx(psi(z), rel=1e-15, abs=2e-15)
    assert trigamma == pytest.approx(polygamma(1, z), rel=2e-15)


def test_discrete_bath_rejects_recurrence_horizon():
    bath = BathDiscretization.for_damping(0.05, 1.0, 101, 2.0)
    params = CavityParams(omega_q=1.0, g_q=0.1, kappa=0.05)
    too_long = np.linspace(0.0, 1.1 * bath.recurrence_time, 64)
    with pytest.raises(ValueError, match="undersized bath: .* recurrence time"):
        discrete_bath_decay(bath, params, too_long)
