"""Acceptance gate: every closed form against its independent oracle.

One test per criterion; each prints the [PASS]/[FAIL] line of the underlying
check (run with ``-s`` to see them) and asserts it.  The same suite backs the
``leaky-cavity verify`` command.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from leaky_cavity import artifacts, oracle, runner, verification
from leaky_cavity.cli import EXIT_OK, EXIT_ORACLE, default_scenario_path, main


def report(results):
    for result in results:
        print(result.line())
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failed checks: {failed}"


@pytest.fixture(scope="module")
def amplitude_results():
    return verification.check_amplitude_and_occupation(seed=1234)


@pytest.fixture(scope="module")
def noise_bundle():
    return verification._noise_benchmark(seed=1234)


def test_criterion_1_amplitude_vs_ode_oracle(amplitude_results):
    report(amplitude_results[:1])


def test_criterion_2_occupation_vs_ode_oracle(amplitude_results):
    report(amplitude_results[1:])


def test_criterion_3_monte_carlo_noise_law(noise_bundle):
    report(verification.check_noise_law(noise_bundle))


def test_noise_benchmark_reports_twenty_times(noise_bundle):
    _, _, ens = noise_bundle
    t = np.arange(0.0, 200.0 + 0.01, 0.02)
    assert np.array_equal(ens.times, t[np.unique(np.linspace(1, t.size - 1, 20).astype(int))])
    assert ens.times.size == ens.mean_occupation.size == ens.stderr_occupation.size == 20


def test_noise_gate_calls_shipped_noise_law(noise_bundle, monkeypatch):
    from leaky_cavity import cavity

    shipped = cavity.dipole_noise_occupation
    assert artifacts.dipole_noise_occupation is shipped
    monkeypatch.setattr(artifacts, "dipole_noise_occupation",
                        lambda *args: 2.0 * shipped(*args))
    assert not any(r.passed for r in verification.check_noise_law(noise_bundle))


def test_criterion_1_judges_the_blocks_run_judges(monkeypatch):
    # the amplitude figure is artifacts.judged_ode_blocks', the generator run writes from;
    # the points are counted out to a tenth of each t_end, a tenth of the cost
    shipped, shipped_points, judges = artifacts.judged_ode_blocks, oracle.amplitude_ode_points, []
    assert verification.judged_ode_blocks is shipped

    def judged(params, spectrum, n, deviation):
        judges.append(deviation)
        return shipped(params, spectrum, n, deviation)

    monkeypatch.setattr(verification, "judged_ode_blocks", judged)
    monkeypatch.setattr(verification, "amplitude_ode_points",
                        lambda params, spectrum, t_end: shipped_points(params, spectrum,
                                                                       t_end / 10.0))
    amplitude = verification.check_amplitude_and_occupation(seed=1234)[0]
    assert len(judges) == 50
    assert amplitude.measured == max(deviation.value() for deviation in judges)


def test_noise_gate_fails_a_zero_spread_ensemble(noise_bundle):
    # every trial drawing the same noise leaves no standard error to judge by
    params, fluct, ens = noise_bundle
    frozen = replace(ens, stderr_occupation=np.zeros_like(ens.stderr_occupation))
    with np.errstate(divide="ignore", invalid="ignore"):
        results = verification.check_noise_law((params, fluct, frozen))
    assert not any(r.passed for r in results)


# Each figure of the bound table, a verify check that judges it, and the run of
# that check: the Monte-Carlo checks read the module's bundle, and criterion 1
# counts its points out to a tenth of each t_end, which keeps its code path at a
# tenth of the cost.
BOUND_CHECKS = [
    ("amplitude_oracle_max_rel_deviation", "coherent amplitude vs ODE oracle", "amplitude"),
    ("noise_oracle_max_pull_stderr", "Monte-Carlo noise occupation law", "noise"),
    ("noise_oracle_max_pull_stderr", "QRT tau=0 convention adjudication", "qrt"),
    ("bath_oracle_max_rel_deviation", "Markov decay, 2000 modes", "markov"),
    ("bath_oracle_norm_error", "single-excitation norm conservation", "markov"),
]


@pytest.mark.parametrize("figure, name, check", BOUND_CHECKS,
                         ids=[f"{figure}-{check}" for figure, _, check in BOUND_CHECKS])
def test_verify_judges_each_figure_by_the_bound_table(noise_bundle, monkeypatch, figure, name,
                                                      check):
    shipped_points = verification.amplitude_ode_points
    monkeypatch.setattr(verification, "amplitude_ode_points",
                        lambda params, spectrum, t_end: shipped_points(params, spectrum,
                                                                       t_end / 10.0))
    runs = {"amplitude": lambda: verification.check_amplitude_and_occupation(seed=1234),
            "noise": lambda: verification.check_noise_law(noise_bundle),
            "qrt": lambda: verification.check_qrt_convention(noise_bundle),
            "markov": verification.check_markov_decay}

    def judged():
        return next(r for r in runs[check]() if r.name == name)

    first = judged()
    assert first.tolerance == runner.BOUNDS[figure]
    # at its own measured value the check passes, and one step below it fails
    for bound, passed in ((first.measured, True), (np.nextafter(first.measured, -np.inf), False)):
        monkeypatch.setitem(runner.BOUNDS, figure, bound)
        result = judged()
        assert (result.measured, result.tolerance, result.passed) == (first.measured, bound,
                                                                      passed)


def test_criterion_1_counts_the_arange_grid(monkeypatch):
    # the grid np.arange(0, t_end + h/2, h) of each of seed 1234's scenarios, given by its
    # count, run's rule for its amplitude oracle
    scenarios = []

    def count(params, spectrum, t_end):
        scenarios.append((params, spectrum, t_end))
        return oracle.amplitude_ode_points(params, spectrum, t_end)

    monkeypatch.setattr(verification, "amplitude_ode_points", count)
    monkeypatch.setattr(artifacts, "amplitude_ode_blocks", lambda *args: iter(()))
    verification.check_amplitude_and_occupation(seed=1234)
    assert len(scenarios) == 50
    cases = [(params, spectrum, k * oracle.amplitude_ode_step(params, spectrum))
             for params, spectrum, _ in scenarios[:5] for k in (1, 2, 3, 1000, 4567, 1_000_003)]
    for params, spectrum, t_end in scenarios + cases:
        h = oracle.amplitude_ode_step(params, spectrum)
        grid = np.arange(0.0, t_end + h / 2, h)
        assert oracle.amplitude_ode_points(params, spectrum, t_end) == grid.size
        points = h * np.arange(grid.size)
        assert np.array_equal(points.view(np.uint64), grid.view(np.uint64))


def _nan_in_one_scenario(monkeypatch):
    # the closed form of criterion 1's tenth scenario reads NaN throughout
    closed, seen = artifacts.mode_amplitude, []

    def amplitude(params, spectrum, t):
        if params not in seen:
            seen.append(params)
        return closed(params, spectrum, t) * (np.nan if len(seen) == 10 else 1.0)

    monkeypatch.setattr(artifacts, "mode_amplitude", amplitude)


def _nan_line_weight(monkeypatch):
    # the expected weight of the second line of the WKT round trip's comb, the one with
    # three lines, is NaN
    shipped = verification.power_spectrum

    def spectrum(*args, **kwargs):
        result = shipped(*args, **kwargs)
        if len(result.lines) == 4:
            result.lines[2, 1] = np.nan
        return result

    monkeypatch.setattr(verification, "power_spectrum", spectrum)


def _nan_bath_norm(monkeypatch):
    # the 2000-mode bath's norm error is NaN
    shipped = verification.discrete_bath_decay

    def decay(bath, params, t):
        result = shipped(bath, params, t)
        return replace(result, norm_error=np.nan) if bath.n_modes == 2000 else result

    monkeypatch.setattr(verification, "discrete_bath_decay", decay)


NAN_FIGURES = {
    "criterion-1-scenario": (_nan_in_one_scenario, "coherent amplitude vs ODE oracle: measured "
                             "nan vs tolerance 1.000e-08 (50 random scenarios)"),
    "wkt-line-weight": (_nan_line_weight,
                        "WKT line weights |A_N|^2: measured nan vs tolerance 1.000e-02"),
    "bath-norm-error": (_nan_bath_norm, "single-excitation norm conservation: measured nan vs "
                        "tolerance 1.000e-08"),
}


@pytest.mark.parametrize("inject, line", NAN_FIGURES.values(), ids=NAN_FIGURES.keys())
def test_a_nan_figure_fails_its_line_and_verify_exits_2(amplitude_results, noise_bundle,
                                                        monkeypatch, capsys, inject, line):
    # the Monte-Carlo bundle, and criteria 1 and 2 where nothing is injected into them,
    # are the module's
    monkeypatch.setattr(verification, "_noise_benchmark", lambda seed: noise_bundle)
    if inject is not _nan_in_one_scenario:
        monkeypatch.setattr(verification, "check_amplitude_and_occupation",
                            lambda seed: amplitude_results)
    inject(monkeypatch)
    assert main(["verify", "--seed-override", "1234"]) == EXIT_ORACLE
    out = capsys.readouterr().out.splitlines()
    assert [text for text in out if not text.startswith("[PASS]")] == [
        f"[FAIL] {line}", f"{len(out) - 2}/{len(out) - 1} checks passed"]


def test_criterion_4_longtime_limit():
    report(verification.check_longtime_limit())


def test_criterion_5_qrt_convention_adjudication(noise_bundle):
    report(verification.check_qrt_convention(noise_bundle))


def test_criterion_6_spectrum_round_trip():
    report(verification.check_spectrum_round_trip())


def test_criterion_7_radiated_power_consistency():
    report(verification.check_power_consistency())


def test_criterion_8_markov_decay():
    report(verification.check_markov_decay())


def test_criterion_9_deterministic_outputs():
    report(verification.check_determinism(default_scenario_path()))


def _seeded(fixture, expected):
    """A stand-in for a random check that returns ``fixture`` once given the seed ``expected``."""
    def check(seed):
        assert seed == expected
        return fixture
    return check


def test_verify_stdout_is_pinned(amplitude_results, noise_bundle, monkeypatch, capsys):
    """``leaky-cavity verify --seed-override 1234`` prints exactly the recorded text.

    Criteria 1, 2, 3 and 5 read the module's seed-1234 fixtures, which verify must ask
    for at seed 1234; the text was recorded from the command itself.
    """
    monkeypatch.setattr(verification, "check_amplitude_and_occupation",
                        _seeded(amplitude_results, 1234))
    monkeypatch.setattr(verification, "_noise_benchmark", _seeded(noise_bundle, 1234))
    assert main(["verify", "--seed-override", "1234"]) == EXIT_OK
    recorded = Path(__file__).with_name("data") / "verify_seed_1234.stdout"
    assert capsys.readouterr().out == recorded.read_text()


@pytest.fixture
def unseeded_path(tmp_path):
    """The shipped scenario asking for the Monte-Carlo walk, with no oracle.seed."""
    shipped = yaml.safe_load(Path(default_scenario_path()).read_text())
    path = tmp_path / "unseeded.yaml"
    path.write_text(yaml.safe_dump({**shipped, "oracle": {"n_trials": 20},
                                    "outputs": ["noise_oracle"]}))
    return path


def test_the_determinism_reruns_take_the_seed_override(unseeded_path):
    assert [r.passed for r in verification.check_determinism(unseeded_path,
                                                             seed_override=5)] == [True]


def test_verify_seeds_from_an_override_the_scenario_needs(amplitude_results, noise_bundle,
                                                          unseeded_path, monkeypatch, capsys):
    monkeypatch.setattr(verification, "check_amplitude_and_occupation",
                        _seeded(amplitude_results, 5))
    monkeypatch.setattr(verification, "_noise_benchmark", _seeded(noise_bundle, 5))
    assert main(["verify", "--config", str(unseeded_path), "--seed-override", "5"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("\n15/15 checks passed\n")
