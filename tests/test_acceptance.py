"""Acceptance gate: every closed form against its independent oracle.

One test per criterion; each prints the [PASS]/[FAIL] line of the underlying
check (run with ``-s`` to see them) and asserts it.  The same suite backs the
``leaky-cavity verify`` command.
"""

from dataclasses import replace

import numpy as np
import pytest

from leaky_cavity import runner, verification
from leaky_cavity.cli import default_scenario_path


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
    assert runner.dipole_noise_occupation is shipped
    monkeypatch.setattr(runner, "dipole_noise_occupation",
                        lambda *args: 2.0 * shipped(*args))
    assert not any(r.passed for r in verification.check_noise_law(noise_bundle))


def test_noise_gate_fails_a_zero_spread_ensemble(noise_bundle):
    # every trial drawing the same noise leaves no standard error to judge by
    params, fluct, ens = noise_bundle
    frozen = replace(ens, stderr_occupation=np.zeros_like(ens.stderr_occupation))
    with np.errstate(divide="ignore", invalid="ignore"):
        results = verification.check_noise_law((params, fluct, frozen))
    assert not any(r.passed for r in results)


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
