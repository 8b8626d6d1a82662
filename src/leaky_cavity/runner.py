"""Scenario execution: compute the requested artifacts and write a manifest."""

import hashlib
import os
from dataclasses import replace

import numpy as np

from . import io as lcio
from .cavity import CavityParams, dipole_noise_occupation, mode_amplitude, occupation
from .correlation import stationary_correlation, two_time_correlation
from .dipole import DipoleSpectrum, FluctuationModel, TimeSeries, synthesize_mean_dipole
from .oracle import BathDecayResult, BathDiscretization, TrajectoryEnsemble, \
    amplitude_ode_step, continuum_pole, discrete_bath_decay, integrate_amplitude_ode, \
    monte_carlo_noise
from .scenario import load_scenario
from .spectrum import integrated_power, power_spectrum

# The bath oracle follows the decay out to kappa*t = 5.
BATH_KAPPA_T = 5.0


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def oracle_bath(cavity, oracle) -> BathDiscretization:
    """The discrete bath that the bath oracle couples the scenario's cavity to."""
    return BathDiscretization.for_damping(cavity.kappa, cavity.omega_q, oracle.bath_modes,
                                          oracle.bath_half_width_kappas * cavity.kappa)


# Oracle-vs-closed-form measures, shared with ``verification``; each caller
# picks its own times and tolerance.

def amplitude_deviation(params: CavityParams, spectrum: DipoleSpectrum,
                        ode: TimeSeries) -> float | None:
    """Max |conj(ODE oracle) - mode_amplitude| over max |mode_amplitude|; None if that is 0."""
    closed = mode_amplitude(params, spectrum, ode.times)
    scale = float(np.max(np.abs(closed)))
    if scale == 0:
        return None
    return float(np.max(np.abs(np.conj(ode.values) - closed))) / scale


def noise_pulls(params: CavityParams, fluct: FluctuationModel, ens: TrajectoryEnsemble,
                picks) -> np.ndarray:
    """|MC occupation - dipole_noise_occupation| / stderr at times[picks]; inf/nan at stderr 0."""
    closed = dipole_noise_occupation(params, fluct, ens.times[picks])
    return np.abs(ens.mean_occupation[picks] - closed) / ens.stderr_occupation[picks]


def bath_deviation(bath: BathDiscretization, result: BathDecayResult) -> float:
    """Max relative deviation of the bath oracle's |alpha(t)| from the continuum-pole decay."""
    rate, residue = continuum_pole(bath)
    target = residue * np.exp(-rate * result.series.times)
    return float(np.max(np.abs(np.abs(result.series.values) - target) / target))


# Each artifact writer takes the scenario and a ``target(name)`` that returns
# the path for a file and records it; an oracle writer returns its manifest
# checks.

def _dipole(config, target):
    lcio.write_dipole_spectrum_json(target("dipole_spectrum.json"), config.spectrum)
    lcio.write_timeseries_csv(target("mean_dipole.csv"),
                              synthesize_mean_dipole(config.spectrum, config.t_grid),
                              label="d")


def _occupation(config, target):
    curve = occupation(config.cavity, config.spectrum, config.fluctuation, config.t_grid)
    lcio.write_occupation_csv(target("occupation.csv"), curve)


def _correlation(config, target):
    stat = stationary_correlation(config.cavity, config.spectrum, config.fluctuation,
                                  config.tau_grid, config.correlation_convention)
    lcio.write_correlation_csv(target("stationary_correlation.csv"), stat)
    two = two_time_correlation(config.cavity, config.spectrum, config.fluctuation,
                               float(config.t_grid[-1]), config.tau_grid,
                               config.correlation_convention)
    lcio.write_correlation_csv(target("two_time_correlation.csv"), two)


def _spectrum(config, target):
    spec = power_spectrum(config.cavity, config.spectrum, config.fluctuation,
                          config.omega_grid, config.normalization)
    lcio.write_spectrum_csv(target("spectrum_lines.csv"), target("spectrum_continuum.csv"),
                            spec)
    lcio.write_spectrum_json(target("spectrum.json"), spec)


def _power(config, target):
    report = integrated_power(config.cavity, config.spectrum, config.fluctuation,
                              config.normalization)
    lcio.write_power_report_json(target("power_report.json"), report)


def _amplitude_oracle(config, target):
    h = amplitude_ode_step(config.cavity, config.spectrum)
    t = np.arange(0.0, float(config.t_grid[-1]) + h / 2, h)
    ode = integrate_amplitude_ode(config.cavity, config.spectrum, t)
    lcio.write_timeseries_csv(target("amplitude_oracle.csv"), ode, label="alpha")
    deviation = amplitude_deviation(config.cavity, config.spectrum, ode)
    return {} if deviation is None else {"amplitude_oracle_max_rel_deviation": deviation}


def _noise_oracle(config, target):
    kappa = config.cavity.kappa
    dt = 0.02 / max(config.cavity.omega_q, kappa)
    t = np.arange(0.0, 20.0 / kappa + dt / 2, dt)
    tau = t[t <= 3.0 / kappa][:: max(1, t.size // 200)]
    ens = monte_carlo_noise(config.cavity, config.fluctuation, t, tau_grid=tau,
                            n_trials=config.oracle.n_trials, seed=config.oracle.seed)
    lcio.write_ensemble_csv(target("noise_oracle.csv"), ens, which="occupation")
    lcio.write_ensemble_csv(target("noise_oracle_two_time.csv"), ens, which="two_time")
    with np.errstate(divide="ignore", invalid="ignore"):
        pulls = noise_pulls(config.cavity, config.fluctuation, ens, slice(1, None))
    # the manifest reports no pull where the standard error is 0 (a single trial)
    pulls = np.where(ens.stderr_occupation[1:] > 0, pulls, 0.0)
    return {"noise_oracle_max_pull_stderr": float(np.max(pulls))}


def _bath_oracle(config, target):
    bath = oracle_bath(config.cavity, config.oracle)
    t = np.linspace(0.0, BATH_KAPPA_T / config.cavity.kappa, 256)
    result = discrete_bath_decay(bath, config.cavity, t)
    lcio.write_timeseries_csv(target("bath_decay.csv"), result.series, label="alpha")
    return {"bath_oracle_max_rel_deviation": bath_deviation(bath, result),
            "bath_oracle_norm_error": result.norm_error}


# Output name (as listed under ``outputs`` in a scenario) -> artifact writer,
# in the order a run writes them.
ARTIFACTS = {
    "dipole": _dipole,
    "occupation": _occupation,
    "correlation": _correlation,
    "spectrum": _spectrum,
    "power": _power,
    "amplitude_oracle": _amplitude_oracle,
    "noise_oracle": _noise_oracle,
    "bath_oracle": _bath_oracle,
}

# A scenario that lists no outputs gets every closed form and no oracle.
DEFAULT_OUTPUTS = tuple(name for name in ARTIFACTS if not name.endswith("_oracle"))


def run(config_path, output_dir, seed_override: int | None = None) -> dict:
    """Run a scenario and return the manifest (also written to manifest.json).

    Partial outputs are removed if any artifact fails.
    """
    config = load_scenario(config_path)
    if seed_override is not None:
        config = replace(config, oracle=replace(config.oracle, seed=seed_override))
    os.makedirs(output_dir, exist_ok=True)
    written = []

    def target(name):
        path = os.path.join(output_dir, name)
        written.append(path)
        return path

    checks = {}
    try:
        for name, write in ARTIFACTS.items():
            if name in config.outputs:
                checks.update(write(config, target) or {})
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise

    manifest = {
        "config_sha256": _sha256(config_path),
        "files": {os.path.basename(p): _sha256(p) for p in written},
        "checks": checks,
    }
    lcio._write_json(os.path.join(output_dir, "manifest.json"), manifest)
    return manifest
