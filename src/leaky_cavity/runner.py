"""Scenario execution: compute the requested artifacts and write a manifest."""

import hashlib
import os

import numpy as np

from . import io as lcio
from .cavity import CavityParams, dipole_noise_occupation, mode_amplitude, occupation
from .correlation import stationary_correlation, two_time_correlation
from .dipole import FluctuationModel, SeriesBlocks, synthesize_mean_dipole
from .oracle import NOISE_KAPPA_TAU, BathDecayResult, BathDiscretization, \
    TrajectoryEnsemble, amplitude_ode_blocks, amplitude_ode_points, bath_times, cavity_bath, \
    continuum_pole, discrete_bath_decay, monte_carlo_noise, noise_points, noise_step, noise_times
from .scenario import load_scenario
from .spectrum import integrated_power, power_spectrum


def _sha256(path) -> str:
    """Hex SHA-256 of the file at ``path``, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


# Oracle-vs-closed-form measures, shared with ``verification``; each caller
# picks its own times.  BOUNDS holds the bound of each figure a run puts into
# its manifest ``checks``, and ``verify`` judges its checks of them by it.
# ``run`` judges each figure but the Monte-Carlo max pull, which it takes over
# every grid point: no look-elsewhere rule for that maximum is set yet.
BOUNDS = {
    "amplitude_oracle_max_rel_deviation": 1e-8,
    "noise_oracle_max_pull_stderr": 5.0,
    "bath_oracle_max_rel_deviation": 0.02,
    "bath_oracle_norm_error": 1e-8,
}


def failed_checks(checks: dict) -> list:
    """Names of the figures in ``checks`` beyond their bound, the max pull aside; NaN fails."""
    return [name for name, value in checks.items()
            if name != "noise_oracle_max_pull_stderr" and not value <= BOUNDS[name]]


class RelativeDeviation:
    """Max |value - reference| over max |reference|, taken block by block.

    ``add`` takes the arrays of one block; both maxima are exact, so the figure
    is that of the whole arrays.  NaN propagates.
    """

    def __init__(self):
        self.maxima = np.zeros(2)

    def add(self, value, reference):
        np.maximum(self.maxima, [np.max(np.abs(reference)), np.max(np.abs(value - reference))],
                   out=self.maxima)

    def value(self) -> float | None:
        """The figure; None if the reference is 0 throughout."""
        scale, deviation = self.maxima
        return None if scale == 0 else float(deviation / scale)


def pull(mean, model, stderr) -> np.ndarray:
    """|mean - model| / stderr: how many standard errors a Monte-Carlo mean lies from its model."""
    return np.abs(mean - model) / stderr


def noise_pulls(params: CavityParams, fluct: FluctuationModel, ens: TrajectoryEnsemble,
                picks) -> np.ndarray:
    """|MC occupation - dipole_noise_occupation| / stderr at times[picks]; inf/nan at stderr 0."""
    closed = dipole_noise_occupation(params, fluct, ens.times[picks])
    return pull(ens.mean_occupation[picks], closed, ens.stderr_occupation[picks])


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
    params, spectrum = config.cavity, config.spectrum
    deviation = RelativeDeviation()
    n = amplitude_ode_points(params, spectrum, float(config.t_grid[-1]))

    def blocks():
        for block in amplitude_ode_blocks(params, spectrum, n):
            # the ODE's <a> against the closed form's conjugate, <a^dagger>
            deviation.add(block.values, np.conjugate(mode_amplitude(params, spectrum, block.times)))
            yield block

    lcio.write_timeseries_csv(target("amplitude_oracle.csv"), SeriesBlocks(n, blocks()),
                              label="alpha")
    figure = deviation.value()
    return {} if figure is None else {"amplitude_oracle_max_rel_deviation": figure}


def noise_lag_steps(params: CavityParams) -> np.ndarray:
    """The lags of run's Monte-Carlo oracle, as indices into ``noise_times(params)``.

    Every (n_t // 200)-th point of the n_t-point grid out to kappa tau =
    NOISE_KAPPA_TAU, found by counting, so the grid need not be built.
    """
    n_t = noise_points(params)
    h = noise_step(params)
    limit = NOISE_KAPPA_TAU / params.kappa
    last = min(int(limit / h), n_t - 1)  # the last k whose point k * h is at most limit
    while last + 1 < n_t and (last + 1) * h <= limit:
        last += 1
    while last * h > limit:
        last -= 1
    return np.arange(0, last + 1, max(1, n_t // 200))


def noise_walk_steps(params: CavityParams) -> int:
    """Steps of run's Monte-Carlo walk: those of ``noise_times`` and then its largest lag."""
    return noise_points(params) - 1 + int(noise_lag_steps(params)[-1])


def _noise_oracle(config, target):
    t = noise_times(config.cavity)
    tau = t[noise_lag_steps(config.cavity)]
    ens = monte_carlo_noise(config.cavity, config.fluctuation, t, tau_grid=tau,
                            n_trials=config.oracle.n_trials, seed=config.oracle.seed)
    lcio.write_ensemble_csv(target("noise_oracle.csv"), ens, which="occupation")
    lcio.write_ensemble_csv(target("noise_oracle_two_time.csv"), ens, which="two_time")
    with np.errstate(divide="ignore", invalid="ignore"):
        pulls = noise_pulls(config.cavity, config.fluctuation, ens, slice(1, None))
    # the manifest reports no pull where the standard error is 0: with delta = 0 (or
    # g_q = 0) every trial stays in the vacuum; a NaN standard error keeps its NaN pull
    pulls = np.where(ens.stderr_occupation[1:] == 0, 0.0, pulls)
    return {"noise_oracle_max_pull_stderr": float(np.max(pulls))}


def _bath_oracle(config, target):
    bath = cavity_bath(config.cavity, config.oracle.bath_modes,
                       config.oracle.bath_half_width_kappas)
    result = discrete_bath_decay(bath, config.cavity, bath_times(config.cavity))
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
    config = load_scenario(config_path, seed_override)
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
    if failed := failed_checks(checks):
        manifest["failed_checks"] = failed
    lcio._write_json(os.path.join(output_dir, "manifest.json"), manifest)
    return manifest
