"""The outputs of a run, one record each: writer, load-time budget and oracle flag.

A writer takes the scenario and a ``target(name)`` that returns the path for a
file and records it; an oracle writer returns its manifest checks.  A budget
takes the scenario as loaded, None where a part is refused, and the refused
paths, and returns path -> message for each limit the output's work passes.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from . import io as lcio
from .cavity import CavityParams, dipole_noise_occupation, mode_amplitude, noise_saturation, \
    occupation
from .correlation import stationary_correlation, two_time_correlation
from .dipole import DipoleSpectrum, FluctuationModel, SeriesBlocks, synthesize_mean_dipole
from .oracle import BathDecayResult, BathDiscretization, TrajectoryEnsemble, \
    amplitude_ode_blocks, amplitude_ode_points, amplitude_ode_step, bath_times, cavity_bath, \
    continuum_pole, discrete_bath_decay, monte_carlo_noise, noise_lag_steps, noise_times, \
    noise_walk_steps
from .spectrum import _default_omega_span, integrated_power, power_spectrum

# The budgets' limits, each set from measured time and memory on a 2-vCPU Xeon
# (the README's CLI section has the measurements).
# Largest grids.*.num and default omega grid: time and memory grow linearly in the
# points, and 10^6 t points on the shipped scenario take 1.8 s and 90 MB of peak RSS.
MAX_GRID_POINTS = 10 ** 6
# Largest RK4 steps x comb lines of the amplitude oracle: time only, as it holds one
# row block at a time, at 100-500 ns a step-line, so at most about 25 s.
MAX_ODE_STEP_LINES = 5 * 10 ** 7
# Largest oracle.n_trials x noise_walk_steps: about 25 ns a trial-step, so about 25 s.
MAX_TRIAL_STEPS = 10 ** 9
# Largest noise_walk_steps: about 49 B a step in per-point arrays, so 90 MB of RSS.
MAX_WALK_STEPS = 10 ** 6
# Tail margin K of the walk's |d|^2 over C_Delta: in MAX_TRIAL_STEPS Gaussian draws
# |d|^2 > 100 C_Delta has a chance below 1e9 P(chi^2_1 > 100), about 2e-14, so the
# walk's sums of |d|^4 and of |conj d(t_ref) d|^2 stay below n_trials (K C_Delta)^2.
WALK_TAIL_MARGIN = 100.0


def _float(value) -> float:
    """``value()`` as a float, inf where float arithmetic overflows or divides by 0, silently."""
    with np.errstate(all="ignore"):
        try:
            return float(value())
        except ArithmeticError:
            return math.inf


def _build(errors: dict, path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, or None with its ValueError (or a file's OSError) at ``path``."""
    try:
        return make(*args, **kwargs)
    except (OSError, ValueError) as exc:
        errors[path] = str(exc)
        return None


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


def _spectrum_budget(config, refused) -> dict:
    """The default omega grid's points, where the scenario gives no grids.omega (refused or not)."""
    if (config.omega_grid is None and not {"grids.omega", "grids.omega.num"} & refused
            and config.cavity is not None and config.spectrum is not None):
        points = _float(lambda: _default_omega_span(config.cavity, config.spectrum)[1])
        if points > MAX_GRID_POINTS:
            return {"grids.omega": (
                f"must be given here: the default grid, kappa/20 apart out to 10 kappa above "
                f"the top line, has {points:.10g} points, more than {MAX_GRID_POINTS}")}
    return {}


def _power(config, target):
    report = integrated_power(config.cavity, config.spectrum, config.fluctuation,
                              config.normalization)
    lcio.write_power_report_json(target("power_report.json"), report)


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


def _noise_budget(config, refused) -> dict:
    """The seed, the trial-steps, the walk's steps and its sums of |d|^4."""
    found, cavity, settings = {}, config.cavity, config.oracle
    if settings.seed is None:
        found["oracle.seed"] = "seed is mandatory when Monte-Carlo output is requested"
    if cavity is None or "oracle.n_trials" in refused:
        return found
    steps = _build(found, "oracle.n_trials", noise_walk_steps, cavity)
    if steps is not None and settings.n_trials * steps > MAX_TRIAL_STEPS:
        found["oracle.n_trials"] = (
            f"must be at most {MAX_TRIAL_STEPS // steps} for this cavity's walk of {steps} "
            f"steps ({MAX_TRIAL_STEPS} trial-steps in all), got {settings.n_trials}")
    elif steps is not None and steps > MAX_WALK_STEPS:
        found["cavity"] = (f"must give a Monte-Carlo walk of at most {MAX_WALK_STEPS} steps, "
                           f"got {steps} at omega_q = {cavity.omega_q!r} and "
                           f"kappa = {cavity.kappa!r}")
    elif steps is not None and config.fluctuation is not None:  # a walk within its budget
        sums = _float(lambda: settings.n_trials
                      * (WALK_TAIL_MARGIN * noise_saturation(cavity, config.fluctuation)) ** 2)
        if not math.isfinite(2.0 * sums):
            found["fluctuation.delta"] = (
                f"gives Monte-Carlo sums of |d|^4 up to n_trials ({WALK_TAIL_MARGIN:g} "
                f"C_Delta)^2 = {sums:.3g}; twice it must be a finite float")
    return found


def judged_ode_blocks(params: CavityParams, spectrum: DipoleSpectrum, n: int, deviation):
    """``amplitude_ode_blocks``, each block's <a> fed to ``deviation`` against conj(closed form)."""
    for block in amplitude_ode_blocks(params, spectrum, n):
        deviation.add(block.values, np.conjugate(mode_amplitude(params, spectrum, block.times)))
        yield block


def _amplitude_oracle(config, target):
    params, spectrum = config.cavity, config.spectrum
    deviation = RelativeDeviation()
    n = amplitude_ode_points(params, spectrum, float(config.t_grid[-1]))
    lcio.write_timeseries_csv(target("amplitude_oracle.csv"),
                              SeriesBlocks(n, judged_ode_blocks(params, spectrum, n, deviation)),
                              label="alpha")
    figure = deviation.value()
    return {} if figure is None else {"amplitude_oracle_max_rel_deviation": figure}


def _amplitude_budget(config, refused) -> dict:
    """The ODE's points and step-lines out to t.stop."""
    cavity, spectrum, found = config.cavity, config.spectrum, {}
    if cavity is None or spectrum is None or config.t_grid is None:
        return found
    points = _build(found, "grids.t.stop", amplitude_ode_points, cavity, spectrum,
                    float(config.t_grid[-1]))
    if points is not None and points < 2:
        found["grids.t.stop"] = (
            f"gives the amplitude oracle {points} point at its step "
            f"{amplitude_ode_step(cavity, spectrum)!r}; it needs two, so t.stop must "
            f"exceed half the step")
    elif points is not None and (points - 1) * spectrum.coeffs.size > MAX_ODE_STEP_LINES:
        found["grids.t.stop"] = (
            f"gives the amplitude oracle {points - 1} RK4 steps x {spectrum.coeffs.size} "
            f"comb lines, above its budget of {MAX_ODE_STEP_LINES} step-lines")
    return found


def _bath_oracle(config, target):
    bath = cavity_bath(config.cavity, config.oracle.bath_modes,
                       config.oracle.bath_half_width_kappas)
    result = discrete_bath_decay(bath, config.cavity, bath_times(config.cavity))
    lcio.write_timeseries_csv(target("bath_decay.csv"), result.series, label="alpha")
    return {"bath_oracle_max_rel_deviation": bath_deviation(bath, result),
            "bath_oracle_norm_error": result.norm_error}


def _bath_budget(config, refused) -> dict:
    """The bath's recurrence time against the oracle's horizon."""
    found, cavity, settings = {}, config.cavity, config.oracle
    if cavity is None or {"oracle.bath_modes", "oracle.bath_half_width_kappas"} & refused:
        return found
    bath = _build(found, "oracle.bath_half_width_kappas", cavity_bath, cavity,
                  settings.bath_modes, settings.bath_half_width_kappas)
    if bath is not None:
        _build(found, "oracle.bath_modes", bath.check_horizon, bath_times(cavity)[-1])
    return found


class Artifact(NamedTuple):
    """One output: its writer, its load-time budget, and whether it is an oracle."""

    write: Callable
    budget: Callable = lambda config, refused: {}  # the loader's own limits bound the work
    oracle: bool = False


# Output name (as listed under ``outputs`` in a scenario) -> its record, in the
# order a run writes the outputs and the loader joins their budgets' errors.
ARTIFACTS = {
    "dipole": Artifact(_dipole),
    "occupation": Artifact(_occupation),
    "correlation": Artifact(_correlation),
    "spectrum": Artifact(_spectrum, _spectrum_budget),
    "power": Artifact(_power),
    "noise_oracle": Artifact(_noise_oracle, _noise_budget, oracle=True),
    "amplitude_oracle": Artifact(_amplitude_oracle, _amplitude_budget, oracle=True),
    "bath_oracle": Artifact(_bath_oracle, _bath_budget, oracle=True),
}

# A scenario that lists no outputs gets every closed form and no oracle.
DEFAULT_OUTPUTS = tuple(name for name, artifact in ARTIFACTS.items() if not artifact.oracle)
