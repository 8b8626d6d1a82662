"""Acceptance checks: every closed form against its independent oracle.

Each check returns a CheckResult with the measured figure and its tolerance;
``run_all`` executes the full suite.  The checks pin their own scales
(trial counts, grids, tolerances) so a pass is meaningful regardless of the
calling scenario.  The scenario, loaded before any check runs, gives the random
checks their seed, and the determinism check the configuration it reruns.

The amplitude figure with its ODE blocks, and the Monte-Carlo pull and bath
measures, are ``artifacts``' and their bounds ``runner.BOUNDS``, the same ones
``leaky-cavity run`` puts into its manifest ``checks``; each check applies them
on its own grid.  The Monte-Carlo and bath horizons and the bath are
``oracle``'s.  The determinism check compares the ``files`` of two run
manifests, each run from empty caches.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import runner
from .artifacts import RelativeDeviation, bath_deviation, judged_ode_blocks, noise_pulls, pull
from .cavity import CavityParams, occupation, occupation_longtime
from .correlation import stationary_correlation
from .dipole import DipoleSpectrum, DriveParams, FluctuationModel, _clear_tables, phase_table
from .oracle import BATH_KAPPA_T, NOISE_KAPPA_TAU, amplitude_ode_points, bath_times, cavity_bath, \
    discrete_bath_decay, monte_carlo_noise, noise_step, noise_times
from .scenario import load_scenario
from .spectrum import integrated_power, power_spectrum, spectrum_from_correlation


# The seed of the random checks when the scenario sets none.
DEFAULT_SEED = 1234

# A dipole with no lines, for the checks of the noise terms alone.
_NO_DRIVE = DipoleSpectrum(drive=DriveParams(omega=1.0, n_max=1),
                           coeffs=np.zeros(2, dtype=complex))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] {self.name}: measured {self.measured:.3e} vs tolerance {self.tolerance:.3e}"
        return out + (f" ({self.detail})" if self.detail else "")

    @classmethod
    def within(cls, name: str, measured, tolerance: float, detail: str = ""):
        """The check that ``measured`` is at most ``tolerance``; NaN fails."""
        return cls(name, measured <= tolerance, measured, tolerance, detail)


def _random_scenario(rng) -> tuple[CavityParams, DipoleSpectrum]:
    n_lines = int(rng.integers(1, 6))
    drive = DriveParams(omega=1.0, n_max=n_lines)
    coeffs = np.zeros(n_lines + 1, dtype=complex)
    amplitudes = rng.uniform(0.1, 1.0, n_lines)  # drawn before the phases
    coeffs[1:] = amplitudes * phase_table(rng.uniform(size=n_lines), [2.0 * np.pi])[:, 0]
    spectrum = DipoleSpectrum(drive=drive, coeffs=coeffs)
    params = CavityParams(
        omega_q=float(rng.integers(1, 10)),
        g_q=float(rng.uniform(0.01, 0.2)),
        kappa=float(10.0 ** rng.uniform(-2, 0)),
    )
    return params, spectrum


def _worst(figures) -> float:
    """The largest of ``figures``, NaN if one is NaN, or None (a figure without a scale)."""
    return float(np.max(np.array(figures, dtype=float)))


def check_amplitude_and_occupation(seed: int):
    """Criteria 1 and 2: closed-form amplitude and coherent occupation vs the ODE oracle."""
    n_scenarios = 50
    rng = np.random.default_rng(seed)
    amplitudes, occupations = [], []
    for _ in range(n_scenarios):
        params, spectrum = _random_scenario(rng)
        n = amplitude_ode_points(params, spectrum, float(rng.uniform(10.0, 30.0)))
        amplitude, occ = RelativeDeviation(), RelativeDeviation()
        for block in judged_ode_blocks(params, spectrum, n, amplitude):
            # the block's response sum is cached by the amplitude's closed form
            occ.add(occupation(params, spectrum, FluctuationModel(0.0), block.times).coherent,
                    np.abs(block.values) ** 2)
        amplitudes.append(amplitude.value())
        occupations.append(occ.value())
    detail = f"{n_scenarios} random scenarios"
    return [
        CheckResult.within("coherent amplitude vs ODE oracle", _worst(amplitudes),
                           runner.BOUNDS["amplitude_oracle_max_rel_deviation"], detail),
        CheckResult.within("coherent occupation = |oracle amplitude|^2", _worst(occupations),
                           1e-8, detail),
    ]


def _noise_benchmark(seed: int):
    """The (params, fluct, ensemble) that check_noise_law and check_qrt_convention judge."""
    params = CavityParams(omega_q=1.0, g_q=1.0, kappa=0.1)
    fluct = FluctuationModel(delta=0.2)
    t = noise_times(params)
    dtau = 10 * noise_step(params)
    tau = np.arange(0.0, NOISE_KAPPA_TAU / params.kappa + dtau / 2, dtau)
    picks = np.unique(np.linspace(1, t.size - 1, 20).astype(int))  # incl. saturation
    ensemble = monte_carlo_noise(params, fluct, t, tau_grid=tau,
                                 n_trials=10_000, seed=seed, picks=picks)
    return params, fluct, ensemble


def check_noise_law(bundle):
    """Criterion 3: Monte-Carlo noise occupation vs delta g^2/(2 kappa)(1 - exp(-2 kappa t))."""
    params, fluct, ens = bundle
    worst = float(np.max(noise_pulls(params, fluct, ens, slice(None))))
    return [CheckResult.within("Monte-Carlo noise occupation law", worst,
                               runner.BOUNDS["noise_oracle_max_pull_stderr"],
                               f"max pull over {ens.times.size} time points incl. "
                               f"saturation, {ens.n_trials} trials")]


def check_qrt_convention(bundle):
    """Criterion 5: the MC two-time noise correlator adjudicates the tau = 0 factor."""
    params, fluct, ens = bundle
    pulls = {}
    for conv in ("tau-zero-consistent", "as-written"):
        model = stationary_correlation(params, _NO_DRIVE, fluct, ens.tau, conv)
        pulls[conv] = float(np.max(pull(ens.mean_two_time, model.values, ens.stderr_two_time)))
    bound = runner.BOUNDS["noise_oracle_max_pull_stderr"]
    ok = pulls["tau-zero-consistent"] <= bound < pulls["as-written"]
    return [CheckResult(
        "QRT tau=0 convention adjudication", ok, pulls["tau-zero-consistent"], bound,
        f"tau-zero-consistent pull {pulls['tau-zero-consistent']:.2f} (must pass), "
        f"as-written pull {pulls['as-written']:.2f} (must fail)")]


def check_longtime_limit():
    """Criterion 4: stationary occupation vs the period-averaged finite-time formula."""
    drive = DriveParams(omega=1.0, n_max=5)
    spectrum = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.9, 0.0, 0.4 * np.exp(0.7j), 0.0, 0.15])
    params = CavityParams(omega_q=3.0, g_q=0.05, kappa=0.1)
    fluct = FluctuationModel(delta=0.2)
    t0 = 30.0 / params.kappa
    t = np.linspace(t0, t0 + drive.period, 4001)
    curve = occupation(params, spectrum, fluct, t)
    average = float(np.trapezoid(curve.total, t) / drive.period)
    target = occupation_longtime(params, spectrum, fluct)
    err = abs(average - target) / target
    return [CheckResult.within("long-time occupation vs period average", err, 1e-3,
                               f"period average {average:.6g} vs limit {target:.6g}")]


def check_spectrum_round_trip():
    """Criterion 6: numerical WKT of the stationary correlator recovers lines and Lorentzian."""
    kappa = 0.1
    params = CavityParams(omega_q=2.0, g_q=0.05, kappa=kappa)
    drive = DriveParams(omega=1.0, n_max=3)
    # comparable line weights: a finite-window transform has limited dynamic
    # range, so a 50x weaker neighbor would drown in the strong line's sinc tail
    spectrum = DipoleSpectrum(drive=drive, coeffs=[0.0, 0.9, 0.1 * np.exp(0.4j), 1.0])
    dtau = 0.01 / kappa
    tau = np.arange(0.0, 30.0 / kappa + dtau / 2, dtau)

    results = []
    # coherent lines, noise off
    series = stationary_correlation(params, spectrum, FluctuationModel(0.0), tau,
                                    "tau-zero-consistent")
    domega = 2.0 * np.pi / tau[-1] / 16.0
    omega = np.arange(0.0, 4.0, domega)
    s = spectrum_from_correlation(series, omega)
    expected = power_spectrum(params, spectrum, FluctuationModel(0.0)).lines
    positions, weights = [], []
    for n in (1, 2, 3):
        center = n * drive.omega
        sel = np.abs(omega - center) <= drive.omega / 2.0
        positions.append(abs(omega[sel][np.argmax(s[sel])] - center))
        weights.append(abs(np.trapezoid(s[sel], omega[sel]) - expected[n, 1]) / expected[n, 1])
    worst_pos, worst_weight = _worst(positions), _worst(weights)
    results.append(CheckResult("WKT line positions", worst_pos <= domega + 1e-12,
                               worst_pos, domega, "grid resolution"))
    results.append(CheckResult.within("WKT line weights |A_N|^2", worst_weight, 1e-2))

    # Lorentzian continuum, drive off
    empty = DipoleSpectrum(drive=drive, coeffs=np.zeros(4, dtype=complex))
    series = stationary_correlation(params, empty, FluctuationModel(0.2), tau,
                                    "tau-zero-consistent")
    s = spectrum_from_correlation(series, omega)
    peak_idx = int(np.argmax(s))
    center_err = abs(omega[peak_idx] - params.omega_q)
    half = s[peak_idx] / 2.0
    above = np.nonzero(s >= half)[0]
    lo, hi = above[0], above[-1]

    def crossing(i, j):
        return omega[i] + (half - s[i]) * (omega[j] - omega[i]) / (s[j] - s[i])

    fwhm = crossing(hi, hi + 1) - crossing(lo, lo - 1)
    fwhm_err = abs(fwhm - 2.0 * kappa) / (2.0 * kappa)
    results.append(CheckResult("WKT Lorentzian center", center_err <= domega + 1e-12,
                               center_err, domega, "one grid step"))
    results.append(CheckResult.within("WKT Lorentzian FWHM = 2 kappa", fwhm_err, 0.05))
    return results


def check_power_consistency():
    """Criterion 7: continuum quadrature vs the arctan formula, and the power bound sweep."""
    fluct = FluctuationModel(delta=0.5)
    kappa = 0.1
    params = CavityParams(omega_q=1.0, g_q=0.05, kappa=kappa)
    omega = np.arange(0.0, params.omega_q + 200.0 * kappa, kappa / 20.0)
    result = power_spectrum(params, _NO_DRIVE, fluct, omega)
    quad = float(np.trapezoid(result.continuum, omega))
    report = integrated_power(params, _NO_DRIVE, fluct)
    err = abs(quad - report.p_fluctuation) / report.p_fluctuation
    results = [CheckResult.within("fluctuation power quadrature vs arctan form", err, 1e-2)]

    ratios = np.logspace(-1, 3, 20)
    c = np.pi / kappa  # bath dispersion with g0 = 1 reproducing kappa
    powers = []
    bound_ok = True
    for r in ratios:
        p = CavityParams(omega_q=float(r * kappa), g_q=0.05, g0=1.0, c=c)
        rep = integrated_power(p, _NO_DRIVE, fluct)
        powers.append(rep.p_fluctuation)
        bound_ok &= rep.p_fluctuation <= rep.p_fluctuation_max
    powers = np.array(powers)
    monotone = bool(np.all(np.diff(powers) > 0))
    gap = float(1.0 - powers[-1] / rep.p_fluctuation_max)
    ok = bound_ok and monotone and gap < 1e-2
    results.append(CheckResult("fluctuation power bound sweep", ok, gap, 1e-2,
                               f"monotone={monotone}, bounded={bound_ok}, "
                               "limit gap at omega_q/kappa = 1e3"))
    return results


def check_markov_decay():
    """Criterion 8: discrete-bath decay vs the Markov exponential, with Delta-omega convergence.

    The exponential reference uses the realized continuum pole (rate and
    residue) of the finite band; the convergence figure is the discretization
    deviation, i.e. the change of the trajectory under halving the mode
    spacing at fixed bandwidth, which scales linearly in the spacing.
    """
    params = CavityParams(omega_q=1.0, g_q=0.05, kappa=0.05)
    t = bath_times(params)

    amplitudes, norm_errors = {}, []
    for n_modes in (1000, 2000, 4000):
        bath = cavity_bath(params, n_modes)
        result = discrete_bath_decay(bath, params, t)
        amplitudes[n_modes] = result.series.values
        norm_errors.append(result.norm_error)
        if n_modes == 2000:
            dev = bath_deviation(bath, result)
    coarse = float(np.max(np.abs(amplitudes[1000] - amplitudes[2000])))
    fine = float(np.max(np.abs(amplitudes[2000] - amplitudes[4000])))
    ratio = fine / coarse
    return [
        CheckResult.within("Markov decay, 2000 modes", dev,
                           runner.BOUNDS["bath_oracle_max_rel_deviation"],
                           "max relative deviation from the Markov exponential, "
                           f"kappa t <= {BATH_KAPPA_T:g}"),
        CheckResult.within("single-excitation norm conservation", _worst(norm_errors),
                           runner.BOUNDS["bath_oracle_norm_error"]),
        CheckResult("discretization deviation halves when spacing halves",
                    0.35 <= ratio <= 0.65, ratio, 0.5,
                    f"deviation {coarse:.3e} -> {fine:.3e}"),
    ]


def check_determinism(config_path, seed_override: int | None = None):
    """Criterion 9: two runs of the same scenario, each from empty caches, write the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        _clear_tables()
        first = runner.run(config_path, os.path.join(tmp, "a"), seed_override=seed_override)
        _clear_tables()
        second = runner.run(config_path, os.path.join(tmp, "b"), seed_override=seed_override)
        same = first["files"] == second["files"]
    return [CheckResult("byte-identical reruns", same, 0.0 if same else 1.0, 0.0,
                        "sha256 over all numerical outputs")]


def run_all(config_path, seed_override: int | None = None):
    """The full suite on the scenario at ``config_path``, loaded first, in criterion order.

    Its ``oracle.seed`` (``seed_override`` in its place), else DEFAULT_SEED, seeds the
    random checks; the determinism check reruns it with the same override.
    """
    seed = load_scenario(config_path, seed_override).oracle.seed
    seed = DEFAULT_SEED if seed is None else seed
    return [*check_amplitude_and_occupation(seed=seed),
            *check_noise_law(bundle := _noise_benchmark(seed)), *check_longtime_limit(),
            *check_qrt_convention(bundle), *check_spectrum_round_trip(),
            *check_power_consistency(), *check_markov_decay(),
            *check_determinism(config_path, seed_override)]
