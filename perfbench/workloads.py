"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Each workload has ``prepare`` (make inputs under a work directory, before any
timing), ``scenario_path`` (the file its set-up loads), ``setup`` (load it in
this process), ``op`` (one timed operation), and ``check_setup`` and ``check``
(the failures of the set-up and of one operation's output; empty when correct).
"""

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np
import yaml

import leaky_cavity
from leaky_cavity import cli
from leaky_cavity import io as lcio
from leaky_cavity import scenario as lcscenario

HERE = os.path.dirname(os.path.abspath(__file__))
SHIPPED_SCENARIO = cli.default_scenario_path()
GOLDEN_RUN_SHIPPED = os.path.join(HERE, "golden", "run_shipped.sha256.json")

# Fewer checks than this means the acceptance suite lost one.
MIN_VERIFY_CHECKS = 15


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Shared defaults: no inputs to make, the shipped scenario, nothing to check at set-up."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        pass

    def scenario_path(self):
        return SHIPPED_SCENARIO

    def setup(self):
        lcscenario.load_scenario(self.scenario_path())

    def check_setup(self):
        return []


class RunShipped(Workload):
    """``leaky-cavity run`` on the shipped scenario into a fresh directory."""

    default_seed = 7  # the shipped scenario's oracle seed

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.count = 0
        with open(GOLDEN_RUN_SHIPPED) as fh:
            self.golden = json.load(fh)

    def op(self):
        self.count += 1
        out = os.path.join(self.workdir, f"run-{self.count}")
        # the shipped scenario requests no seeded artifact, so the seed leaves
        # the bytes (and the golden hashes) unchanged
        code, _ = _call_cli(["run", "--config", SHIPPED_SCENARIO, "--out", out,
                             "--seed-override", str(self.seed)])
        return code, out

    def check(self, result):
        code, out = result
        try:
            if code != 0:
                return [f"exit code {code}"]
            hashes = {name: _sha256(os.path.join(out, name)) for name in os.listdir(out)}
            return [f"{name}: sha256 differs from the golden set"
                    for name in sorted(set(hashes) | set(self.golden))
                    if hashes.get(name) != self.golden.get(name)]
        finally:
            shutil.rmtree(out, ignore_errors=True)


class VerifyFull(Workload):
    """``leaky-cavity verify`` with the benchmark seed as ``--seed-override``."""

    default_seed = 1234  # the seed `verification.run_all` defaults to

    def op(self):
        return _call_cli(["verify", "--seed-override", str(self.seed)])

    def check(self, result):
        code, text = result
        lines = text.splitlines()
        checks = [ln for ln in lines if ln.startswith(("[PASS]", "[FAIL]"))]
        failures = [ln for ln in checks if not ln.startswith("[PASS]")]
        if code != 0:
            failures.append(f"exit code {code}")
        if len(checks) < MIN_VERIFY_CHECKS:
            failures.append(f"{len(checks)} checks reported, expected at least "
                            f"{MIN_VERIFY_CHECKS}")
        if not lines or lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
            failures.append(f"summary line {lines[-1] if lines else None!r}")
        return failures


class SweepSeries(Workload):
    """Closed forms over a seeded detuning scan, driven by a dipole read from CSV.

    The comb has 16 lines and the time and lag grids 20001 points each, so the
    closed forms dominate; the Wiener-Khinchin window has 16 frequencies, small
    enough not to swamp them.  Nothing is written and no oracle runs.
    """

    default_seed = 2025
    n_max = 15
    periods = 40
    samples_per_period = 1024
    n_points = 16
    n_wkt = 16
    convention = "tau-zero-consistent"
    rtol = 1e-12

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        n = np.arange(1, self.n_max + 1)
        self.comb = np.zeros(self.n_max + 1, dtype=complex)
        self.comb[0] = rng.uniform(-0.2, 0.2)  # a real signal has a real DC term
        self.comb[1:] = rng.uniform(0.2, 1.0, self.n_max) / n * np.exp(
            2j * np.pi * rng.uniform(size=self.n_max))
        self.points = [leaky_cavity.CavityParams(omega_q=float(w), g_q=float(g),
                                                 kappa=float(k))
                       for w, g, k in zip(np.sort(rng.uniform(1.0, self.n_max, self.n_points)),
                                          rng.uniform(0.01, 0.2, self.n_points),
                                          10.0 ** rng.uniform(-1.3, -0.3, self.n_points))]

    def prepare(self):
        drive = leaky_cavity.DriveParams(omega=1.0, n_max=self.n_max)
        spectrum = leaky_cavity.DipoleSpectrum(drive=drive, coeffs=self.comb)
        n_samples = self.periods * self.samples_per_period + 1
        times = np.linspace(0.0, self.periods * drive.period, n_samples)
        lcio.write_timeseries_csv(os.path.join(self.workdir, "comb.csv"),
                                  leaky_cavity.synthesize_mean_dipole(spectrum, times), label="d")
        doc = {
            "drive": {"omega": 1.0, "n_max": self.n_max},
            "dipole": {"series": "comb.csv"},
            "fluctuation": {"delta": 0.2},
            "cavity": {"omega_q": 7.0, "g_q": 0.05, "kappa": 0.1},
            "grids": {"t": {"stop": 200.0, "num": 20001},
                      "tau": {"stop": 200.0, "num": 20001}},
            "conventions": {"correlation": self.convention, "normalization": "as-written"},
            "outputs": ["occupation", "correlation", "spectrum", "power"],
        }
        with open(self.scenario_path(), "w") as fh:
            yaml.safe_dump(doc, fh)

    def scenario_path(self):
        return os.path.join(self.workdir, "sweep.yaml")

    def setup(self):
        self.config = lcscenario.load_scenario(self.scenario_path())

    def op(self):
        c = self.config
        t_ref = float(c.t_grid[-1])
        rows = []
        for p in self.points:
            occ = leaky_cavity.occupation(p, c.spectrum, c.fluctuation, c.t_grid)
            amp = leaky_cavity.mode_amplitude(p, c.spectrum, c.t_grid)
            two = leaky_cavity.two_time_correlation(p, c.spectrum, c.fluctuation, t_ref,
                                                    c.tau_grid, self.convention)
            stat = leaky_cavity.stationary_correlation(p, c.spectrum, c.fluctuation,
                                                       c.tau_grid, self.convention)
            spec = leaky_cavity.power_spectrum(p, c.spectrum, c.fluctuation)
            power = leaky_cavity.integrated_power(p, c.spectrum, c.fluctuation)
            n_inf = leaky_cavity.occupation_longtime(p, c.spectrum, c.fluctuation)
            window = p.omega_q + p.kappa / 4.0 * np.arange(-self.n_wkt // 2, self.n_wkt // 2)
            wkt = leaky_cavity.spectrum_from_correlation(stat, window)
            rows.append((occ, amp, two, spec, power, n_inf, wkt))
        return rows

    def check_setup(self):
        """The decomposed series must give back the seeded comb."""
        err = np.max(np.abs(self.config.spectrum.coeffs - self.comb)) / np.max(np.abs(self.comb))
        return [] if err <= self.rtol else [f"decomposed comb off by {err:.3e}"]

    def check(self, rows):
        failures = []
        for i, (occ, amp, two, spec, power, n_inf, wkt) in enumerate(rows):
            coherent = np.abs(amp) ** 2
            tests = {
                "occupation.coherent = |mode_amplitude|^2":
                    np.max(np.abs(occ.coherent - coherent)) / np.max(coherent),
                "two_time_correlation(tau=0) = occupation.total(t)":
                    abs(two.values[0] - occ.total[-1]) / occ.total[-1],
                "line weight total = p_coherent":
                    abs(spec.line_weight_total() - power.p_coherent) / power.p_coherent,
            }
            for name, err in tests.items():
                if not err <= self.rtol:
                    failures.append(f"point {i}: {name} off by {err:.3e}")
            if not (np.all(np.isfinite(wkt)) and np.isfinite(n_inf) and n_inf > 0):
                failures.append(f"point {i}: non-finite spectrum or long-time occupation")
        return failures


WORKLOADS = {"run-shipped": RunShipped, "verify-full": VerifyFull,
             "sweep-series": SweepSeries}
