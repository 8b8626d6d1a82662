import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from leaky_cavity.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from leaky_cavity.dipole import DriveParams, synthesize_mean_dipole
from leaky_cavity.io import write_timeseries_csv
from leaky_cavity.runner import run

SCENARIO = {
    "drive": {"omega": 1.0, "n_max": 3},
    "dipole": {"coeffs": [[0.0, 0.0], [0.375, 0.0], [0.0, 0.0], [0.125, 0.0]]},
    "fluctuation": {"delta": 0.2},
    "cavity": {"omega_q": 3.0, "g_q": 0.05, "kappa": 0.1, "q": 3},
    "grids": {"t": {"stop": 50.0, "num": 101}, "tau": {"stop": 100.0, "num": 201}},
    "conventions": {"correlation": "tau-zero-consistent",
                    "normalization": "as-written"},
    "oracle": {"n_trials": 200, "seed": 7, "bath_modes": 400,
               "bath_half_width_kappas": 40.0},
    "outputs": ["dipole", "occupation", "correlation", "spectrum", "power",
                "amplitude_oracle", "noise_oracle", "bath_oracle"],
}

# SHA-256 of every file SCENARIO writes, manifest.json and its four checks
# included (numpy 2.4, OpenBLAS, x86-64); the same with OPENBLAS_NUM_THREADS=1
# and 2.
FULL_OUTPUT_SHA256 = {
    "amplitude_oracle.csv": "fc294b833e2caef35d91f03e7028107c6510883505901abebf38135d6ed7445f",
    "bath_decay.csv": "e02c250a5c78223ed772d76efb66a54d0b5fe38195c510c5ffc5b6bb013b384c",
    "dipole_spectrum.json": "6a1aa7e031aa880e79757b84e02c9b3a8c26c2db3b444589b3511e3387f36fc9",
    "manifest.json": "f11dbd095c4cd41ec3a65e6ec2ab4f3d92c57b9f1bd701d66e641667185e5e82",
    "mean_dipole.csv": "970a0d9b137e2e19ff33dae2499331183d7f813f2a92a317ab99d4c825b6046d",
    "noise_oracle.csv": "57e1fa9a49bb5d68464827281f4cca5df88dfc772b7d06b3375be3ea0729b881",
    "noise_oracle_two_time.csv":
        "39ad9c8f4e34ae17a369a62576868911e09574229b847afa39eb94af0b0a680a",
    "occupation.csv": "2fe7480582f898917475519d7306e9e483b0f0306a120483775436469b1c7256",
    "power_report.json": "7655695286f85ce92f52690b1d71bea553fa28682f75585da8b5e0eb18923639",
    "spectrum.json": "cd8ed05c216a90d3632e8b8a339c560ddd3dd467bb9dce9918d3c0eb7e360f52",
    "spectrum_continuum.csv":
        "2996ca101927d4a1b513836502ccc069a3fda04ac4366f5bc20ea2773677c073",
    "spectrum_lines.csv": "ef0dc244ad81e0848e262c522280328e30365568bafdb2cd1b7acb53da3b615e",
    "stationary_correlation.csv":
        "fc1bd98384795366370774fbe0db021220c94745898bd13ac9d1e94c4887c1f2",
    "two_time_correlation.csv":
        "2cb5a805f9c0d621ddf9c0960868e1d5a5440e49e944c8422c5394a78027961d",
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(SCENARIO))
    return path


def test_run_produces_all_artifacts(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    expected = {
        "dipole_spectrum.json", "mean_dipole.csv", "occupation.csv",
        "stationary_correlation.csv", "two_time_correlation.csv",
        "spectrum_lines.csv", "spectrum_continuum.csv", "spectrum.json",
        "power_report.json", "amplitude_oracle.csv", "noise_oracle.csv",
        "noise_oracle_two_time.csv", "bath_decay.csv",
    }
    assert set(manifest["files"]) == expected
    for name in expected:
        assert (out / name).exists()
    checks = manifest["checks"]
    assert checks["amplitude_oracle_max_rel_deviation"] < 1e-8
    assert checks["noise_oracle_max_pull_stderr"] < 6.0
    assert checks["bath_oracle_max_rel_deviation"] < 0.05
    assert checks["bath_oracle_norm_error"] < 1e-8
    assert "wrote 13 artifacts" in capsys.readouterr().out


def test_full_output_set_is_pinned(config_path, tmp_path):
    out = tmp_path / "out"
    run(config_path, out)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == FULL_OUTPUT_SHA256


def test_runs_are_byte_identical(config_path, tmp_path):
    first = run(config_path, tmp_path / "a")
    second = run(config_path, tmp_path / "b")
    assert first["files"] == second["files"]
    for name, digest in first["files"].items():
        assert second["files"][name] == digest


def test_seed_override_changes_only_noise_artifacts(config_path, tmp_path):
    base = run(config_path, tmp_path / "a")
    other = run(config_path, tmp_path / "b", seed_override=8)
    assert base["files"]["noise_oracle.csv"] != other["files"]["noise_oracle.csv"]
    unchanged = set(base["files"]) - {"noise_oracle.csv", "noise_oracle_two_time.csv"}
    for name in unchanged:
        assert base["files"][name] == other["files"][name]


def test_failed_run_leaves_no_partial_outputs(config_path, tmp_path, monkeypatch):
    import leaky_cavity.runner as runner_mod

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(runner_mod, "integrated_power", boom)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        run(config_path, out)
    leftovers = [p.name for p in out.iterdir()] if out.exists() else []
    assert leftovers == []


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = dict(SCENARIO)
    bad["cavity"] = {"omega_q": 3.0, "g_q": 0.05}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "invalid config: cavity:" in err


@pytest.mark.parametrize("section, name, value, path", [
    ("fluctuation", "delta", float("nan"), "fluctuation.delta"),
    ("cavity", "g_q", float("nan"), "cavity"),
    ("cavity", "omega_q", float("inf"), "cavity"),
])
def test_non_finite_parameter_exit_code(tmp_path, capsys, section, name, value, path):
    bad = {**SCENARIO, section: {**SCENARIO[section], name: value}}
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(bad))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"invalid config: {path}: {name} must be finite, got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("section, value, path", [
    ("drive", [1], "drive"),
    ("cavity", [1], "cavity"),
    ("oracle", [1], "oracle"),
    ("conventions", [1], "conventions"),
    ("grids", {"t": [1, 2], "tau": SCENARIO["grids"]["tau"]}, "grids.t"),
    ("grids", {"t": {"stop": "abc", "num": 101}, "tau": SCENARIO["grids"]["tau"]},
     "grids.t"),
    ("outputs", 5, "outputs"),
], ids=["drive", "cavity", "oracle", "conventions", "grid-list", "grid-stop-text",
        "outputs-number"])
def test_malformed_section_exit_code(tmp_path, capsys, section, value, path):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, section: value}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert f"invalid config: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [1.5, 2.0, "abc", -3, [1, 2], True],
                         ids=["fraction", "integral-float", "text", "negative", "list", "bool"])
def test_invalid_seed_exit_code(tmp_path, capsys, seed):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "oracle": {**SCENARIO["oracle"], "seed": seed}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert "invalid config: oracle.seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("n_trials", 2.5, "must be an integer, got 2.5"),
    ("n_trials", "abc", "must be an integer, got 'abc'"),
    ("n_trials", True, "must be an integer, got True"),
    ("n_trials", None, "must be an integer, got None"),
    ("bath_modes", 2000.9, "must be an integer, got 2000.9"),
    ("bath_modes", 400.0, "must be an integer, got 400.0"),
    ("bath_modes", False, "must be an integer, got False"),
    ("bath_half_width_kappas", "wide", "must be a number, got 'wide'"),
    ("bath_half_width_kappas", True, "must be a number, got True"),
], ids=["n-trials-fraction", "n-trials-text", "n-trials-bool", "n-trials-null",
        "bath-modes-fraction", "bath-modes-integral-float", "bath-modes-bool",
        "half-width-text", "half-width-bool"])
def test_oracle_settings_name_their_bad_field(tmp_path, capsys, field, value, message):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "oracle": {**SCENARIO["oracle"], field: value}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"invalid config: oracle.{field}: {message}" in err
    assert "oracle.seed" not in err  # the scenario's seed is valid and must not be reported
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_negative_seed_override_is_refused_before_any_work(config_path, tmp_path, capsys,
                                                           monkeypatch, command):
    import leaky_cavity.cli as cli_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("no oracle may run for a refused option")

    monkeypatch.setattr(cli_mod.runner, "run", forbidden)
    monkeypatch.setattr(cli_mod.verification, "run_all", forbidden)
    out = tmp_path / "out"
    argv = {"run": ["run", "--config", str(config_path), "--out", str(out)],
            "verify": ["verify", "--config", str(config_path)]}[command]
    assert main(argv + ["--seed-override", "-3"]) == EXIT_VALIDATION
    assert "--seed-override: must be a non-negative integer, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, value, message", [
    ("dipole", {"coeffs": [[0.0, 0.0], [float("nan"), 0.0], [0.0, 0.0], [0.125, 0.0]]},
     "dipole: coeffs must be finite, got ["),
    ("cavity", {"omega_q": 3.0, "g_q": 0.05, "g0": 1.0e200, "c": 1.0},
     "cavity: kappa must be finite, got inf"),
], ids=["nan-dipole-coefficient", "overflowing-derived-kappa"])
def test_non_finite_input_exit_code(tmp_path, capsys, section, value, message):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, section: value}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert f"invalid config: {message}" in capsys.readouterr().err
    assert caught == []
    assert not out.exists()


def test_run_imports_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "import leaky_cavity.oracle as oracle, leaky_cavity.verification\n"
        "from leaky_cavity.cavity import CavityParams\n"
        "from leaky_cavity.cli import default_scenario_path, main\n"
        "assert main(['run', '--config', str(default_scenario_path()),\n"
        f"             '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "oracle.discrete_bath_decay(oracle.BathDiscretization.for_damping(0.05, 1.0, 200, 2.0),\n"
        "                           CavityParams(omega_q=1.0, g_q=0.1, kappa=0.05), [0.0, 1.0])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("q, message", [
    (2, "omega_q = 3.0 is not q * omega = 2 * 1.0"),
    (10 ** 400, "omega_q = 3.0 is not q * omega = 1000"),
    (3.0, "must be a positive integer, got 3.0"),
    (0, "must be a positive integer, got 0"),
    (True, "must be a positive integer, got True"),
    ("3", "must be a positive integer, got '3'"),
], ids=["other-harmonic", "huge", "float", "zero", "bool", "text"])
def test_cavity_q_must_name_the_tuned_harmonic(tmp_path, capsys, q, message):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "cavity": {**SCENARIO["cavity"], "q": q}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert f"invalid config: cavity.q: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_tracer_binds_to_the_package(config_path, tmp_path, monkeypatch):
    """perfbench's tracer and workloads still run against the package.

    The tracer reads call arguments by name (t, spectrum, tau_grid,
    omega_grid, series, result, which, ...) and the sweep-series workload
    calls library names and result attributes directly, so a rename in the
    package breaks the benchmark without failing any other test.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    import workloads
    import leaky_cavity.cli as cli_mod

    sweep = workloads.SweepSeries(workloads.SweepSeries.default_seed, str(tmp_path))
    Path(sweep.scenario_path()).write_text(config_path.read_text())
    series_path = tmp_path / "dipole.csv"

    tracer = tracing.Tracer()
    tracer.install()
    try:
        sweep.setup()
        t = np.linspace(0.0, 4 * sweep.config.drive.period, 4001)
        write_timeseries_csv(series_path, synthesize_mean_dipole(sweep.config.spectrum, t),
                             label="d")
        tracer.op = 1
        assert cli_mod.main(["run", "--config", str(config_path),
                             "--out", str(tmp_path / "out")]) == EXIT_OK
        assert cli_mod.main(["decompose", "--config", str(config_path),
                             "--input", str(series_path), "--out", str(tmp_path / "dec")]) == EXIT_OK
        assert sweep.check(sweep.op()) == []
        metrics = tracer.layer_metrics(1)
    finally:
        tracer.uninstall()
    assert not hasattr(cli_mod.main, "__wrapped__")  # uninstalled
    for name in ("cavity.points", "correlation.points", "spectrum.wkt_terms", "io.bytes_read",
                 "io.bytes_written", "io.rows_written", "oracle.rk4_steps",
                 "oracle.mc_trial_steps", "oracle.bath_modes", "runner.run.self_s",
                 "cavity.occupation.self_s", "spectrum.spectrum_from_correlation.self_s"):
        assert metrics[name][0] > 0, name
    assert metrics["oracle.bath_modes"][0] == SCENARIO["oracle"]["bath_modes"]
    assert metrics["verification.checks_failed"][0] == 0


def test_missing_config_exit_code(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_decompose_round_trip(config_path, tmp_path, capsys):
    drive = DriveParams(omega=1.0, n_max=3)
    from leaky_cavity.scenario import load_scenario

    reference = load_scenario(config_path).spectrum
    t = np.linspace(0.0, 4 * drive.period, 4001)
    series_path = tmp_path / "dipole.csv"
    write_timeseries_csv(series_path, synthesize_mean_dipole(reference, t), label="d")
    out = tmp_path / "dec"
    code = main(["decompose", "--config", str(config_path),
                 "--input", str(series_path), "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads((out / "dipole_spectrum.json").read_text())
    back = np.array([complex(re, im) for re, im in doc["coeffs"]])
    assert doc["omega"] == drive.omega
    assert np.max(np.abs(back - reference.coeffs)) < 1e-9


@pytest.mark.parametrize("body", ["t,d\n", "t\n0\n1\n"], ids=["header-only", "one-column"])
def test_decompose_rejects_unusable_csv(config_path, tmp_path, capsys, body):
    series_path = tmp_path / "dipole.csv"
    series_path.write_text(body)
    code = main(["decompose", "--config", str(config_path),
                 "--input", str(series_path), "--out", str(tmp_path / "dec")])
    assert code == EXIT_VALIDATION
    assert f"invalid input: {series_path}: " in capsys.readouterr().err


def test_verify_rejects_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"grids": {}}))
    assert main(["verify", "--config", str(path)]) == EXIT_VALIDATION
    assert "invalid config" in capsys.readouterr().err
