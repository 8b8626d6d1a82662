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
from leaky_cavity.io import read_dipole_spectrum_json, write_timeseries_csv
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
# included (numpy 2.4, OpenBLAS, x86-64), recorded with OpenBLAS's default
# thread count on 2 cores.  LAPACK eigh in the bath oracle returns other last
# bits with another thread count (OPENBLAS_NUM_THREADS=1 changes
# bath_decay.csv and manifest.json), so the test holds on the same machine
# and BLAS thread count only.
FULL_OUTPUT_SHA256 = {
    "amplitude_oracle.csv": "fc294b833e2caef35d91f03e7028107c6510883505901abebf38135d6ed7445f",
    "bath_decay.csv": "1c4f52c6a869d77ae8136370ac264f046041864a822d16e791e29284ce25d8e3",
    "dipole_spectrum.json": "6a1aa7e031aa880e79757b84e02c9b3a8c26c2db3b444589b3511e3387f36fc9",
    "manifest.json": "a218a0fd79e64bd9b66f3a8cc8679ad3a9694d824ed7ecbb4d346447e4e713e4",
    "mean_dipole.csv": "970a0d9b137e2e19ff33dae2499331183d7f813f2a92a317ab99d4c825b6046d",
    "noise_oracle.csv": "63b47bea71804827319bccb378b5d90c82ef66322cd14a257437d94317ab45b4",
    "noise_oracle_two_time.csv":
        "008057ad4a12eeb7132771b463f13d269a1d813de06753bcd1c265d151ca7ecf",
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
        "from leaky_cavity.cli import default_scenario_path, main\n"
        "assert main(['run', '--config', str(default_scenario_path()),\n"
        f"             '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
    back = read_dipole_spectrum_json(out / "dipole_spectrum.json")
    assert np.max(np.abs(back.coeffs - reference.coeffs)) < 1e-9


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
