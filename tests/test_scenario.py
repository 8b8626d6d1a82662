import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from leaky_cavity.cli import default_scenario_path
from leaky_cavity.dipole import DriveParams, synthesize_mean_dipole
from leaky_cavity.io import write_timeseries_csv
from leaky_cavity.artifacts import ARTIFACTS
from leaky_cavity.scenario import YAML_LOADER, ScenarioError, load_scenario

BASE = {
    "drive": {"omega": 1.0, "n_max": 3},
    "dipole": {"coeffs": [[0.0, 0.0], [0.375, 0.0], [0.0, 0.0], [0.125, 0.0]]},
    "fluctuation": {"delta": 0.2},
    "cavity": {"omega_q": 3.0, "g_q": 0.05, "kappa": 0.1, "q": 3},
    "grids": {"t": {"stop": 50.0, "num": 101}, "tau": {"stop": 100.0, "num": 201}},
}


def write_config(tmp_path, **overrides):
    doc = {**BASE, **overrides}
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_shipped_scenario_loads():
    config = load_scenario(default_scenario_path())
    assert config.spectrum.coeffs[1] == 0.375
    assert config.correlation_convention == "tau-zero-consistent"
    assert config.t_grid[0] == 0.0
    assert set(config.outputs) <= set(ARTIFACTS)


def test_the_loader_imports_no_runner(tmp_path):
    # the loader ran the outputs' budgets through a lazy import of runner, a cycle
    config = write_config(tmp_path, outputs=list(ARTIFACTS), oracle={"seed": 7})
    code = ("import sys\n"
            "import leaky_cavity.scenario as scenario\n"
            f"scenario.load_scenario({str(config)!r})\n"
            "print('leaky_cavity.runner' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_scenarios_are_read_by_libyaml_where_pyyaml_has_it():
    assert YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_both_yaml_loaders_read_the_shipped_scenario_alike():
    # tests/conftest.py compares the two on every scenario the other tests load
    text = Path(default_scenario_path()).read_text()
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(yaml.safe_load(text))


def test_minimal_config(tmp_path):
    config = load_scenario(write_config(tmp_path))
    assert config.fluctuation.delta == 0.2
    assert config.t_grid.size == 101
    assert config.omega_grid is None
    assert config.outputs == ("dipole", "occupation", "correlation", "spectrum", "power")


def test_bath_coupling_route(tmp_path):
    path = write_config(tmp_path,
                        cavity={"omega_q": 3.0, "g_q": 0.05, "g0": 0.2, "c": 1.0})
    config = load_scenario(path)
    assert config.cavity.kappa == pytest.approx(0.04 * np.pi)


def test_kappa_and_bath_conflict(tmp_path):
    path = write_config(tmp_path,
                        cavity={"omega_q": 3.0, "g_q": 0.05, "kappa": 0.1, "g0": 0.2,
                                "c": 1.0})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert set(exc.value.errors) == {"cavity.kappa"}
    assert "exactly one" in exc.value.errors["cavity.kappa"]


def test_neither_kappa_nor_bath(tmp_path):
    path = write_config(tmp_path, cavity={"omega_q": 3.0, "g_q": 0.05})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "exactly one" in exc.value.errors["cavity"]


def test_error_paths_are_collected(tmp_path):
    path = write_config(
        tmp_path,
        grids={"t": {"stop": 50.0, "num": 101}},
        conventions={"correlation": "halved"},
        outputs=["occupation", "holograms"],
    )
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert {"grids.tau", "conventions.correlation", "outputs.holograms"} <= set(
        exc.value.errors)


def test_noise_oracle_requires_seed(tmp_path):
    path = write_config(tmp_path, outputs=["noise_oracle"])
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "mandatory" in exc.value.errors["oracle.seed"]
    assert load_scenario(path, seed_override=5).oracle.seed == 5  # the override stands in
    path = write_config(tmp_path, outputs=["noise_oracle"],
                        oracle={"seed": 7, "n_trials": 10})
    assert load_scenario(path).oracle.seed == 7
    assert load_scenario(path, seed_override=0).oracle.seed == 0


def test_single_trial_ensemble_is_rejected(tmp_path):
    path = write_config(tmp_path, outputs=["noise_oracle"],
                        oracle={"seed": 7, "n_trials": 1})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "at least 2" in exc.value.errors["oracle.n_trials"]


def test_undersized_bath_is_rejected(tmp_path):
    path = write_config(tmp_path, outputs=["bath_oracle"],
                        oracle={"bath_modes": 120, "bath_half_width_kappas": 400.0})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert exc.value.errors == {"oracle.bath_modes": (
        "undersized bath: horizon 50 reaches the recurrence time 9.35; "
        "use more modes")}
    path = write_config(tmp_path, outputs=["bath_oracle"],
                        oracle={"bath_half_width_kappas": 0.0})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "half_width" in exc.value.errors["oracle.bath_half_width_kappas"]


@pytest.mark.parametrize("half_width", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_bath_width_is_rejected(tmp_path, half_width):
    # a NaN width used to load, and the run ended in the secular solver's RuntimeError
    path = write_config(tmp_path, outputs=["bath_oracle"],
                        oracle={"bath_half_width_kappas": half_width})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert exc.value.errors == {
        "oracle.bath_half_width_kappas": f"half_width must be finite, got {half_width * 0.1}"}


def test_dipole_requires_exactly_one_source(tmp_path):
    path = write_config(tmp_path, dipole={})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "exactly one" in exc.value.errors["dipole"]
    path = write_config(tmp_path,
                        dipole={"coeffs": [[1.0, 0.0]], "series": "d.csv"})
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_dipole_from_series_csv(tmp_path):
    drive = DriveParams(omega=1.0, n_max=3)
    reference = load_scenario(write_config(tmp_path)).spectrum
    t = np.linspace(0.0, 4 * drive.period, 4001)
    write_timeseries_csv(tmp_path / "dipole.csv",
                         synthesize_mean_dipole(reference, t), label="d")
    # relative series path resolves against the config directory
    path = write_config(tmp_path, dipole={"series": "dipole.csv"})
    config = load_scenario(path)
    assert np.max(np.abs(config.spectrum.coeffs - reference.coeffs)) < 1e-9


def test_missing_series_file(tmp_path):
    path = write_config(tmp_path, dipole={"series": "missing.csv"})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "dipole.series" in exc.value.errors


@pytest.mark.parametrize("body, message", [("t,d\n", "no data rows"),
                                           ("t\n0\n1\n", "a value column")],
                         ids=["header-only", "one-column"])
def test_unusable_series_csv(tmp_path, body, message):
    (tmp_path / "dipole.csv").write_text(body)
    path = write_config(tmp_path, dipole={"series": "dipole.csv"})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert message in exc.value.errors["dipole.series"]


@pytest.mark.parametrize("series", [5, 2.5, ["dipole.csv"], True, None, ""],
                         ids=["int", "float", "list", "bool", "null", "empty"])
def test_series_path_must_be_text(tmp_path, series):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(write_config(tmp_path, dipole={"series": series}))
    assert exc.value.errors == {"dipole.series": f"must be the path of a CSV file, got {series!r}"}


def test_series_path_is_checked_without_a_drive(tmp_path):
    path = write_config(tmp_path, drive={"omega": -1.0, "n_max": 3}, dipole={"series": 5})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert set(exc.value.errors) == {"drive", "dipole.series"}


def test_non_mapping_config(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("- just\n- a list\n")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "<root>" in exc.value.errors
