import numpy as np
import pytest
import yaml

from leaky_cavity.cli import default_scenario_path
from leaky_cavity.dipole import DriveParams, synthesize_mean_dipole
from leaky_cavity.io import write_timeseries_csv
from leaky_cavity.runner import ARTIFACTS
from leaky_cavity.scenario import ScenarioError, load_scenario

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
    path = write_config(tmp_path, outputs=["noise_oracle"],
                        oracle={"seed": 7, "n_trials": 10})
    assert load_scenario(path).oracle.seed == 7


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
    assert "undersized bath" in exc.value.errors["oracle.bath_modes"]
    path = write_config(tmp_path, outputs=["bath_oracle"],
                        oracle={"bath_half_width_kappas": 0.0})
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "half_width" in exc.value.errors["oracle.bath_half_width_kappas"]


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


def test_non_mapping_config(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("- just\n- a list\n")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert "<root>" in exc.value.errors
