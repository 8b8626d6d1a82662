import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from leaky_cavity import artifacts, oracle
from leaky_cavity.artifacts import ARTIFACTS, DEFAULT_OUTPUTS, MAX_GRID_POINTS, \
    MAX_ODE_STEP_LINES, MAX_TRIAL_STEPS, MAX_WALK_STEPS, WALK_TAIL_MARGIN
from leaky_cavity.cli import EXIT_IO, EXIT_OK, EXIT_ORACLE, EXIT_VALIDATION, \
    default_scenario_path, main
from leaky_cavity.dipole import DriveParams, _clear_tables, synthesize_mean_dipole
from leaky_cavity.io import write_timeseries_csv
from leaky_cavity.oracle import amplitude_ode_points, amplitude_ode_step, noise_walk_steps
from leaky_cavity.runner import BOUNDS, failed_checks, run
from leaky_cavity.spectrum import default_omega_grid
from leaky_cavity.scenario import MAX_BATH_MODES, MAX_N_MAX, ScenarioError, load_scenario

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
    "manifest.json": "0484a1fa89d9adbdd1190781985d950a7e07b893741e50c2ab9ecf4761971955",
    "mean_dipole.csv": "970a0d9b137e2e19ff33dae2499331183d7f813f2a92a317ab99d4c825b6046d",
    "noise_oracle.csv": "95ed19c08ab62e66dce49dcdb760c6649693c736a4e4935fa87ff9110f9687e5",
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
    assert set(checks) == set(BOUNDS)  # every figure a run reports has its bound
    assert "failed_checks" not in manifest
    assert checks["amplitude_oracle_max_rel_deviation"] < 1e-8
    assert checks["noise_oracle_max_pull_stderr"] < 6.0
    assert checks["bath_oracle_max_rel_deviation"] < 0.05
    assert checks["bath_oracle_norm_error"] < 1e-8
    assert "wrote 13 artifacts" in capsys.readouterr().out


def test_run_exits_2_when_a_figure_fails_its_bound(tmp_path, capsys):
    # a band one kappa wide misses the continuum pole: the bath deviation is 357.9
    config = tmp_path / "narrow.yaml"
    config.write_text(yaml.safe_dump(_set_field(SCENARIO, "oracle.bath_half_width_kappas",
                                                1.0)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_ORACLE
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["files"], "manifest.json"])
    assert len(manifest["files"]) == 13
    assert manifest["failed_checks"] == ["bath_oracle_max_rel_deviation"]
    assert capsys.readouterr().err == (
        "oracle check failed: bath_oracle_max_rel_deviation = 3.579e+02 exceeds its bound "
        "2.000e-02\n")


def test_failed_checks_judge_every_figure_but_the_max_pull():
    checks = {"amplitude_oracle_max_rel_deviation": float("nan"),
              "noise_oracle_max_pull_stderr": 99.0,
              "bath_oracle_max_rel_deviation": 0.02,
              "bath_oracle_norm_error": 1e-7}
    assert failed_checks(checks) == ["amplitude_oracle_max_rel_deviation",
                                     "bath_oracle_norm_error"]


def test_full_output_set_is_pinned(config_path, tmp_path):
    out = tmp_path / "out"
    run(config_path, out)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == FULL_OUTPUT_SHA256


def test_runs_are_byte_identical(config_path, tmp_path):
    _clear_tables()  # each run builds every cached table
    first = run(config_path, tmp_path / "a")
    _clear_tables()
    second = run(config_path, tmp_path / "b")
    assert first["files"] == second["files"]
    for name, digest in first["files"].items():
        assert second["files"][name] == digest


def test_each_determinism_run_builds_every_table(tmp_path, monkeypatch):
    # the second run read the correlators' tables back from the cache that the first
    # run filled, and so compared them with themselves
    from leaky_cavity import cavity, correlation, dipole, runner, verification

    config = tmp_path / "correlation.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "outputs": ["correlation"]}))
    tables, per_run = [], []
    shipped_table, shipped_run = dipole.phase_table, runner.run

    def counted_table(*args):
        tables.append(args)
        return shipped_table(*args)

    def counted_run(*args, **kwargs):
        before = len(tables)
        manifest = shipped_run(*args, **kwargs)
        per_run.append(len(tables) - before)  # phase tables built
        return manifest

    for module in (cavity, correlation):
        monkeypatch.setattr(module, "phase_table", counted_table)
    monkeypatch.setattr(runner, "run", counted_run)
    _clear_tables()  # a cold start, as in a fresh process
    assert [r.passed for r in verification.check_determinism(config)] == [True]
    assert len(per_run) == 2 and per_run[0] == per_run[1] > 0


def test_seed_override_changes_only_noise_artifacts(config_path, tmp_path):
    base = run(config_path, tmp_path / "a")
    other = run(config_path, tmp_path / "b", seed_override=8)
    assert base["files"]["noise_oracle.csv"] != other["files"]["noise_oracle.csv"]
    unchanged = set(base["files"]) - {"noise_oracle.csv", "noise_oracle_two_time.csv"}
    for name in unchanged:
        assert base["files"][name] == other["files"][name]


def test_failed_run_leaves_no_partial_outputs(config_path, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(artifacts, "integrated_power", boom)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        run(config_path, out)
    leftovers = [p.name for p in out.iterdir()] if out.exists() else []
    assert leftovers == []


def test_a_failed_rerun_leaves_no_manifest(tmp_path, capsys):
    # the rerun replaces occupation.csv, fails at power_report.json and removes what it
    # wrote, so the first run's manifest would name a file that is gone
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "outputs": ["occupation", "power"]}))
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert (out / "manifest.json").is_file()
    (out / "power_report.json").unlink()
    (out / "power_report.json").mkdir()
    assert main(argv) == EXIT_IO
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["power_report.json"]


def test_a_failed_write_reports_its_own_error(tmp_path, capsys):
    # a directory at power_report.json: the write's replace of its temporary file fails,
    # and the clean-up leaves the directory, which the run did not write, so the error
    # printed is the write's
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "outputs": ["occupation", "power"]}))
    out = tmp_path / "out"
    (out / "power_report.json").mkdir(parents=True)
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_IO
    assert re.fullmatch(r"i/o error: \[Errno 21\] Is a directory: '\S+/power_report\.json\.\d+\.tmp' "
                        r"-> '\S+/power_report\.json'\n", capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == ["power_report.json"]


def test_a_failed_run_leaves_a_link_it_did_not_write(config_path, tmp_path, monkeypatch):
    # the write of power_report.json fails before it replaces the link standing there
    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(artifacts.lcio, "write_power_report_json", boom)
    out, kept = tmp_path / "out", tmp_path / "kept.json"
    kept.write_text("{}")
    out.mkdir()
    (out / "power_report.json").symlink_to(kept)
    with pytest.raises(RuntimeError, match="forced failure"):
        run(config_path, out)
    assert [p.name for p in out.iterdir()] == ["power_report.json"]
    assert (out / "power_report.json").is_symlink() and kept.read_text() == "{}"


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = dict(SCENARIO)
    bad["cavity"] = {"omega_q": 3.0, "g_q": 0.05}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "invalid config: cavity:" in err


@pytest.mark.parametrize("text, message", [
    (b"drive: {omega: 1.0\n", "did not find expected ',' or '}' at line 2, column 1"),
    (b"drive:\n\tomega: 1.0\n", "at line 2, column 1"),
    (b"drive: {omega: 1.0}\nnote: \"\a\"\n", "unacceptable character #x0007"),
    (b"drive: {omega: 1.0}\nnote: \xff\n", "unacceptable character #x00ff"),
], ids=["unclosed-flow-mapping", "tab-indented-key", "control-character", "not-utf-8"])
def test_malformed_yaml_exit_code(tmp_path, capsys, text, message):
    config = tmp_path / "bad.yaml"
    config.write_bytes(text)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("invalid config: <root>: malformed YAML: ")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("seed, message", [
    (1.5, "must be an integer, got 1.5"),
    (2.0, "must be an integer, got 2.0"),
    ("abc", "must be an integer, got 'abc'"),
    (-3, "must be at least 0, got -3"),
    ([1, 2], "must be an integer, got [1, 2]"),
    (True, "must be an integer, got True"),
], ids=["fraction", "integral-float", "text", "negative", "list", "bool"])
def test_invalid_seed_exit_code(tmp_path, capsys, seed, message):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "oracle": {**SCENARIO["oracle"], "seed": seed}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert f"invalid config: oracle.seed: {message}" in capsys.readouterr().err.splitlines()
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


def _set_field(doc, field, value):
    """Copy of the scenario ``doc`` with the dotted ``field`` (an int picks a list item) set."""
    doc = copy.deepcopy(doc)
    *parents, last = [int(key) if key.isdigit() else key for key in field.split(".")]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def _rename_key(doc, field, new_name):
    """Copy of the scenario ``doc`` with the key at the dotted ``field`` renamed ``new_name``."""
    doc = copy.deepcopy(doc)
    *parents, last = field.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[new_name] = node.pop(last)
    return doc


TOP_KEYS = "drive, dipole, fluctuation, cavity, grids, conventions, oracle, outputs"
# a misspelled key in each mapping of a scenario: the key, its misspelling, and the keys
# the refusal names; each loaded with the default of the key it stands for
MISSPELLED_KEYS = {
    "top-level": ("fluctuation", "fluctation", TOP_KEYS),
    "drive": ("drive.omega", "omgea", "omega, n_max"),
    "dipole": ("dipole.coeffs", "coefs", "coeffs, series"),
    "fluctuation": ("fluctuation.delta", "delt", "delta"),
    "cavity": ("cavity.g_q", "gq", "omega_q, g_q, kappa, g0, c, q"),
    "grids": ("grids.tau", "tua", "t, tau, omega"),
    "grids-t": ("grids.t.num", "nun", "stop, num"),
    "grids-tau": ("grids.tau.stop", "stp", "stop, num"),
    "grids-omega": ("grids.omega.num", "points", "stop, num"),
    "conventions": ("conventions.normalization", "normalisation", "correlation, normalization"),
    "oracle": ("oracle.n_trials", "n_trails", "n_trials, seed, bath_modes, bath_half_width_kappas"),
}


@pytest.mark.parametrize("field, misspelled, known", MISSPELLED_KEYS.values(),
                         ids=MISSPELLED_KEYS.keys())
def test_a_misspelled_key_is_refused_under_its_path(tmp_path, capsys, field, misspelled, known):
    doc = _set_field(SCENARIO, "grids.omega", {"stop": 10.0, "num": 101})
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert load_scenario(config).omega_grid.size == 101  # spelled right, it loads
    config.write_text(yaml.safe_dump(_rename_key(doc, field, misspelled)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    path = ".".join([*field.split(".")[:-1], misspelled])
    assert f"invalid config: {path}: unknown key; known: {known}" \
        in capsys.readouterr().err.splitlines()
    assert not out.exists()


BATH_CAVITY = {"omega_q": 3.0, "g_q": 0.05, "g0": 0.2, "c": 1.0, "q": 3}

# field, the path it is reported under, and the message's start; the grid and
# the coefficient pairs keep the messages of their own readers
NUMERIC_FIELDS = [
    ("drive.omega", "drive.omega", "must be a number, got "),
    ("drive.n_max", "drive.n_max", "must be an integer, got "),
    ("fluctuation.delta", "fluctuation.delta", "must be a number, got "),
    ("cavity.omega_q", "cavity.omega_q", "must be a number, got "),
    ("cavity.g_q", "cavity.g_q", "must be a number, got "),
    ("cavity.kappa", "cavity.kappa", "must be a number, got "),
    ("cavity.g0", "cavity.g0", "must be a number, got "),
    ("cavity.c", "cavity.c", "must be a number, got "),
    ("grids.t.stop", "grids.t", "grid needs finite stop > 0 and integer num >= 2, got stop="),
    ("dipole.coeffs.1.0", "dipole.coeffs", "entry 1 must be a pair of numbers [re, im], got ["),
]


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "quoted"])
@pytest.mark.parametrize("field, path, message", NUMERIC_FIELDS,
                         ids=[field for field, _, _ in NUMERIC_FIELDS])
def test_numeric_fields_refuse_booleans_and_text(tmp_path, capsys, field, path, message, value):
    doc = {**SCENARIO, "cavity": BATH_CAVITY} if field in ("cavity.g0", "cavity.c") else SCENARIO
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(_set_field(doc, field, value)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"invalid config: {path}: {message}{value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["drive.omega", "cavity.kappa"])
def test_numeric_fields_refuse_integers_a_float_cannot_hold(tmp_path, capsys, field):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(_set_field(SCENARIO, field, 10 ** 400)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert f"invalid config: {field}: must be a number a float can hold, got 1000" in \
        capsys.readouterr().err
    assert not out.exists()


def test_bath_cavity_scenario_is_valid(tmp_path):
    # the base of the cavity.g0 and cavity.c cases above loads as it is
    config = tmp_path / "bath.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "cavity": BATH_CAVITY}))
    assert load_scenario(config).cavity.kappa == pytest.approx(0.04 * np.pi)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_negative_seed_override_is_refused_before_any_work(config_path, tmp_path, capsys,
                                                           monkeypatch, command):
    import leaky_cavity.cli as cli_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("no oracle may run for a refused option")

    for name, artifact in ARTIFACTS.items():  # the scenario is loaded, but nothing is written
        monkeypatch.setitem(ARTIFACTS, name, artifact._replace(write=forbidden))
    for name in dir(cli_mod.verification):  # nor is any check run
        if name.startswith("check_") or name == "_noise_benchmark":
            monkeypatch.setattr(cli_mod.verification, name, forbidden)
    out = tmp_path / "out"
    argv = {"run": ["run", "--config", str(config_path), "--out", str(out)],
            "verify": ["verify", "--config", str(config_path)]}[command]
    assert main(argv + ["--seed-override", "-3"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("invalid config: --seed-override: "
                                       "must be at least 0, got -3\n")
    assert not out.exists()


# Every integer input: the path it is set at (an option for --seed-override) and
# reported under, its least value and what follows that bound in the message.
INTEGER_INPUTS = [
    ("drive.n_max", 1, ""),
    ("grids.t.num", 2, ""),
    ("cavity.q", 1, ""),
    ("oracle.n_trials", 2, " (a standard error needs two trials)"),
    ("oracle.bath_modes", 100, " for a meaningful bath"),
    ("oracle.seed", 0, ""),
    ("--seed-override", 0, ""),
]


@pytest.mark.parametrize("case", ["bool", "integral-float", "quoted", "below-bound"])
@pytest.mark.parametrize("field, least, why", INTEGER_INPUTS,
                         ids=[field for field, _, _ in INTEGER_INPUTS])
def test_integer_inputs_share_one_rule(tmp_path, capsys, field, least, why, case):
    value = {"bool": True, "integral-float": 2.0, "quoted": "3", "below-bound": least - 1}[case]
    message = (f"must be at least {least}{why}, got {value}" if case == "below-bound"
               else f"must be an integer, got {value!r}")
    config = tmp_path / "bad.yaml"
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out", str(out)]
    if field == "--seed-override":  # the option's text is read as YAML, as the file is
        config.write_text(yaml.safe_dump(SCENARIO))
        argv += [field, json.dumps(value)]
    else:
        config.write_text(yaml.safe_dump(_set_field(SCENARIO, field, value)))
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"invalid config: {field}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["coeffs", "series", "decompose-input"])
def test_integral_float_cutoff_is_refused_for_every_dipole_source(tmp_path, capsys, source):
    # n_max: 3.0 loaded with inline coeffs, and ended in a TypeError traceback from
    # fourier_decompose with a dipole series or with decompose --input
    series_path = tmp_path / "dipole.csv"
    drive = DriveParams(omega=1.0, n_max=3)
    reference = load_scenario(default_scenario_path()).spectrum
    write_timeseries_csv(series_path, synthesize_mean_dipole(
        reference, np.linspace(0.0, 4 * drive.period, 4001)), label="d")
    doc = _set_field(SCENARIO, "drive.n_max", 3.0)
    if source == "series":
        doc["dipole"] = {"series": str(series_path)}
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out", str(out)]
    if source == "decompose-input":
        argv = ["decompose", "--config", str(config), "--input", str(series_path),
                "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "invalid config: drive.n_max: must be an integer, got 3.0\n"
    assert not out.exists()


@pytest.mark.parametrize("n_max", [MAX_N_MAX + 1, 10 ** 400], ids=["ceiling-plus-one", "huge"])
def test_n_max_above_the_ceiling_is_refused(tmp_path, capsys, n_max):
    # 10**400 passed the integer rule and was refused only by its coefficient count
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(_set_field(SCENARIO, "drive.n_max", n_max)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"invalid config: drive.n_max: must be at most "
                                       f"{MAX_N_MAX}, got {n_max}\n")
    assert not out.exists()


def test_a_comb_at_the_ceiling_loads(tmp_path):
    # without the amplitude oracle, whose budget such a comb exceeds (test below), and
    # with an omega grid, as the default one would exceed MAX_GRID_POINTS (test below)
    doc = {**_set_field(SCENARIO, "drive.n_max", MAX_N_MAX), "outputs": list(DEFAULT_OUTPUTS)}
    doc["grids"] = {**doc["grids"], "omega": {"stop": 2.0 * MAX_N_MAX, "num": 4001}}
    doc["dipole"] = {"coeffs": [[0.0, 0.0]] * MAX_N_MAX + [[0.125, 0.0]]}
    config = tmp_path / "ceiling.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert load_scenario(config).spectrum.coeffs.size == MAX_N_MAX + 1


def _ode_scenario(tmp_path, stop, n_max=3):
    doc = {**_set_field(SCENARIO, "grids.t.stop", stop), "outputs": ["amplitude_oracle"],
           "drive": {"omega": 1.0, "n_max": n_max},
           "dipole": {"coeffs": [[0.0, 0.0]] * n_max + [[0.125, 0.0]]}}
    config = tmp_path / "ode.yaml"
    config.write_text(yaml.safe_dump(doc))
    return config


def _ode_step_lines(config) -> int:
    loaded = load_scenario(config)
    steps = amplitude_ode_points(loaded.cavity, loaded.spectrum, loaded.t_grid[-1]) - 1
    return steps * loaded.spectrum.coeffs.size


def test_amplitude_oracle_budget_holds_the_shipped_and_test_scenarios(tmp_path):
    assert _ode_step_lines(default_scenario_path()) == 60_000 * 4
    assert _ode_step_lines(_ode_scenario(tmp_path, 50.0)) <= MAX_ODE_STEP_LINES / 100
    # the most steps the shipped comb's four lines may take loads
    shipped = load_scenario(default_scenario_path())
    h = amplitude_ode_step(shipped.cavity, shipped.spectrum)
    assert _ode_step_lines(_ode_scenario(tmp_path, MAX_ODE_STEP_LINES // 4 * h)) \
        == MAX_ODE_STEP_LINES


def test_the_amplitude_oracle_is_counted_as_np_arange_forms_its_grid():
    shipped = load_scenario(default_scenario_path())
    h = amplitude_ode_step(shipped.cavity, shipped.spectrum)
    for t_end in (100.0, 1e-4, 1.0 / 3.0, 2.5 * h, 12345.678, h / 2, h / 4):
        grid = np.arange(0.0, t_end + h / 2, h)
        assert amplitude_ode_points(shipped.cavity, shipped.spectrum, t_end) == grid.size
        assert np.array_equal(grid.view(np.uint64), (h * np.arange(grid.size)).view(np.uint64))


@pytest.mark.parametrize("stop, n_max, message", [
    ("budget-plus-one", 3, "gives the amplitude oracle 12500001 RK4 steps x 4 comb lines, "
                           "above its budget of 50000000 step-lines"),
    (50.0, 100, "gives the amplitude oracle 1000000 RK4 steps x 101 comb lines, "
                "above its budget of 50000000 step-lines"),
    (50.0, MAX_N_MAX, "gives the amplitude oracle 100000000 RK4 steps x 10001 comb lines, "
                      "above its budget of 50000000 step-lines"),
    (1e308, 3, "the amplitude oracle out to t = 1e+308 at its step 0.0016666666666666668 "
               "has more steps than a float holds"),
], ids=["budget-plus-one", "hundred-lines", "comb-at-the-ceiling", "beyond-a-float"])
def test_amplitude_oracle_work_beyond_the_budget_is_refused(tmp_path, capsys, stop, n_max,
                                                            message):
    # a step-line costs 100 ns or more: 101 lines to t = 50 take about 10 s, MAX_N_MAX hours
    if stop == "budget-plus-one":
        shipped = load_scenario(default_scenario_path())
        stop = (MAX_ODE_STEP_LINES // 4 + 1) * amplitude_ode_step(shipped.cavity,
                                                                  shipped.spectrum)
    out = tmp_path / "out"
    code = main(["run", "--config", str(_ode_scenario(tmp_path, stop, n_max)), "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"invalid config: grids.t.stop: {message}\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stop", [1e-6, 3e-4])
def test_an_amplitude_oracle_grid_of_one_point_is_refused(tmp_path, capsys, stop):
    # np.arange(0, stop + h/2, h) has one point for stop <= h/2 = 1/1200; such stops
    # exited 1 with "invalid input: t grid is not uniform", which named no path
    out = tmp_path / "out"
    code = main(["run", "--config", str(_ode_scenario(tmp_path, stop)), "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "invalid config: grids.t.stop: gives the amplitude oracle 1 point at its step "
        "0.0016666666666666668; it needs two, so t.stop must exceed half the step\n")
    assert not out.exists()
    # without the oracle the same stop loads
    doc = {**yaml.safe_load(_ode_scenario(tmp_path, stop).read_text()), "outputs": ["occupation"]}
    (tmp_path / "closed.yaml").write_text(yaml.safe_dump(doc))
    assert load_scenario(tmp_path / "closed.yaml").t_grid[-1] == stop


def test_an_amplitude_oracle_grid_of_two_points_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(_ode_scenario(tmp_path, 1e-3)), "--out", str(out)]) \
        == EXIT_OK
    assert len((out / "amplitude_oracle.csv").read_text().splitlines()) == 1 + 2


def _noise_scenario(tmp_path, n_trials, cavity=None, outputs=("noise_oracle",)):
    doc = {**SCENARIO, "cavity": cavity or SCENARIO["cavity"], "outputs": list(outputs),
           "oracle": {**SCENARIO["oracle"], "n_trials": n_trials}}
    config = tmp_path / "noise.yaml"
    config.write_text(yaml.safe_dump(doc))
    return config


def test_monte_carlo_budget_holds_the_shipped_and_test_scenarios(tmp_path):
    shipped = load_scenario(default_scenario_path())
    for cavity, n_trials in [(shipped.cavity, shipped.oracle.n_trials),
                             (load_scenario(_noise_scenario(tmp_path, 200)).cavity, 200)]:
        assert n_trials * noise_walk_steps(cavity) <= MAX_TRIAL_STEPS / 10
    most = MAX_TRIAL_STEPS // noise_walk_steps(shipped.cavity)
    assert load_scenario(_noise_scenario(tmp_path, most)).oracle.n_trials == most
    # the budget is the walk's: without noise_oracle nothing draws the trials
    assert load_scenario(_noise_scenario(tmp_path, 10 ** 12, outputs=["occupation"]))


@pytest.mark.parametrize("n_trials, cavity, message", [
    (10 ** 12, None, "must be at most 29112 for this cavity's walk of 34350 steps "
                     "(1000000000 trial-steps in all), got 1000000000000"),
    (29113, None, "must be at most 29112 for this cavity's walk of 34350 steps "
                  "(1000000000 trial-steps in all), got 29113"),
    (2, {"omega_q": 3.0, "g_q": 0.05, "kappa": 3e-6, "q": 3},
     "must be at most 0 for this cavity's walk of 1145000000 steps "
     "(1000000000 trial-steps in all), got 2"),
    (2, {"omega_q": 3.0, "g_q": 0.05, "kappa": 1e-310, "q": 3},
     "the Monte-Carlo walk at kappa = 1e-310 and omega_q = 3.0 has more steps than a "
     "float holds"),
], ids=["trillion-trials", "budget-plus-one", "walk-beyond-the-budget", "walk-beyond-a-float"])
def test_monte_carlo_work_beyond_the_budget_is_refused(tmp_path, capsys, n_trials, cavity,
                                                       message):
    out = tmp_path / "out"
    code = main(["run", "--config", str(_noise_scenario(tmp_path, n_trials, cavity)),
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"invalid config: oracle.n_trials: {message}\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_monte_carlo_walk_ceiling_holds_the_shipped_and_test_scenarios(tmp_path):
    shipped = load_scenario(default_scenario_path())
    for cavity in (shipped.cavity, load_scenario(_noise_scenario(tmp_path, 200)).cavity):
        assert noise_walk_steps(cavity) <= MAX_WALK_STEPS / 10
    # a walk of exactly MAX_WALK_STEPS loads
    at_ceiling = {**SCENARIO["cavity"], "kappa": 0.0034498997}
    assert noise_walk_steps(load_scenario(_noise_scenario(tmp_path, 2, at_ceiling)).cavity) \
        == MAX_WALK_STEPS


@pytest.mark.parametrize("kappa, steps", [(0.001, 3450000), (0.00344, 1002893)],
                         ids=["kappa-1e-3", "just-beyond"])
def test_monte_carlo_walk_beyond_the_ceiling_is_refused(tmp_path, capsys, kappa, steps):
    # at kappa = 0.001 the walk peaked at 210 MB of RSS with 2 trials, within the trial budget
    out = tmp_path / "out"
    cavity = {**SCENARIO["cavity"], "kappa": kappa}
    code = main(["run", "--config", str(_noise_scenario(tmp_path, 2, cavity)), "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == (f"invalid config: cavity: must give a Monte-Carlo walk of at most "
                   f"{MAX_WALK_STEPS} steps, got {steps} at omega_q = 3.0 and kappa = {kappa}\n")
    assert "Traceback" not in err
    assert not out.exists()


def test_seed_override_satisfies_the_mandatory_seed(tmp_path, capsys):
    config = tmp_path / "unseeded.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "oracle": {"n_trials": 20},
                                      "outputs": ["noise_oracle"]}))
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == ("invalid config: oracle.seed: seed is mandatory when "
                                       "Monte-Carlo output is requested\n")
    assert main(argv + ["--seed-override", "5"]) == EXIT_OK
    assert (out / "noise_oracle.csv").read_text().startswith("# n_trials=20\n# seed=5\n")


def test_noiseless_noise_oracle_reports_a_zero_pull(tmp_path):
    # with delta = 0 every trial stays in the vacuum, so every standard error is 0,
    # every pull 0/0, and the manifest reports a pull of 0
    config = tmp_path / "noiseless.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "fluctuation": {"delta": 0},
                                      "oracle": {"n_trials": 20, "seed": 7},
                                      "outputs": ["noise_oracle"]}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"] == {"noise_oracle_max_pull_stderr": 0.0}
    for name in ("noise_oracle.csv", "noise_oracle_two_time.csv"):
        rows = [line for line in (out / name).read_text().splitlines()
                if not line.startswith("#")][1:]  # after the comments and the header
        table = np.loadtxt(rows, delimiter=",")
        assert table.shape[0] > 1 and np.all(table[:, 1:] == 0.0), name


def _noisy_scenario(tmp_path, delta):
    config = tmp_path / "noisy.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "fluctuation": {"delta": delta},
                                      "oracle": {"n_trials": 20, "seed": 7},
                                      "outputs": ["noise_oracle"]}))
    return config


def test_a_walk_whose_sums_overflow_is_refused(tmp_path, capsys):
    # delta = 1e300 ran, overflowed the walk's sums of |d|^4 and wrote NaN standard
    # errors with a max pull of 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(_noisy_scenario(tmp_path, 1e300)),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == ("invalid config: fluctuation.delta: gives Monte-Carlo sums of |d|^4 up to "
                   "n_trials (100 C_Delta)^2 = inf; twice it must be a finite float\n")
    assert not out.exists()
    # the bound is the walk's: without noise_oracle the same delta loads
    doc = yaml.safe_load(_noisy_scenario(tmp_path, 1e300).read_text())
    (tmp_path / "closed.yaml").write_text(yaml.safe_dump({**doc, "outputs": ["occupation"]}))
    assert load_scenario(tmp_path / "closed.yaml").fluctuation.delta == 1e300


def test_a_nan_standard_error_is_not_reported_as_a_zero_pull(tmp_path, monkeypatch):
    walk = artifacts.monte_carlo_noise

    def nan_spread(*args, **kwargs):
        ens = walk(*args, **kwargs)
        ens.stderr_occupation[5] = np.nan
        return ens

    monkeypatch.setattr(artifacts, "monte_carlo_noise", nan_spread)
    out = tmp_path / "out"
    main(["run", "--config", str(_noisy_scenario(tmp_path, 0.2)), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert math.isnan(manifest["checks"]["noise_oracle_max_pull_stderr"])


def test_a_walk_just_inside_its_bound_writes_finite_numbers(tmp_path):
    cavity = SCENARIO["cavity"]
    c_per_delta = cavity["g_q"] ** 2 / (2.0 * cavity["kappa"])
    edge = math.sqrt(sys.float_info.max / (2 * 20)) / (WALK_TAIL_MARGIN * c_per_delta)
    with pytest.raises(ScenarioError, match="fluctuation.delta"):
        load_scenario(_noisy_scenario(tmp_path, 1.001 * edge))
    out = tmp_path / "out"
    assert main(["run", "--config", str(_noisy_scenario(tmp_path, 0.999 * edge)),
                 "--out", str(out)]) == EXIT_OK
    for name in ("noise_oracle.csv", "noise_oracle_two_time.csv"):
        rows = [line for line in (out / name).read_text().splitlines()
                if not line.startswith("#")][1:]
        assert np.all(np.isfinite(np.loadtxt(rows, delimiter=","))), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 < manifest["checks"]["noise_oracle_max_pull_stderr"] < 10.0


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


# Large finite inputs whose run wrote NaN or inf, or ended in an OverflowError traceback,
# with the five closed-form outputs: the field set, its value, and the refusal.
OVERFLOWING_INPUTS = {
    "t-stop": ("grids.t.stop", 1e308, "grids.t.stop: gives phases up to t.stop max(omega_q, "
               "top harmonic, kappa) = inf; twice it must be a finite float"),
    "tau-stop": ("grids.tau.stop", 1e308, "grids.tau.stop: gives phases up to (t.stop + "
                 "tau.stop) max(omega_q, top harmonic, kappa) = inf; twice it must be a "
                 "finite float"),
    "g_q-inf-artifacts": ("cavity.g_q", 1e154, "cavity.g_q: gives g_q^2 = 1e+308; twice it "
                          "must be a finite float"),
    "g_q-overflow-error": ("cavity.g_q", 1e200, "cavity.g_q: gives g_q^2 = inf; twice it must "
                           "be a finite float"),
    "dc-coefficient": ("dipole.coeffs", [[1e308, 0.0], [0.375, 0.0], [0.0, 0.0], [0.125, 0.0]],
                       "dipole.coeffs: gives a drive power up to (2 sum |d_N|)^2 = inf; twice "
                       "it must be a finite float"),
    "kappa": ("cavity.kappa", 1e300, "cavity.kappa: gives kappa^2 = inf; twice it must be a "
              "finite float"),
}


@pytest.mark.parametrize("field, value, message", OVERFLOWING_INPUTS.values(),
                         ids=OVERFLOWING_INPUTS.keys())
def test_inputs_beyond_a_float_are_refused_at_load(tmp_path, capsys, field, value, message):
    doc = {**_set_field(SCENARIO, field, value), "outputs": list(DEFAULT_OUTPUTS)}
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"invalid config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("delta, shown", [(1e306, "1e+308"), (1e308, "inf")])
def test_a_noise_strength_beyond_a_float_is_refused_at_load(tmp_path, capsys, delta, shown):
    # at g_q = 1 and kappa = 0.1 the noise parts' bound 2 C_Delta max(pi, kappa, 1/kappa)
    # is 100 delta, whose double is beyond a float
    doc = {**_set_field(_set_field(SCENARIO, "cavity.g_q", 1.0), "fluctuation.delta", delta),
           "outputs": list(DEFAULT_OUTPUTS)}
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"invalid config: fluctuation.delta: gives noise parts up to 2 C_Delta max(pi, kappa, "
        f"1/kappa) = {shown}; twice it must be a finite float\n")
    assert not out.exists()


def test_a_dipole_series_beyond_a_float_is_refused_under_its_path(tmp_path, capsys):
    series_path = tmp_path / "dipole.csv"
    reference = load_scenario(default_scenario_path()).spectrum
    series = synthesize_mean_dipole(reference, np.linspace(0.0, 4 * 2 * np.pi, 4001))
    write_timeseries_csv(series_path, replace(series, values=1e160 * series.values), label="d")
    doc = {**SCENARIO, "dipole": {"series": str(series_path)}, "outputs": list(DEFAULT_OUTPUTS)}
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("invalid config: dipole.series: gives a drive power up to "
                          "(2 sum |d_N|)^2 = inf;")
    assert not out.exists()


def test_large_finite_inputs_within_the_bounds_write_finite_numbers(tmp_path):
    # stops of 1e300 give phases of 6e300, and an omega grid to 1e308 squares its
    # detunings to inf, which leaves a continuum of 0
    doc = {**SCENARIO, "outputs": list(DEFAULT_OUTPUTS),
           "grids": {"t": {"stop": 1e300, "num": 101}, "tau": {"stop": 1e300, "num": 201},
                     "omega": {"stop": 1e308, "num": 301}}}
    config = tmp_path / "large.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    for path in out.iterdir():
        assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE), path.name


def _fields(node, prefix=""):
    """Dotted path of every key and list item under ``node``, as ``_set_field`` takes it."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + ".")


SHIPPED = {**yaml.safe_load(Path(default_scenario_path()).read_text()),
           "outputs": list(DEFAULT_OUTPUTS)}
# every field of the shipped scenario but its outputs, and a key misspelled beside each
# key of a mapping
SHIPPED_FIELDS = [path for path in _fields(SHIPPED) if path != "outputs" and
                  not path.startswith("outputs.")]
FUZZ_FIELDS = SHIPPED_FIELDS + [path + path[-1] for path in SHIPPED_FIELDS
                                if not path[-1].isdigit()]
# magnitudes from 1e-300 to the largest float, as the magnitude rule was swept over
# them, and values of a wrong type
FUZZ_VALUES = [1e-300, 1e-100, 1e-10, 0.01, 0.5, 3.0, 1e10, 1e100, 1e154, 1e200, 1e300,
               1.7e308, 0, 2, None, True, [1.0, 2.0], "text"]


def _fuzz_run(doc) -> int:
    """Exit code of ``run`` on the scenario ``doc``; it writes no file on exit 1, and no NaN or inf."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "fuzz.yaml", Path(tmp) / "out"
        config.write_text(yaml.safe_dump(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(config), "--out", str(out)])
        written = sorted(out.iterdir()) if out.exists() else []
        assert code != EXIT_VALIDATION or written == []
        for path in written:
            assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE), \
                path.name
    return code


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(field=st.sampled_from(FUZZ_FIELDS), value=st.sampled_from(FUZZ_VALUES))
def test_a_changed_field_exits_0_or_1_and_writes_only_finite_numbers(field, value):
    assert _fuzz_run(_set_field(SHIPPED, field, value)) in (EXIT_OK, EXIT_VALIDATION)


# the shipped scenario's closed forms, or one oracle each, the walk at a few trials;
# its own fields changed, one or two at a time (misspelled keys are the test above's),
# to moderate values half the time, so that more documents load and run
FUZZ_OUTPUTS = [list(DEFAULT_OUTPUTS), ["amplitude_oracle"], ["noise_oracle"], ["bath_oracle"]]
FUZZ_CHANGE = st.tuples(st.sampled_from(SHIPPED_FIELDS),
                        st.sampled_from([0.01, 0.5, 3.0, 2]) | st.sampled_from(FUZZ_VALUES))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(outputs=st.sampled_from(FUZZ_OUTPUTS), changes=st.lists(FUZZ_CHANGE, min_size=1, max_size=2))
def test_changed_fields_with_an_oracle_exit_0_1_or_2_and_write_only_finite_numbers(outputs,
                                                                                  changes):
    doc = {**_set_field(SHIPPED, "oracle.n_trials", 4), "outputs": outputs}
    for field, value in changes:
        with contextlib.suppress(TypeError, KeyError, IndexError):  # a parent changed away
            doc = _set_field(doc, field, value)
    assert _fuzz_run(doc) in (EXIT_OK, EXIT_VALIDATION, EXIT_ORACLE)


@pytest.mark.parametrize("kappa, points", [(1e-5, "6000201"), (1e-7, "600000201"),
                                           (1e-300, "6e+301"), (5e-324, "inf")])
def test_a_default_omega_grid_above_the_ceiling_is_refused(tmp_path, capsys, kappa, points):
    # 1e-5 loaded with 6 million points, 1e-7 with 4.8 GB per array, and 1e-300 ended
    # in numpy's "Maximum allowed size exceeded" without a path
    doc = {**_set_field(SCENARIO, "cavity.kappa", kappa), "outputs": list(DEFAULT_OUTPUTS)}
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"invalid config: grids.omega: must be given here: the default grid, kappa/20 apart "
        f"out to 10 kappa above the top line, has {points} points, more than "
        f"{MAX_GRID_POINTS}\n")
    assert not out.exists()


def test_a_default_omega_grid_at_the_ceiling_loads(tmp_path):
    # 20 (top + 10 kappa) / kappa + 1 points: kappa = 3 / 49989.95 gives 10^6
    doc = {**_set_field(SCENARIO, "cavity.kappa", 3.0 / 49989.95),
           "outputs": list(DEFAULT_OUTPUTS)}
    config = tmp_path / "ceiling.yaml"
    config.write_text(yaml.safe_dump(doc))
    config = load_scenario(config)
    assert config.omega_grid is None
    assert default_omega_grid(config.cavity, config.spectrum).size == MAX_GRID_POINTS


@pytest.fixture(scope="module")
def import_audit(tmp_path_factory):
    # One interpreter loads and runs the shipped scenario, which has no
    # noise_oracle, runs the bath oracle and imports verification, and prints
    # the numpy.random and scipy modules then loaded; a two-trial walk follows
    # and the modules are printed again.
    out = tmp_path_factory.mktemp("import-audit") / "out"
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import leaky_cavity.oracle as oracle, leaky_cavity.verification\n"
        "from leaky_cavity.cavity import CavityParams\n"
        "from leaky_cavity.cli import default_scenario_path, main\n"
        "from leaky_cavity.dipole import FluctuationModel\n"
        "from leaky_cavity.scenario import load_scenario\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'numpy.random' or m.split('.')[0] == 'scipy')\n"
        "params = CavityParams(omega_q=1.0, g_q=0.1, kappa=0.05)\n"
        "load_scenario(default_scenario_path())\n"
        "assert main(['run', '--config', str(default_scenario_path()),\n"
        f"             '--out', {str(out)!r}]) == 0\n"
        "oracle.discrete_bath_decay(oracle.BathDiscretization.for_damping(0.05, 1.0, 200, 2.0),\n"
        "                           params, [0.0, 1.0])\n"
        "print(loaded())\n"
        "oracle.monte_carlo_noise(params, FluctuationModel(0.2), np.arange(0.0, 1.0, 0.02),\n"
        "                         n_trials=2, seed=0)\n"
        "print(loaded())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-2:]


def test_run_imports_no_scipy(import_audit):
    # scipy is declared only by the test extras
    assert all("scipy" not in line for line in import_audit)


def test_only_the_walk_imports_numpy_random(import_audit):
    # the run, the bath oracle and verification draw nothing; the walk does
    assert import_audit == ["[]", "['numpy.random']"]


@pytest.mark.parametrize("q, message", [
    (2, "omega_q = 3.0 is not q * omega = 2 * 1.0"),
    (10 ** 400, "omega_q = 3.0 is not q * omega = 1000"),
    (3.0, "must be an integer, got 3.0"),
    (0, "must be at least 1, got 0"),
    (True, "must be an integer, got True"),
    ("3", "must be an integer, got '3'"),
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
        t = np.linspace(0.0, 4 * sweep.config.spectrum.drive.period, 4001)
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
    # no traced call takes RK4 steps: run's amplitude oracle integrates in a private step
    for name in ("cavity.points", "correlation.points", "spectrum.wkt_terms", "io.bytes_read",
                 "io.bytes_written", "io.rows_written", "oracle.mc_trial_steps",
                 "oracle.bath_modes", "runner.run.self_s",
                 "cavity.occupation.self_s", "spectrum.spectrum_from_correlation.self_s"):
        assert metrics[name][0] > 0, name
    assert metrics["oracle.bath_modes"][0] == SCENARIO["oracle"]["bath_modes"]
    assert metrics["verification.checks_failed"][0] == 0


def test_benchmark_tracer_counts_the_streamed_amplitude_oracle(tmp_path, monkeypatch):
    """run's amplitude oracle streams through calls the tracer counts: every row and closed-form
    point.  Its RK4 steps, taken in the private ``oracle._ode_rows``, are counted by patching it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    steps, ode_rows = [], oracle._ode_rows
    monkeypatch.setattr(oracle, "_ode_rows",
                        lambda *args: steps.append(args[2].size - 1) or ode_rows(*args))

    config = tmp_path / "ode.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "outputs": ["amplitude_oracle"]}))
    loaded = load_scenario(config)
    points = amplitude_ode_points(loaded.cavity, loaded.spectrum, loaded.t_grid[-1])
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 1
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        metrics = tracer.layer_metrics(1)
    finally:
        tracer.uninstall()
    csv = out / "amplitude_oracle.csv"
    assert sum(steps) == points - 1
    assert metrics["io.rows_written"][0] == points == csv.read_text().count("\n") - 1
    assert metrics["io.bytes_written"][0] >= csv.stat().st_size
    assert metrics["cavity.points"][0] == points * loaded.spectrum.coeffs.size


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "x"], "the following arguments are required: --out"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
], ids=["missing-option", "unknown-command", "no-command"])
def test_usage_error_exits_as_invalid_input(capsys, argv, message):
    # argparse's own exit code, 2, is the CLI's oracle failure
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: leaky-cavity")


@pytest.mark.parametrize("modes", [MAX_BATH_MODES + 1, 10 ** 400], ids=["ceiling-plus-one", "huge"])
def test_bath_modes_above_the_ceiling_are_refused(tmp_path, capsys, modes):
    # 10**400 ended in an OverflowError traceback from the bath's mode spacing
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(_set_field(SCENARIO, "oracle.bath_modes", modes)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"invalid config: oracle.bath_modes: must be at most "
                                       f"{MAX_BATH_MODES}, got {modes}\n")
    assert not out.exists()


@pytest.mark.parametrize("points", [MAX_GRID_POINTS + 1, 400_000_000, 10 ** 400],
                         ids=["ceiling-plus-one", "memory-error", "huge"])
@pytest.mark.parametrize("grid", ["t", "tau", "omega"])
def test_grid_points_above_the_ceiling_are_refused(tmp_path, capsys, grid, points):
    # 400 million t points ended in an _ArrayMemoryError traceback (23.8 GiB)
    doc = _set_field(SCENARIO, f"grids.{grid}", {"stop": 6.0, "num": points})
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"invalid config: grids.{grid}.num: must be at most "
                                       f"{MAX_GRID_POINTS}, got {points}\n")
    assert not out.exists()


def test_a_grid_at_the_ceiling_loads(tmp_path):
    config = tmp_path / "ceiling.yaml"
    config.write_text(yaml.safe_dump(_set_field(SCENARIO, "grids.t.num", MAX_GRID_POINTS)))
    assert load_scenario(config).t_grid.size == MAX_GRID_POINTS


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


BAD_CELLS = [("t,d\n0,1\n0.5,abc\n", "could not convert string 'abc'"),
             ("t,d\n0,1\n0.5,2,3\n", "number of columns changed from 2 to 3")]


@pytest.mark.parametrize("body", ["t,d\n", "t\n0\n1\n"] + [body for body, _ in BAD_CELLS],
                         ids=["header-only", "one-column", "non-numeric", "ragged"])
def test_decompose_rejects_unusable_csv(config_path, tmp_path, capsys, body):
    series_path = tmp_path / "dipole.csv"
    series_path.write_text(body)
    code = main(["decompose", "--config", str(config_path),
                 "--input", str(series_path), "--out", str(tmp_path / "dec")])
    assert code == EXIT_VALIDATION
    assert f"invalid input: {series_path}: " in capsys.readouterr().err


@pytest.mark.parametrize("body, message", BAD_CELLS, ids=["non-numeric", "ragged"])
def test_run_reports_a_bad_series_cell_under_its_field(tmp_path, capsys, body, message):
    series_path = tmp_path / "dipole.csv"
    series_path.write_text(body)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "dipole": {"series": "dipole.csv"}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"invalid config: dipole.series: {series_path}: " in err
    assert message in err
    assert not out.exists()


def _one_period_with(sample: str) -> str:
    """One drive period that resolves the scenario's comb, with ``sample`` as its fourth sample.

    numpy reads nan and inf as numbers, and the window is one the decomposition takes.
    """
    t = np.linspace(0.0, 2 * np.pi, 9)
    cells = [f"{v:.17g}" for v in np.cos(t)]
    cells[3] = sample
    return "t,d\n" + "".join(f"{a:.17g},{v}\n" for a, v in zip(t, cells))


UNUSABLE_SERIES = [("t,a,b,c\n0,1,2,3\n1,4,5,6\n", "got 4 columns"),
                   ("t,d\n-1e308,1\n1e308,2\n", "time span must be finite"),
                   ("t,d\n0,1\ninf,2\n", "time span must be finite"),
                   ("t,re,im\n0,1,0\n1,0.5,4\n2,-0.4,4.5\n", "a dipole series must be real"),
                   # each ended in numpy's RuntimeWarnings and "coeffs must be finite"
                   (_one_period_with("nan"),
                    f"a dipole series must be finite, got nan at t = {3 * np.pi / 4}"),
                   (_one_period_with("inf"),
                    f"a dipole series must be finite, got inf at t = {3 * np.pi / 4}")]
UNUSABLE_IDS = ["four-columns", "overflowing-span", "infinite-time", "complex", "nan-sample",
                "inf-sample"]


@pytest.mark.parametrize("body, message", UNUSABLE_SERIES, ids=UNUSABLE_IDS)
def test_decompose_refuses_a_series_it_cannot_take(config_path, tmp_path, capsys, body,
                                                   message):
    series_path = tmp_path / "dipole.csv"
    series_path.write_text(body)
    code = main(["decompose", "--config", str(config_path),
                 "--input", str(series_path), "--out", str(tmp_path / "dec")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {series_path}: ")
    assert message in err


@pytest.mark.parametrize("body, message", UNUSABLE_SERIES, ids=UNUSABLE_IDS)
def test_run_refuses_a_series_it_cannot_take(tmp_path, capsys, body, message):
    series_path = tmp_path / "dipole.csv"
    series_path.write_text(body)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump({**SCENARIO, "dipole": {"series": "dipole.csv"}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"invalid config: dipole.series: {series_path}: " in err
    assert message in err
    assert not out.exists()


ROOT = Path(__file__).resolve().parents[1]
GOLDEN_RUN_SHIPPED = ROOT / "perfbench" / "golden" / "run_shipped.sha256.json"


def test_shipped_run_matches_the_benchmark_golden_set(tmp_path):
    """Every file of a run of the shipped scenario has the hash the benchmark expects."""
    expected = json.loads(GOLDEN_RUN_SHIPPED.read_text())
    run(default_scenario_path(), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == expected


def test_shipped_run_matches_the_golden_set_at_two_blas_threads(tmp_path):
    """The same bytes from `leaky-cavity run` in a fresh interpreter with two OpenBLAS threads."""
    expected = json.loads(GOLDEN_RUN_SHIPPED.read_text())
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "leaky_cavity.cli", "run", "--config",
                           default_scenario_path(), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == expected


def test_verify_rejects_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"grids": {}}))
    assert main(["verify", "--config", str(path)]) == EXIT_VALIDATION
    assert "invalid config" in capsys.readouterr().err
