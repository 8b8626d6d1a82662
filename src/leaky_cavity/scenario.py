"""Scenario configuration: parsing and validation of the YAML front-end format.

A scenario bundles the drive, dipole, fluctuation and cavity parameters with
the evaluation grids, the convention tags, and the oracle settings.  Every
invariant violation is reported with the path of the offending field.
"""

import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .cavity import CavityParams
from .correlation import CONVENTIONS, tag_factor
from .dipole import DipoleSpectrum, DriveParams, FluctuationModel, fourier_decompose
from .spectrum import NORMALIZATIONS


class ScenarioError(ValueError):
    """Invalid configuration; ``errors`` maps field paths to messages."""

    def __init__(self, errors: dict):
        self.errors = dict(errors)
        super().__init__("; ".join(f"{k}: {v}" for k, v in self.errors.items()))


@dataclass(frozen=True)
class OracleSettings:
    n_trials: int = 2000
    seed: int | None = None
    bath_modes: int = 2000
    bath_half_width_kappas: float = 40.0


@dataclass(frozen=True)
class ScenarioConfig:
    drive: DriveParams
    spectrum: DipoleSpectrum
    fluctuation: FluctuationModel
    cavity: CavityParams
    t_grid: np.ndarray = field(repr=False)
    tau_grid: np.ndarray = field(repr=False)
    outputs: tuple
    omega_grid: np.ndarray | None = field(repr=False, default=None)
    correlation_convention: str = "tau-zero-consistent"
    normalization: str = "as-written"
    oracle: OracleSettings = field(default_factory=OracleSettings)


def _mapping(doc: dict, path: str, errors: dict) -> dict:
    """Section at the last key of ``path``; {} if absent, or if not a mapping (recorded)."""
    value = doc.get(path.rsplit(".", 1)[-1]) or {}
    if isinstance(value, dict):
        return value
    errors[path] = "must be a mapping"
    return {}


def _grid(grids, path, errors, required=True):
    doc = _mapping(grids, path, errors)
    if not doc:
        if required:
            errors.setdefault(path, "missing grid")
        return None
    stop = doc.get("stop")
    num = doc.get("num")
    numeric = all(isinstance(v, (int, float)) and np.isfinite(v) for v in (stop, num))
    if not (numeric and stop > 0 and int(num) == num and num >= 2):
        errors[path] = (f"grid needs finite stop > 0 and integer num >= 2, "
                        f"got stop={stop!r}, num={num!r}")
        return None
    return np.linspace(0.0, float(stop), int(num))


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ScenarioError on any violation."""
    from .runner import ARTIFACTS, BATH_KAPPA_T, DEFAULT_OUTPUTS, oracle_bath  # runner imports us

    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError({"<root>": "config must be a mapping"})
    errors: dict = {}

    drive = None
    dd = _mapping(doc, "drive", errors)
    if "drive" not in errors:
        try:
            drive = DriveParams(omega=float(dd.get("omega", 1.0)), n_max=dd.get("n_max", 1))
        except (TypeError, ValueError) as exc:
            errors["drive"] = str(exc)

    spectrum = None
    dip = _mapping(doc, "dipole", errors)
    if ("coeffs" in dip) == ("series" in dip):
        errors.setdefault("dipole", "give exactly one of 'coeffs' (inline) or 'series' (CSV path)")
    elif drive is not None:
        try:
            if "coeffs" in dip:
                coeffs = np.array([complex(re, im) for re, im in dip["coeffs"]])
                spectrum = DipoleSpectrum(drive=drive, coeffs=coeffs)
            else:
                from .io import read_timeseries_csv
                series_path = dip["series"]
                if not os.path.isabs(series_path):
                    series_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                                               series_path)
                spectrum = fourier_decompose(read_timeseries_csv(series_path), drive)
        except (OSError, TypeError, ValueError) as exc:
            errors["dipole.series" if "series" in dip else "dipole"] = str(exc)

    fluct = None
    fdoc = _mapping(doc, "fluctuation", errors)
    try:
        fluct = FluctuationModel(delta=float(fdoc.get("delta", 0.0)))
    except (TypeError, ValueError) as exc:
        errors["fluctuation.delta"] = str(exc)

    cavity = None
    cav = _mapping(doc, "cavity", errors)
    has_kappa = cav.get("kappa") is not None
    has_bath = cav.get("g0") is not None or cav.get("c") is not None
    if has_kappa and has_bath:
        errors["cavity.kappa"] = (
            "give exactly one of 'kappa' or ('g0', 'c'); "
            "found kappa together with g0/c"
        )
    elif not has_kappa and not has_bath:
        errors.setdefault("cavity", "give exactly one of 'kappa' or ('g0', 'c')")
    else:
        try:
            cavity = CavityParams(
                omega_q=float(cav.get("omega_q", 0.0)),
                g_q=float(cav.get("g_q", 0.0)),
                kappa=cav.get("kappa"),
                g0=cav.get("g0"),
                c=cav.get("c"),
                q=cav.get("q"),
            )
        except (TypeError, ValueError) as exc:
            errors["cavity"] = str(exc)

    grids = _mapping(doc, "grids", errors)
    t_grid = _grid(grids, "grids.t", errors)
    tau_grid = _grid(grids, "grids.tau", errors)
    omega_grid = _grid(grids, "grids.omega", errors, required=False)

    conv = _mapping(doc, "conventions", errors)
    correlation_convention = conv.get("correlation", "tau-zero-consistent")
    try:
        tag_factor(CONVENTIONS, correlation_convention, "convention")
    except ValueError as exc:
        errors["conventions.correlation"] = str(exc)
    normalization = conv.get("normalization", "as-written")
    try:
        tag_factor(NORMALIZATIONS, normalization, "normalization")
    except ValueError as exc:
        errors["conventions.normalization"] = str(exc)

    osettings = OracleSettings()
    odoc = _mapping(doc, "oracle", errors)
    try:
        osettings = OracleSettings(
            n_trials=int(odoc.get("n_trials", 2000)),
            seed=odoc.get("seed"),
            bath_modes=int(odoc.get("bath_modes", 2000)),
            bath_half_width_kappas=float(odoc.get("bath_half_width_kappas", 40.0)),
        )
        if osettings.n_trials < 2:
            errors["oracle.n_trials"] = "must be at least 2 (a standard error needs two trials)"
        if osettings.bath_modes < 100:
            errors["oracle.bath_modes"] = "must be at least 100 for a meaningful bath"
    except (TypeError, ValueError) as exc:
        errors["oracle"] = str(exc)

    outputs = doc.get("outputs") or DEFAULT_OUTPUTS
    if not isinstance(outputs, (list, tuple)):
        raise ScenarioError({**errors, "outputs": "must be a list of artifact names"})
    outputs = tuple(outputs)
    known = tuple(ARTIFACTS)
    for name in outputs:
        if name not in known:
            errors[f"outputs.{name}"] = f"unknown artifact; known: {known}"

    if "noise_oracle" in outputs and osettings.seed is None:
        errors["oracle.seed"] = "seed is mandatory when Monte-Carlo output is requested"

    if cavity is not None and "bath_oracle" in outputs and "oracle.bath_modes" not in errors:
        horizon = BATH_KAPPA_T / cavity.kappa
        try:
            recurrence = oracle_bath(cavity, osettings).recurrence_time
        except ValueError as exc:
            errors["oracle.bath_half_width_kappas"] = str(exc)
        else:
            if recurrence <= horizon:
                errors["oracle.bath_modes"] = (
                    f"undersized bath: recurrence time {recurrence:.3g} does not exceed "
                    f"the kappa*t = {BATH_KAPPA_T:g} horizon {horizon:.3g}; "
                    "increase bath_modes"
                )

    if errors:
        raise ScenarioError(errors)
    return ScenarioConfig(
        drive=drive, spectrum=spectrum, fluctuation=fluct, cavity=cavity,
        t_grid=t_grid, tau_grid=tau_grid, omega_grid=omega_grid,
        correlation_convention=correlation_convention, normalization=normalization,
        oracle=osettings, outputs=outputs,
    )
