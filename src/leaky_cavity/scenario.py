"""Scenario configuration: parsing and validation of the YAML front-end format.

A scenario bundles the drive, dipole, fluctuation and cavity parameters with
the evaluation grids, the convention tags, and the oracle settings.  Every
invariant violation is reported with the path of the offending field.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .cavity import CavityParams
from .correlation import CONVENTIONS, tag_factor
from .dipole import DipoleSpectrum, DriveParams, FluctuationModel, fourier_decompose
from .io import read_timeseries_csv
from .oracle import BATH_HALF_WIDTH_KAPPAS, BATH_KAPPA_T, cavity_bath
from .spectrum import NORMALIZATIONS

# Relative slack in cavity.omega_q == cavity.q * drive.omega.
_Q_RTOL = 1e-12


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
    bath_half_width_kappas: float = BATH_HALF_WIDTH_KAPPAS


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


def _is_number(value) -> bool:
    """A YAML int or float that a float can hold; booleans (ints to Python) and text are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _number(value, path: str, errors: dict):
    """``value`` as YAML gave it if it is a number, else None with an error at ``path``.

    Whether it is finite and in range is left to the parameter classes.
    """
    if _is_number(value):
        return value
    too_large = isinstance(value, int) and not isinstance(value, bool)
    errors[path] = f"must be a number{' a float can hold' if too_large else ''}, got {value!r}"
    return None


def _coefficients(entries, errors: dict):
    """``dipole.coeffs`` [re, im] pairs as complex numbers; None, with an error, on a bad entry."""
    if not isinstance(entries, list):
        errors["dipole.coeffs"] = f"must be a list of [re, im] pairs, got {entries!r}"
        return None
    values = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry))):
            errors["dipole.coeffs"] = f"entry {i} must be a pair of numbers [re, im], got {entry!r}"
            return None
        values.append(complex(*entry))
    return np.array(values)


def _grid(grids, path, errors, required=True):
    doc = _mapping(grids, path, errors)
    if not doc:
        if required:
            errors.setdefault(path, "missing grid")
        return None
    stop = doc.get("stop")
    num = doc.get("num")
    numeric = all(_is_number(v) and math.isfinite(v) for v in (stop, num))
    if not (numeric and stop > 0 and int(num) == num and num >= 2):
        errors[path] = (f"grid needs finite stop > 0 and integer num >= 2, "
                        f"got stop={stop!r}, num={num!r}")
        return None
    return np.linspace(0.0, float(stop), int(num))


def decompose_series(path, drive: DriveParams) -> DipoleSpectrum:
    """The harmonic comb of the real dipole series in the CSV file at ``path``.

    Every ``ValueError``, from the reader or from ``fourier_decompose``, names ``path``.
    """
    series = read_timeseries_csv(path)
    try:
        return fourier_decompose(series, drive)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ScenarioError on any violation."""
    from .runner import ARTIFACTS, DEFAULT_OUTPUTS  # runner imports us

    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError({"<root>": "config must be a mapping"})
    errors: dict = {}

    drive = None
    known = len(errors)
    dd = _mapping(doc, "drive", errors)
    omega = _number(dd.get("omega", 1.0), "drive.omega", errors)
    n_max = _number(dd.get("n_max", 1), "drive.n_max", errors)
    if len(errors) == known:
        try:
            drive = DriveParams(omega=float(omega), n_max=n_max)
        except ValueError as exc:
            errors["drive"] = str(exc)

    spectrum = None
    dip = _mapping(doc, "dipole", errors)
    series = dip.get("series")
    if ("coeffs" in dip) == ("series" in dip):
        errors.setdefault("dipole", "give exactly one of 'coeffs' (inline) or 'series' (CSV path)")
    elif "series" in dip and not (isinstance(series, str) and series):
        errors["dipole.series"] = f"must be the path of a CSV file, got {series!r}"
    elif drive is not None:
        try:
            if "coeffs" in dip:
                coeffs = _coefficients(dip["coeffs"], errors)
                if coeffs is not None:
                    spectrum = DipoleSpectrum(drive=drive, coeffs=coeffs)
            else:  # from the scenario's directory; join keeps an absolute path as it is
                spectrum = decompose_series(
                    os.path.join(os.path.dirname(os.path.abspath(path)), series), drive)
        except (OSError, ValueError) as exc:
            errors["dipole.series" if "series" in dip else "dipole"] = str(exc)

    fluct = None
    fdoc = _mapping(doc, "fluctuation", errors)
    delta = _number(fdoc.get("delta", 0.0), "fluctuation.delta", errors)
    if delta is not None:
        try:
            fluct = FluctuationModel(delta=float(delta))
        except ValueError as exc:
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
        known = len(errors)
        omega_q = _number(cav.get("omega_q", 0.0), "cavity.omega_q", errors)
        g_q = _number(cav.get("g_q", 0.0), "cavity.g_q", errors)
        rates = {key: cav.get(key) for key in ("kappa", "g0", "c")}  # any of them may be absent
        rates = {key: value if value is None else _number(value, f"cavity.{key}", errors)
                 for key, value in rates.items()}
        if len(errors) == known:
            try:
                cavity = CavityParams(omega_q=float(omega_q), g_q=float(g_q), **rates)
            except (TypeError, ValueError) as exc:
                errors["cavity"] = str(exc)
    # q, the harmonic the cavity is tuned to, is checked and not stored
    q = cav.get("q")
    if q is not None:
        if isinstance(q, bool) or not isinstance(q, int) or q < 1:
            errors["cavity.q"] = f"must be a positive integer, got {q!r}"
        elif cavity is not None and drive is not None:
            # float bounds against the int q compare exactly, so no q overflows
            ratio = cavity.omega_q / drive.omega
            if not (1.0 - _Q_RTOL) * ratio <= q <= (1.0 + _Q_RTOL) * ratio:
                errors["cavity.q"] = (f"omega_q = {cavity.omega_q} is not q * omega = "
                                      f"{q} * {drive.omega}")

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

    odoc = _mapping(doc, "oracle", errors)
    settings = {key: odoc.get(key, value) for key, value in vars(OracleSettings()).items()}
    for key, least, below in (("n_trials", 2, "(a standard error needs two trials)"),
                              ("bath_modes", 100, "for a meaningful bath")):
        value = settings[key]
        if isinstance(value, bool) or not isinstance(value, int):
            errors[f"oracle.{key}"] = f"must be an integer, got {value!r}"
        elif value < least:
            errors[f"oracle.{key}"] = f"must be at least {least} {below}"
    seed = settings["seed"]
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
        errors["oracle.seed"] = "must be a non-negative integer"
    half_width = _number(settings["bath_half_width_kappas"], "oracle.bath_half_width_kappas",
                         errors)
    if half_width is not None:
        settings["bath_half_width_kappas"] = float(half_width)
    osettings = OracleSettings(**settings)

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

    if (cavity is not None and "bath_oracle" in outputs
            and not {"oracle.bath_modes", "oracle.bath_half_width_kappas"} & errors.keys()):
        horizon = BATH_KAPPA_T / cavity.kappa
        try:
            recurrence = cavity_bath(cavity, osettings.bath_modes,
                                     osettings.bath_half_width_kappas).recurrence_time
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
