"""Scenario configuration: parsing and validation of the YAML front-end format.

A scenario bundles the drive, dipole, fluctuation and cavity parameters with
the evaluation grids, the convention tags, and the oracle settings.  Every
invariant violation is reported with the path of the offending field.
"""

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .artifacts import ARTIFACTS, DEFAULT_OUTPUTS, MAX_GRID_POINTS, _build, _float
from .cavity import CavityParams, noise_saturation
from .correlation import CONVENTIONS, tag_factor
from .dipole import DipoleSpectrum, DriveParams, FluctuationModel, fourier_decompose
from .io import read_timeseries_csv
from .oracle import BATH_HALF_WIDTH_KAPPAS, MIN_TRIALS, _fastest_rate
from .spectrum import NORMALIZATIONS

# Relative slack in cavity.omega_q == cavity.q * drive.omega.
_Q_RTOL = 1e-12

# Largest oracle.bath_modes: the bath oracle's time and memory grow linearly in
# the mode count, and a million modes take about 17 s and 250 MB.
MAX_BATH_MODES = 10 ** 6
# Largest drive.n_max: the closed forms grow with grid points x comb lines, and 10^4
# lines on the shipped grids ran the five of them in 4.9 s and 550 MB of peak RSS.
MAX_N_MAX = 10 ** 4

# PyYAML's libyaml parser where PyYAML was built with it (the shipped scenario
# parses in 0.3 ms, not 2.6 ms, on a 2-vCPU Xeon), else its pure-Python one; both
# build the same documents.  Scenario files and option values are read with it.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
    spectrum: DipoleSpectrum
    fluctuation: FluctuationModel
    cavity: CavityParams
    t_grid: np.ndarray = field(repr=False)
    tau_grid: np.ndarray = field(repr=False)
    outputs: tuple
    omega_grid: np.ndarray | None = field(repr=False)
    correlation_convention: str
    normalization: str
    oracle: OracleSettings


# The keys the loader reads in each mapping of a scenario, by path ("" is the top
# level); any other key is refused under its path.
_KEYS = {
    "": ("drive", "dipole", "fluctuation", "cavity", "grids", "conventions", "oracle",
         "outputs"),
    "drive": ("omega", "n_max"),
    "dipole": ("coeffs", "series"),
    "fluctuation": ("delta",),
    "cavity": ("omega_q", "g_q", "kappa", "g0", "c", "q"),
    "grids": ("t", "tau", "omega"),
    **dict.fromkeys(("grids.t", "grids.tau", "grids.omega"), ("stop", "num")),
    "conventions": ("correlation", "normalization"),
    "oracle": tuple(f.name for f in fields(OracleSettings)),
}


def _refuse_unknown_keys(section: dict, path: str, errors: dict) -> None:
    """Record under its path each key of the mapping at ``path`` that the loader does not read."""
    known = _KEYS[path]
    for key in section:
        if key not in known:
            errors[f"{path}.{key}" if path else str(key)] = (
                f"unknown key; known: {', '.join(known)}")


def _mapping(doc: dict, path: str, errors: dict) -> dict:
    """Section at the last key of ``path``; {} if absent, or if not a mapping (recorded).

    Its unknown keys are recorded too.
    """
    value = doc.get(path.rsplit(".", 1)[-1]) or {}
    if isinstance(value, dict):
        _refuse_unknown_keys(value, path, errors)
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


def _integer(value, path: str, errors: dict, least: int, why: str = "", most: int | None = None):
    """The rule of every integer input: a YAML int, not a boolean, from ``least`` to ``most``.

    ``most`` None sets no ceiling; ``why`` follows the floor in its message.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        errors[path] = f"must be an integer, got {value!r}"
    elif value < least:
        errors[path] = f"must be at least {least}{why}, got {value!r}"
    elif most is not None and value > most:
        errors[path] = f"must be at most {most}, got {value!r}"
    else:
        return value
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
    num = _integer(doc.get("num"), f"{path}.num", errors, 2, most=MAX_GRID_POINTS)
    if not (_is_number(stop) and math.isfinite(stop) and stop > 0):
        errors[path] = (f"grid needs finite stop > 0 and integer num >= 2, "
                        f"got stop={stop!r}, num={doc.get('num')!r}")
        return None
    return None if num is None else np.linspace(0.0, float(stop), num)


def _magnitude_problem(cavity, spectrum, fluct, t_stop: float, tau_stop: float,
                       dipole_path: str):
    """(path, message) of the first bound on a run's numbers beyond a float, else None.

    The rule that keeps a run's artifacts finite: each number a run forms is
    bounded by one of these, and twice each bound must be a finite float, so
    that a sum of two, such as an occupation's coherent and noise parts, stays
    finite too.  The largest time is t.stop + tau.stop, the two-time
    correlator's, and as |i(omega_q - omega_N) + kappa| >= kappa, a line's
    response to a unit drive is at most 1/kappa.
    """
    drive = _float(lambda: 2.0 * np.sum(np.abs(spectrum.coeffs)))  # 2 sum |d_N|
    rate = _float(lambda: _fastest_rate(cavity, spectrum))
    g_q, kappa = abs(cavity.g_q), cavity.kappa
    bounds = (
        ("drive.omega", "a top harmonic n_max omega", lambda: spectrum.harmonics()[-1]),
        ("grids.t.stop", "phases up to t.stop max(omega_q, top harmonic, kappa)",
         lambda: t_stop * rate),
        ("grids.tau.stop", "phases up to (t.stop + tau.stop) max(omega_q, top harmonic, kappa)",
         lambda: (t_stop + tau_stop) * rate),
        (dipole_path, "a drive power up to (2 sum |d_N|)^2", lambda: drive ** 2),
        ("cavity.kappa", "kappa^2", lambda: kappa ** 2),
        ("cavity.kappa", "a response to the drive up to (2 sum |d_N| / kappa)^2",
         lambda: (drive / kappa) ** 2),
        ("cavity.g_q", "g_q^2", lambda: g_q ** 2),
        ("cavity.g_q", "a force up to |g_q| 2 sum |d_N|", lambda: g_q * drive),
        ("cavity.g_q", "coherent parts up to (2 |g_q| sum |d_N| / kappa)^2",
         lambda: (g_q * drive / kappa) ** 2),
        ("fluctuation.delta", "noise parts up to 2 C_Delta max(pi, kappa, 1/kappa)",
         lambda: 2.0 * noise_saturation(cavity, fluct) * max(np.pi, kappa, 1.0 / kappa)),
    )
    for path, what, bound in bounds:
        value = _float(bound)
        if not math.isfinite(2.0 * value):
            return path, f"gives {what} = {value:.3g}; twice it must be a finite float"
    return None


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """What a YAML parse error found, and where (1-based line and column) if the parser says."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return f"malformed YAML: {' '.join(str(exc).split())}"
    return f"malformed YAML: {exc.problem} at line {mark.line + 1}, column {mark.column + 1}"


def decompose_series(path, drive: DriveParams) -> DipoleSpectrum:
    """The harmonic comb of the real dipole series in the CSV file at ``path``.

    Every ``ValueError``, from the reader or from ``fourier_decompose``, names ``path``.
    """
    series = read_timeseries_csv(path)
    try:
        return fourier_decompose(series, drive)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_scenario(path, seed_override=None) -> ScenarioConfig:
    """Parse and validate a scenario file, ``seed_override`` as its seed; raises ScenarioError."""
    with open(path, "rb") as fh:  # bytes, so that YAML's reader also judges the encoding
        try:
            doc = yaml.load(fh, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ScenarioError({"<root>": _yaml_problem(exc)}) from None
    if not isinstance(doc, dict):
        raise ScenarioError({"<root>": "config must be a mapping"})
    errors: dict = {}
    _refuse_unknown_keys(doc, "", errors)

    drive = None
    dd = _mapping(doc, "drive", errors)
    omega = _number(dd.get("omega", 1.0), "drive.omega", errors)
    n_max = _integer(dd.get("n_max", 1), "drive.n_max", errors, 1, most=MAX_N_MAX)
    if "drive" not in errors and None not in (omega, n_max):
        drive = _build(errors, "drive", DriveParams, omega=float(omega), n_max=n_max)

    spectrum = None
    dip = _mapping(doc, "dipole", errors)
    series = dip.get("series")
    if ("coeffs" in dip) == ("series" in dip):
        errors.setdefault("dipole", "give exactly one of 'coeffs' (inline) or 'series' (CSV path)")
    elif "series" in dip and not (isinstance(series, str) and series):
        errors["dipole.series"] = f"must be the path of a CSV file, got {series!r}"
    elif drive is not None and "coeffs" in dip:
        coeffs = _coefficients(dip["coeffs"], errors)
        if coeffs is not None:
            spectrum = _build(errors, "dipole", DipoleSpectrum, drive=drive, coeffs=coeffs)
    elif drive is not None:  # from the scenario's directory; join keeps an absolute path as it is
        spectrum = _build(errors, "dipole.series", decompose_series,
                          os.path.join(os.path.dirname(os.path.abspath(path)), series), drive)

    fdoc = _mapping(doc, "fluctuation", errors)
    delta = _number(fdoc.get("delta", 0.0), "fluctuation.delta", errors)
    fluct = None if delta is None else _build(errors, "fluctuation.delta", FluctuationModel,
                                              delta=float(delta))

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
        omega_q = _number(cav.get("omega_q", 0.0), "cavity.omega_q", errors)
        g_q = _number(cav.get("g_q", 0.0), "cavity.g_q", errors)
        rates = {key: _number(cav[key], f"cavity.{key}", errors)  # only the rates given
                 for key in ("kappa", "g0", "c") if cav.get(key) is not None}
        if None not in (omega_q, g_q, *rates.values()):
            cavity = _build(errors, "cavity", CavityParams, omega_q=float(omega_q),
                            g_q=float(g_q), **rates)
    # q, the harmonic the cavity is tuned to, is checked and not stored
    q = cav.get("q")
    if (q is not None and _integer(q, "cavity.q", errors, 1) is not None
            and cavity is not None and drive is not None):
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
    _build(errors, "conventions.correlation", tag_factor, CONVENTIONS, correlation_convention,
           "convention")
    normalization = conv.get("normalization", "as-written")
    _build(errors, "conventions.normalization", tag_factor, NORMALIZATIONS, normalization,
           "normalization")

    odoc = _mapping(doc, "oracle", errors)
    settings = {key: odoc.get(key, value) for key, value in vars(OracleSettings()).items()}
    seed_path = "oracle.seed"
    if seed_override is not None:
        settings["seed"], seed_path = seed_override, "--seed-override"
    _integer(settings["n_trials"], "oracle.n_trials", errors, MIN_TRIALS,
             " (a standard error needs two trials)")
    _integer(settings["bath_modes"], "oracle.bath_modes", errors, 100, " for a meaningful bath",
             MAX_BATH_MODES)
    if settings["seed"] is not None:
        _integer(settings["seed"], seed_path, errors, 0)
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

    config = ScenarioConfig(  # None where a part is refused, for the budgets
        spectrum=spectrum, fluctuation=fluct, cavity=cavity, t_grid=t_grid, tau_grid=tau_grid,
        omega_grid=omega_grid, correlation_convention=correlation_convention,
        normalization=normalization, oracle=osettings, outputs=outputs)
    for name, artifact in ARTIFACTS.items():  # the work of each requested output
        if name in outputs:
            errors.update(artifact.budget(config, errors.keys()))

    if not errors:  # the bounds of a scenario that every other rule admits
        problem = _magnitude_problem(cavity, spectrum, fluct, float(t_grid[-1]),
                                     float(tau_grid[-1]),
                                     "dipole.series" if series else "dipole.coeffs")
        if problem is not None:
            errors[problem[0]] = problem[1]
    if errors:
        raise ScenarioError(errors)
    return config
