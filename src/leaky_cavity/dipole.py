"""Classical dipole signal: harmonic Fourier decomposition and white-noise fluctuations.

The mean dipole lives on the harmonic comb omega_N = N*omega and is stored as
complex coefficients d_N for N >= 0 only; negative harmonics follow from
d(-omega_N) = conj(d(omega_N)) since the signal is real.  Fluctuations are a
zero-mean delta-correlated noise of magnitude delta, discretized as Gaussian
increments of variance delta/dt.
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

# Relative slack when deciding whether a sampled window spans whole periods.
_PERIOD_TOL = 1e-9

# Largest step deviation, relative to the first step, that still counts as uniform.
_UNIFORM_RTOL = 1e-9

# Elements of one row block of a phase table that is summed over its columns;
# it bounds memory, not results, since each row is summed on its own.
_PHASE_BLOCK_ELEMENTS = 1 << 18


def require_finite(params) -> None:
    """Raise ValueError naming the first real-valued field of a dataclass that is NaN or infinite."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def uniform_steps(times, name: str = "time") -> np.ndarray:
    """Steps of an increasing uniform grid of at least two points; raises ValueError otherwise."""
    steps = np.diff(times)
    if steps.size == 0:
        raise ValueError(f"{name} grid is not uniform")
    if not np.all(steps > 0):
        raise ValueError(f"{name} grid must be increasing")
    if np.max(np.abs(steps - steps[0])) > _UNIFORM_RTOL * steps[0]:
        raise ValueError(f"{name} grid is not uniform")
    return steps


def phase_table(t, freqs) -> np.ndarray:
    """Table exp(i t_j f_k) over the 1-d arrays t and freqs, built in one complex buffer.

    The products t_j f_k fill the imaginary part of a zeroed buffer and exp is
    taken in place, so callers can subtract or scale it in place too; pass
    -freqs for exp(-i t f).  Equal to np.exp(1j * np.outer(t, freqs)) except
    that a product of -0 keeps its sign in the imaginary part.  A table that
    is cached to be shared across calls (the correlators' comb table) is made
    read-only, and its users subtract from it into a new array.
    """
    t = np.ravel(np.asarray(t, dtype=float))
    table = np.zeros((t.size, np.size(freqs)), dtype=complex)
    np.multiply.outer(t, np.asarray(freqs, dtype=float), out=table.imag)
    return np.exp(table, out=table)


def _phase_row_blocks(n_rows: int, n_cols: int) -> list:
    """Row slices over range(n_rows), each of one row or at most _PHASE_BLOCK_ELEMENTS elements."""
    rows = max(1, _PHASE_BLOCK_ELEMENTS // n_cols)
    return [slice(lo, lo + rows) for lo in range(0, n_rows, rows)]


@dataclass(frozen=True)
class DriveParams:
    """Fundamental drive frequency and harmonic cutoff."""

    omega: float = 1.0
    n_max: int = 1

    def __post_init__(self):
        require_finite(self)
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {self.n_max}")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def harmonics(self) -> np.ndarray:
        """Frequencies omega_N = N*omega for N = 0..n_max."""
        return self.omega * np.arange(self.n_max + 1, dtype=float)


@dataclass(frozen=True)
class DipoleSpectrum:
    """Complex harmonic coefficients d_N of the mean dipole, N = 0..n_max."""

    drive: DriveParams
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size != self.drive.n_max + 1:
            raise ValueError(
                f"need {self.drive.n_max + 1} coefficients (N = 0..n_max), got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError(f"coeffs must be finite, got {c}")
        object.__setattr__(self, "coeffs", c)

    def harmonics(self) -> np.ndarray:
        return self.drive.harmonics()

    def positive_frequency_signal(self, t):
        """Analytic (positive-frequency) signal sum_N d_N exp(-i omega_N t).

        This is the part of the drive kept by the rotating-wave-like truncation;
        all closed forms in :mod:`leaky_cavity.cavity` are driven by it.
        """
        t = np.asarray(t, dtype=float)
        out = phase_table(t, -self.harmonics()) @ self.coeffs
        return out if t.ndim else complex(out[0])

    def to_dict(self) -> dict:
        return {
            "omega": float(self.drive.omega),
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
            # DC coefficient is kept; flagged because its retention in spectra
            # is a modeling choice, not a mathematical necessity.
            "dc_retained": True,
        }


@dataclass(frozen=True)
class FluctuationModel:
    """Magnitude delta of the delta-correlated dipole noise, <dd dd> = delta*delta(t-t')."""

    delta: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")


@dataclass(frozen=True)
class TimeSeries:
    """Samples on a strictly increasing time grid."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.times.size

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


def fourier_decompose(signal: TimeSeries, drive: DriveParams) -> DipoleSpectrum:
    """Project a real dipole series onto the harmonic comb.

    d_N = (1/T) * integral_0^T d(t) exp(+i omega_N t) dt, trapezoidal rule on
    the sampled window.  The window must span a whole number of drive periods
    and resolve the highest requested harmonic.
    """
    uniform_steps(signal.times)
    span = signal.span
    n_periods = span / drive.period
    if abs(n_periods - round(n_periods)) > _PERIOD_TOL * max(1.0, n_periods):
        raise ValueError(
            f"incommensurate window: span {span} is {n_periods} periods, expected an integer"
        )
    n_periods = int(round(n_periods))
    if n_periods < 1:
        raise ValueError("incommensurate window: signal spans less than one period")
    samples_per_period = (len(signal) - 1) / n_periods
    if samples_per_period < 2 * drive.n_max + 1:
        raise ValueError(
            f"aliasing risk: {samples_per_period:.1f} samples per period cannot resolve "
            f"harmonic {drive.n_max} (need at least {2 * drive.n_max + 1})"
        )
    t = signal.times - signal.times[0]
    vals = np.asarray(signal.values, dtype=float)
    coeffs = np.empty(drive.n_max + 1, dtype=complex)
    for n in range(drive.n_max + 1):
        integrand = vals * np.exp(1j * n * drive.omega * t)
        coeffs[n] = np.trapezoid(integrand, t) / span
    return DipoleSpectrum(drive=drive, coeffs=coeffs)


def synthesize_mean_dipole(spectrum: DipoleSpectrum, times) -> TimeSeries:
    """Reconstruct the real mean dipole sum_N d_N exp(-i omega_N t) over all N.

    Conjugate symmetry folds the negative harmonics in:
    d(t) = sum_{N>=0} 2 Re[d_N exp(-i omega_N t)] - Re[d_0].
    """
    times = np.asarray(times, dtype=float)
    vals = 2.0 * np.real(spectrum.positive_frequency_signal(times)) - np.real(spectrum.coeffs[0])
    return TimeSeries(times=times, values=vals)


def noise_std(model: FluctuationModel, times) -> float:
    """Standard deviation sqrt(delta/dt) of each white-noise sample; dt is the mean grid step."""
    return float(np.sqrt(model.delta / float(uniform_steps(times).mean())))

