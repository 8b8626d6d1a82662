"""Classical dipole signal: harmonic Fourier decomposition and white-noise fluctuations.

The mean dipole lives on the harmonic comb omega_N = N*omega and is stored as
complex coefficients d_N for N >= 0 only; negative harmonics follow from
d(-omega_N) = conj(d(omega_N)) since the signal is real.  Fluctuations are a
zero-mean delta-correlated noise of magnitude delta, discretized as Gaussian
increments of variance delta/dt.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

# Relative slack when deciding whether a sampled window spans whole periods.
_PERIOD_TOL = 1e-9

# Largest step deviation, relative to the first step, that still counts as uniform.
_UNIFORM_RTOL = 1e-9

# Elements of one row block of a table over a grid and a comb (a phase table,
# or a product of one with the comb's weights): 2^15 complex numbers, 512 KiB.
# It bounds memory, not results, since each row is summed on its own.
_PHASE_BLOCK_ELEMENTS = 1 << 15


def require_finite(params) -> None:
    """Raise ValueError naming the first real-valued field of a dataclass that is NaN or infinite."""
    for f in fields(params):
        value = getattr(params, f.name)
        # an integer is finite, and math.isfinite cannot take one beyond the float range
        if (isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral)
                and not math.isfinite(value)):
            raise ValueError(f"{f.name} must be finite, got {value}")


def uniform_steps(times, name: str = "time") -> np.ndarray:
    """Steps of an increasing uniform grid of at least two points; raises ValueError otherwise."""
    with np.errstate(over="ignore"):  # a step beyond the float range is inf, refused below
        steps = np.diff(times)
    if steps.size == 0:
        raise ValueError(f"{name} grid is not uniform")
    low, high = steps.min(), steps.max()
    if not low > 0:  # NaN too
        raise ValueError(f"{name} grid must be increasing")
    if not math.isfinite(high):
        raise ValueError(f"{name} grid steps must be finite")
    # max |step - steps[0]|, as rounding keeps the order of the steps
    if max(high - steps[0], steps[0] - low) > _UNIFORM_RTOL * steps[0]:
        raise ValueError(f"{name} grid is not uniform")
    return steps


def _count(value, name: str, least: int) -> int:
    """An integer argument of at least ``least``, as an int; raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _times(t, name: str) -> np.ndarray:
    """A time argument ``name``, a number or a 1-d array of finite times >= 0, as a 1-d array."""
    if np.asarray(t).dtype == bool:
        raise ValueError(f"{name} must be a time, got a boolean")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if t_arr.ndim > 1:
        raise ValueError(f"{name} must be a number or a 1-d array, got shape {t_arr.shape}")
    if np.any(t_arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    if not np.all(np.isfinite(t_arr)):
        raise ValueError(f"{name} must be finite")
    return t_arr


def phase_table(t, freqs) -> np.ndarray:
    """Table exp(i t_j f_k) over the 1-d arrays t and freqs, built in one complex buffer.

    The products t_j f_k fill the real part of the buffer, their sines the
    imaginary part, and their cosines then overwrite the products, so callers
    can subtract or scale the table in place too; pass -freqs for exp(-i t f).
    It is bit for bit np.exp(1j * np.outer(t, freqs)), whose exp(0 + i x) is
    cos x + i sin x from the same sine and cosine (tests/test_dipole.py checks
    this), except that a product of -0 keeps its sign in the imaginary part.
    An infinite product gives nan with numpy's "invalid value" RuntimeWarning.
    A table kept by ``_last_table`` to be shared across calls (the correlators'
    comb table) is read-only, and its users subtract from it into a new array.
    It is the package's one exp(i theta) of a real array theta: one-column
    tables give the phase factors of ``mode_amplitude``, the two-time
    correlator, the WKT and verify's random lines.  The lag decay
    exp(-(i omega_q + kappa) tau) stays a complex exp: exp(-kappa tau) times
    this table would not keep its bits.
    """
    t = np.ravel(np.asarray(t, dtype=float))
    table = np.empty((t.size, np.size(freqs)), dtype=complex)
    phase = table.real
    np.multiply.outer(t, np.asarray(freqs, dtype=float), out=phase)
    np.sin(phase, out=table.imag)
    np.cos(phase, out=phase)
    return table


def _phase_row_blocks(n_rows: int, n_cols: int) -> list:
    """Row slices over range(n_rows) of about _PHASE_BLOCK_ELEMENTS elements each.

    A block has two rows or more unless the table has one row: numpy forms a
    one-row matrix-vector product by another route than the rows of a taller
    one, which rounds differently, so a last single row joins the block before.
    """
    rows = max(2, _PHASE_BLOCK_ELEMENTS // n_cols)
    bounds = list(range(0, n_rows, rows))
    if len(bounds) > 1 and n_rows - bounds[-1] == 1:
        bounds.pop()
    bounds.append(n_rows)
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# The [key, table] cell of each _last_table memo, which _clear_tables empties.
_MEMOS = []


def _last_table(build):
    """Memo of ``build`` that returns its last table, read-only, to a call with equal arguments.

    Arrays are compared by dtype, shape and bytes, so one changed in place is a
    new argument.  The build is called as ``memo.__wrapped__``, where it can be counted.
    """
    last = [None, None]
    _MEMOS.append(last)

    @functools.wraps(build)
    def memo(*args):
        key = [(a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
               for a in args]
        if last[0] != key:
            last[:] = key, memo.__wrapped__(*args)
            last[1].flags.writeable = False
        return last[1]
    return memo


def _clear_tables() -> None:
    """Empty every ``_last_table`` memo, so that the next call of each builds its table."""
    for last in _MEMOS:
        last[:] = None, None


@dataclass(frozen=True)
class DriveParams:
    """Fundamental drive frequency and harmonic cutoff."""

    omega: float = 1.0
    n_max: int = 1

    def __post_init__(self):
        _count(self.n_max, "n_max", 1)
        require_finite(self)
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")

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
        all closed forms in :mod:`leaky_cavity.cavity` are driven by it.  The
        sum is taken in row blocks of the phase table, every bit as in one table.
        """
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        freqs = -self.harmonics()
        out = np.empty(flat.size, dtype=complex)
        for rows in _phase_row_blocks(flat.size, freqs.size):
            out[rows] = phase_table(flat[rows], freqs) @ self.coeffs
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
    """Samples on a strictly increasing time grid of finite span."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if not np.all(t[1:] > t[:-1]):  # compared, not subtracted, so nothing overflows
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.size and not math.isfinite(self.span):
            raise ValueError(f"time span must be finite, got {float(t[0])} to {float(t[-1])}")

    def __len__(self) -> int:
        return self.times.size

    @property
    def span(self) -> float:
        # Python floats, which overflow to inf without a numpy warning
        return float(self.times[-1]) - float(self.times[0])


@dataclass(frozen=True)
class SeriesBlocks:
    """A time series of ``length`` points handed over as TimeSeries blocks, in order.

    ``blocks`` is an iterable read once, such as a generator that forms each
    block as it is asked for, so no whole series is held.
    """

    length: int
    blocks: object = field(repr=False)

    def __len__(self) -> int:
        return self.length


def fourier_decompose(signal: TimeSeries, drive: DriveParams) -> DipoleSpectrum:
    """Project a real dipole series onto the harmonic comb.

    d_N = (1/T) * integral_0^T d(t) exp(+i omega_N t) dt, trapezoidal rule on
    the sampled window.  The window must span a whole number of drive periods
    and resolve the highest requested harmonic.  On the M steps of a window of
    P periods, harmonic N completes N P turns, so the rule is the conjugate of
    bin N P of the real FFT of the first M samples v_0 .. v_{M-1}, plus the
    endpoint term (v_M - v_0)/2, over M; the aliasing check keeps N P below M/2.
    """
    if np.iscomplexobj(signal.values):
        raise ValueError("a dipole series must be real (columns t, value), got complex values")
    vals = np.asarray(signal.values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"a dipole series must be finite, got {vals[bad[0]]} "
                         f"at t = {signal.times[bad[0]]}")
    uniform_steps(signal.times)
    span = signal.span
    n_periods = span / drive.period
    # an infinite count (a huge span at a high drive frequency) is no whole number either
    if not (math.isfinite(n_periods)
            and abs(n_periods - round(n_periods)) <= _PERIOD_TOL * max(1.0, n_periods)):
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
    bins = np.fft.rfft(vals[:-1])[n_periods * np.arange(drive.n_max + 1)]
    coeffs = (np.conj(bins) + (vals[-1] - vals[0]) / 2) / (vals.size - 1)
    return DipoleSpectrum(drive=drive, coeffs=coeffs)


def synthesize_mean_dipole(spectrum: DipoleSpectrum, times) -> TimeSeries:
    """Reconstruct the real mean dipole sum_N d_N exp(-i omega_N t) over all N.

    Conjugate symmetry folds the negative harmonics in:
    d(t) = sum_{N>=0} 2 Re[d_N exp(-i omega_N t)] - Re[d_0].
    """
    times = np.asarray(times, dtype=float)
    vals = 2.0 * np.real(spectrum.positive_frequency_signal(times)) - np.real(spectrum.coeffs[0])
    return TimeSeries(times=times, values=vals)


def noise_std(model: FluctuationModel, dt: float) -> float:
    """Standard deviation sqrt(delta/dt) of each white-noise sample over a step dt."""
    return float(np.sqrt(model.delta / dt))

