"""Pulse-width modulation of control fields.

A continuous control field ``u_k(t)`` on ``[0, M*tau]`` is replaced by a
train of rectangular pulses, one per subinterval of length ``tau``.  The
pulse in subinterval ``m`` (1-based) is centred at ``t_m = (m - 1/2)*tau``,
has fixed amplitude ``+xi_k`` or ``-xi_k``, and a signed width

    w_k(m) = (1/xi_k) * integral of u_k over subinterval m

chosen so the pulse area matches the field area on that subinterval.  To
leading order in the pulse width the mismatch between the pulse train and the
field then lies at and above the cutoff ``(M - 1) * omega_min`` where
``omega_min = 2*pi / (M*tau)``, so a low-pass filter (or any system with
bounded bandwidth) cannot tell the two apart.

That holds while every pulse is flat up to the cutoff: a pulse's transform at
harmonic n is ``xi * |w| * P(n*|w|)`` with ``P(x) = sinc(x/2)`` for the
rectangle (``exp(-x^2/4pi)`` for the Gaussian shape), and its O(w^3)
remainder aliases to ``(M - 3) * omega_min``, the O(w^5) one to
``(M - 5) * omega_min``, and so on.  The widths scale as ``1/xi``, so a large
amplitude keeps the pulses flat.  At full modulation (``xi`` near
``max |u|``) the sideband at ``M - 3`` does not shrink with M: for sin t it
stays at 19-21% of the fundamental for the rectangular train at M = 20, 40
and 80.

Sampled data uses a midpoint grid throughout: sample ``j`` holds the value
at ``(j + 1/2) * dt`` and represents the cell ``[j*dt, (j+1)*dt]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _locked

__all__ = [
    "AmplitudeBoundError",
    "CutoffError",
    "GridError",
    "PWMSequence",
    "SampledField",
    "Spectrum",
    "default_amplitudes",
    "dominant_peaks",
    "gaussian_train",
    "inverse_pwm_pwc",
    "lowpass_reconstruct",
    "pulse_count_for_cutoff",
    "pwm_approximate",
    "pwm_signal",
    "spectrum",
]


class GridError(ValueError):
    """Sample grid and subinterval length are incommensurate."""


class AmplitudeBoundError(ValueError):
    """A pulse amplitude is too small to fit the field area into one subinterval."""


class CutoffError(ValueError):
    """Low-pass cutoff is outside the resolvable band of the sample grid."""


#: Most signal samples or reference slices: 33x the largest caller's, 0.5 GB at 50 B each.
_MAX_SAMPLES = 10_000_000


def _as_amplitudes(amplitudes, n_controls: int) -> np.ndarray:
    """Pulse amplitudes as a fresh ``(K,)`` array; a single value applies to every control."""
    xi = np.atleast_1d(np.array(amplitudes, dtype=np.float64))
    if xi.size == 1:
        xi = np.full(n_controls, xi[0])
    if xi.shape != (n_controls,):
        raise ValueError(f"expected {n_controls} amplitudes, got shape {xi.shape}")
    if np.any(xi <= 0) or not np.all(np.isfinite(xi)):
        raise ValueError("amplitudes must be positive and finite")
    return xi


def _check_step(step: float, name: str) -> float:
    """``step``; :class:`GridError`, naming it by ``name``, when it is not positive and finite."""
    if not (step > 0 and math.isfinite(step)):
        raise GridError(f"{name} must be positive and finite, got {step!r}")
    return step


def _check_finite(value, name: str):
    """``value``; ``ValueError``, naming it by ``name``, unless every entry is finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _check_start(t_start: float, taus, resolution: int) -> None:
    """``ValueError`` when the float spacing at ``t_start`` exceeds the slice width ``min(taus) /
    resolution`` of :func:`~pwmctrl.propagate.error_order`, whose slice midpoints collapse there."""
    spacing, tau = float(np.spacing(abs(t_start))), float(min(taus, default=0.0))
    if 0 < tau < spacing * resolution:
        raise ValueError(f"t_start = {t_start!r} is too far from 0 for tau = {tau!r} at resolution"
                         f" = {resolution}: its float spacing {spacing!r} exceeds tau / resolution")


def _step_count(duration: float, step: float, names: tuple[str, str]) -> int:
    """The whole number M >= 1 of ``step`` in ``duration``, allowing 1e-9 relative.

    Raises :class:`GridError`, naming the two by ``names``, when either is
    not positive and finite or the ratio is not whole.
    """
    _check_step(step, names[1])
    ratio = float(duration) / float(step)
    count = round(ratio) if math.isfinite(ratio) else 0
    if count < 1 or abs(ratio - count) > 1e-9 * max(1.0, ratio):
        raise GridError(
            f"{names[0]} = {duration!r} is not an integer number of {names[1]} = {step!r}"
        )
    return count


def _as_widths(widths, tau: float, offset: int = 0) -> np.ndarray:
    """Signed pulse widths as a fresh array, finite and clipped to ``|w| <= tau``.

    Widths beyond ``tau`` by more than 1e-9 relative raise ``ValueError``
    naming control ``k`` and, for a ``(K, M)`` array, the 1-based subinterval
    (``offset + 1`` for the first column of a block of subintervals).
    """
    w = _check_finite(np.asarray(widths, dtype=np.float64), "widths")
    overflow = np.abs(w) > tau * (1 + 1e-9)
    if np.any(overflow):
        at = tuple(np.argwhere(overflow)[0])
        where = f"control k={at[0]}" + (f", subinterval m={offset + at[1] + 1}" if len(at) > 1 else "")
        raise ValueError(f"|width| = {abs(w[at]):.6g} exceeds tau = {tau:.6g} for {where}")
    return np.clip(w, -tau, tau)


@dataclass(frozen=True, eq=False)
class SampledField:
    """Real control fields sampled on a uniform midpoint grid.

    ``values[k, j]`` is ``u_k`` at time ``(j + 1/2) * dt``.  The field is
    treated as piecewise constant on the cells ``[j*dt, (j+1)*dt]`` and zero
    outside ``[0, duration]``.
    """

    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.atleast_2d(np.array(self.values, dtype=np.float64, copy=True))
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError(f"values must be a K x S array, got shape {values.shape}")
        _check_step(self.dt, "dt")
        _check_finite(values, "field values")
        object.__setattr__(self, "values", _locked(values))

    @property
    def n_controls(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    @property
    def times(self) -> np.ndarray:
        """Midpoint sample times ``(j + 1/2) * dt``."""
        return (np.arange(self.n_samples) + 0.5) * self.dt

    def value(self, t) -> np.ndarray:
        """Piecewise-constant interpolant at time(s) ``t``, zero outside the domain.

        Returns shape ``(K,)`` for scalar ``t`` and ``(K, len(t))`` otherwise.
        """
        t_arr = np.asarray(t, dtype=np.float64)
        cells = np.clip((t_arr / self.dt).astype(np.int64), 0, self.n_samples - 1)
        out = self.values[:, cells]
        inside = (t_arr >= 0.0) & (t_arr <= self.duration)
        return np.where(inside, out, 0.0) if out.ndim > 1 else (
            out if inside else np.zeros(self.n_controls)
        )

    def _antiderivative(self, t) -> np.ndarray:
        """Exact integral of the interpolant from 0 to ``t`` (clamped to the domain)."""
        t_c = np.clip(t, 0.0, self.duration)
        cell = np.minimum((t_c / self.dt).astype(np.int64), self.n_samples - 1)
        cum = getattr(self, "_cum", None)
        if cum is None:
            cum = np.concatenate(
                [np.zeros((self.n_controls, 1)), np.cumsum(self.values, axis=1) * self.dt],
                axis=1,
            )
            object.__setattr__(self, "_cum", cum)
        return cum[:, cell] + self.values[:, cell] * (t_c - cell * self.dt)

    def integral(self, a, b) -> np.ndarray:
        """Signed exact integral of the interpolant over ``[a, b]``, per control.

        ``a`` and ``b`` may be arrays of window ends, giving shape ``(K, len(a))``.
        """
        return self._antiderivative(b) - self._antiderivative(a)


@dataclass(frozen=True, eq=False)
class PWMSequence:
    """Rectangular pulse train: one signed width per control per subinterval.

    ``widths[k, m-1]`` is the signed width of the pulse of control ``k`` in
    subinterval ``m``; the realized amplitude is ``xi_k * sign(width)`` and
    ``|width| <= tau`` always.
    """

    tau: float
    amplitudes: np.ndarray
    widths: np.ndarray

    def __post_init__(self) -> None:
        widths = _as_widths(np.atleast_2d(self.widths), _check_step(self.tau, "tau"))
        xi = _as_amplitudes(self.amplitudes, widths.shape[0])
        object.__setattr__(self, "amplitudes", _locked(xi))
        object.__setattr__(self, "widths", _locked(widths))

    @property
    def n_controls(self) -> int:
        return self.widths.shape[0]

    @property
    def n_pulses(self) -> int:
        """Number of subintervals M."""
        return self.widths.shape[1]

    @property
    def duration(self) -> float:
        return self.n_pulses * self.tau

    @property
    def centers(self) -> np.ndarray:
        """Pulse centre times ``(m - 1/2) * tau`` for m = 1..M."""
        return (np.arange(self.n_pulses) + 0.5) * self.tau


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided discrete spectrum of a real sampled signal.

    ``magnitude[i]`` is the amplitude at angular frequency ``omega[i]``,
    normalized so a unit sinusoid at an on-grid frequency has magnitude 1;
    ``phase`` follows the sine convention ``pi - arg(amp)``.  Magnitude and
    phase are the stored representation (so files holding them round-trip
    losslessly); the complex amplitude is a derived view.
    """

    omega: np.ndarray
    magnitude: np.ndarray
    phase: np.ndarray
    duration: float
    n_samples: int | None = None

    def __post_init__(self) -> None:
        omega = np.array(self.omega, dtype=np.float64, copy=True)
        mag = np.array(self.magnitude, dtype=np.float64, copy=True)
        phase = np.array(self.phase, dtype=np.float64, copy=True)
        if not (omega.shape == mag.shape == phase.shape) or omega.ndim != 1:
            raise ValueError(
                "omega, magnitude, and phase must be 1-D arrays of equal length"
            )
        if np.any(mag < 0):
            raise ValueError("magnitude must be non-negative")
        # an S-sample signal yields S//2 + 1 one-sided bins; S itself is not
        # recoverable from the bins (S and S+1 give the same count for even
        # S), so it is carried explicitly.  Default: even count.
        n_samples = self.n_samples
        if n_samples is None:
            n_samples = 2 * (omega.size - 1) if omega.size > 1 else 1
        n_samples = int(n_samples)
        if n_samples // 2 + 1 != omega.size:
            raise ValueError(
                f"{n_samples} samples produce {n_samples // 2 + 1} one-sided "
                f"bins, got {omega.size}"
            )
        object.__setattr__(self, "omega", _locked(omega))
        object.__setattr__(self, "magnitude", _locked(mag))
        object.__setattr__(self, "phase", _locked(phase))
        object.__setattr__(self, "n_samples", n_samples)

    @classmethod
    def from_complex(cls, omega, amp, duration: float, n_samples: int | None = None) -> "Spectrum":
        amp = np.asarray(amp, dtype=np.complex128)
        return cls(
            omega=omega,
            magnitude=np.abs(amp),
            phase=np.pi - np.angle(amp),
            duration=duration,
            n_samples=n_samples,
        )

    @property
    def amp(self) -> np.ndarray:
        """Complex amplitudes reconstructed from magnitude and phase."""
        return self.magnitude * np.exp(1j * (np.pi - self.phase))

    def energy(self) -> float:
        """Signal energy ``integral of u^2 dt`` implied by the normalization.

        Interior one-sided bins carry half their squared magnitude (the other
        half sits at the mirrored negative frequency); the DC bin and, for an
        even sample count, the Nyquist bin carry full weight.
        """
        mag2 = self.magnitude**2
        weights = np.full_like(mag2, 0.5)
        weights[0] = 1.0
        if self.omega.size > 1 and self.n_samples % 2 == 0:
            weights[-1] = 1.0  # even sample count: last bin is the Nyquist bin
        return float(self.duration * np.sum(weights * mag2))


def pulse_count_for_cutoff(cutoff: float, omega_min: float) -> int:
    """Smallest subinterval count M with error pushed above ``cutoff``.

    To leading order in the pulse width the pulse train differs from the
    field only at frequencies at and above ``(M - 1) * omega_min``, so
    ``M = ceil(cutoff / omega_min) + 1``.  That needs the widest pulse to be
    flat up to ``cutoff`` (``cutoff * |w| << 1``, i.e. a large enough
    amplitude); at full modulation a sideband near ``(M - 3) * omega_min``
    keeps a size independent of M (see the module docstring).
    """
    if not (0 < cutoff < math.inf and 0 < omega_min < math.inf):
        raise ValueError("cutoff and omega_min must be positive and finite")
    return math.ceil(cutoff / omega_min) + 1


def default_amplitudes(field: SampledField, headroom: float = 1.05) -> np.ndarray:
    """Per-control pulse amplitudes ``headroom * max_t |u_k(t)|``.

    A control that is identically zero gets amplitude 1.0 (any positive value
    works: its widths are all zero).
    """
    peak = np.max(np.abs(field.values), axis=1)
    xi = headroom * peak
    xi[xi == 0.0] = 1.0
    return xi


def pwm_approximate(field: SampledField, amplitudes, tau: float) -> PWMSequence:
    """Convert a sampled field to a PWM pulse sequence with subinterval ``tau``.

    Widths are the exact per-subinterval areas of the piecewise-constant
    field divided by ``xi_k``.  ``tau`` must be an integer multiple of the
    sample spacing and the field duration an integer multiple of ``tau``.

    Raises
    ------
    GridError
        If ``tau`` is not positive and finite or the grids are incommensurate.
    AmplitudeBoundError
        If some ``|width|`` would exceed ``tau`` (amplitude too small).
    """
    xi = _as_amplitudes(amplitudes, field.n_controls)
    n_per = _step_count(tau, field.dt, ("tau", "sample spacing dt"))
    m_count = _step_count(field.n_samples, n_per, ("sample count", "samples per subinterval"))
    areas = field.values.reshape(field.n_controls, m_count, n_per).sum(axis=2) * field.dt
    widths = areas / xi[:, None]
    overflow = np.abs(widths) > tau * (1 + 1e-9)
    if np.any(overflow):
        k, m = np.argwhere(overflow)[0]
        raise AmplitudeBoundError(
            f"amplitude xi_{k} = {xi[k]:.6g} too small: subinterval m={m + 1} needs "
            f"|width| = {abs(widths[k, m]):.6g} > tau = {tau:.6g}"
        )
    return PWMSequence(tau=tau, amplitudes=xi, widths=widths)


def _signal_grid(seq: PWMSequence, sample_rate: float) -> tuple[float, np.ndarray]:
    n_sub = round(sample_rate * seq.tau) if 10 <= sample_rate * seq.tau < math.inf else 0
    if not 10 <= n_sub <= _MAX_SAMPLES // seq.n_pulses:
        raise ValueError(f"sample_rate = {sample_rate:.6g} must give 10 to "
                         f"{_MAX_SAMPLES // seq.n_pulses:,} samples per subinterval")
    dt = seq.tau / n_sub
    times = (np.arange(seq.n_pulses * n_sub) + 0.5) * dt
    return dt, times


def pwm_signal(seq: PWMSequence, control_index: int = 0, sample_rate: float = 1000.0) -> SampledField:
    """Sample the rectangular pulse train of one control.

    Within subinterval ``m`` the signal is ``xi * sign(w)`` for
    ``|t - t_m| <= |w|/2`` and zero elsewhere; a sample landing exactly on a
    pulse edge takes the pulse value.  The grid is chosen commensurate with
    the subintervals (``round(sample_rate * tau)`` samples per subinterval).
    """
    xi = seq.amplitudes[control_index]
    dt, times = _signal_grid(seq, sample_rate)
    # sample i lies in subinterval i // n_sub, and no pulse leaves its own (|w| <= tau)
    cell = np.arange(times.size) // (times.size // seq.n_pulses)
    widths, centers = seq.widths[control_index][cell], seq.centers[cell]
    on = (widths != 0.0) & (np.abs(times - centers) <= np.abs(widths) / 2)
    out = np.where(on, xi * np.sign(widths), 0.0)
    return SampledField(dt=dt, values=out[None, :])


def gaussian_train(seq: PWMSequence, control_index: int = 0, sample_rate: float = 1000.0) -> SampledField:
    """Sample a Gaussian pulse train equivalent to the rectangular one.

    Each pulse is ``xi * sign(w) * exp(-pi (t - t_m)^2 / w^2)``: same peak
    amplitude and the same full-line area ``xi * |w|`` as the rectangular
    pulse.  Tails are truncated at ``|t - t_m| > 6 |w|`` where they are
    below ``exp(-36 pi)``.
    """
    xi = seq.amplitudes[control_index]
    widths = seq.widths[control_index]
    dt, times = _signal_grid(seq, sample_rate)
    out = np.zeros_like(times)
    for center, w in zip(seq.centers, widths):
        if w == 0.0:
            continue
        lo, hi = np.searchsorted(times, [center - 6 * abs(w), center + 6 * abs(w)])
        t_win = times[lo:hi]
        out[lo:hi] += xi * np.sign(w) * np.exp(-np.pi * (t_win - center) ** 2 / w**2)
    return SampledField(dt=dt, values=out[None, :])


def inverse_pwm_pwc(seq: PWMSequence) -> SampledField:
    """Piecewise-constant field with the same per-subinterval areas.

    Emits one sample per subinterval: ``u_k = xi_k * w_k / tau``.  Feeding
    the result back through :func:`pwm_approximate` with the same ``xi`` and
    ``tau`` reproduces the widths exactly.
    """
    values = seq.amplitudes[:, None] * seq.widths / seq.tau
    return SampledField(dt=seq.tau, values=values)


def lowpass_reconstruct(field: SampledField, cutoff: float) -> SampledField:
    """Zero every DFT bin with ``|omega| > cutoff`` and transform back.

    This is the sharp low-pass filter that recovers the original field from
    a PWM signal when ``cutoff`` lies below the first error band.
    """
    nyquist = np.pi / field.dt
    if not (0 < cutoff < nyquist):
        raise CutoffError(
            f"cutoff {cutoff:.6g} must lie in (0, {nyquist:.6g}) for this grid"
        )
    omega = 2 * np.pi * np.fft.rfftfreq(field.n_samples, field.dt)
    coeff = np.fft.rfft(field.values, axis=1)
    coeff[:, omega > cutoff] = 0.0
    values = np.fft.irfft(coeff, n=field.n_samples, axis=1)
    return SampledField(dt=field.dt, values=values)


def spectrum(field: SampledField, control_index: int = 0) -> Spectrum:
    """One-sided DFT spectrum of one control, on the midpoint time grid.

    Normalization: a unit-amplitude sinusoid at an on-grid frequency yields
    magnitude 1 at its bin.  Phases refer to the actual sample times, so the
    half-cell offset of the midpoint grid is compensated.
    """
    x = field.values[control_index]
    s = field.n_samples
    omega = 2 * np.pi * np.fft.rfftfreq(s, field.dt)
    coeff = np.fft.rfft(x) / s
    coeff = coeff * np.exp(-1j * omega * field.dt / 2)
    scale = np.full(omega.shape, 2.0)
    scale[0] = 1.0
    if s % 2 == 0:
        scale[-1] = 1.0
    return Spectrum.from_complex(
        omega=omega, amp=scale * coeff, duration=field.duration, n_samples=s
    )


def dominant_peaks(spec: Spectrum, count: int = 2) -> list[tuple[float, float]]:
    """Largest local maxima of the magnitude spectrum, strongest first.

    Returns ``count`` pairs ``(omega, magnitude)``; endpoints (DC, Nyquist)
    are not eligible.
    """
    mag = spec.magnitude
    interior = np.arange(1, mag.size - 1)
    is_peak = (mag[interior] > mag[interior - 1]) & (mag[interior] >= mag[interior + 1])
    peaks = interior[is_peak]
    ranked = peaks[np.argsort(mag[peaks])[::-1][:count]]
    return [(float(spec.omega[i]), float(mag[i])) for i in ranked]
