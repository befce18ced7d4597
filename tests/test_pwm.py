import numpy as np
import pytest
from scipy.integrate import simpson

from pwmctrl import pwm
from pwmctrl.pwm import (
    AmplitudeBoundError,
    CutoffError,
    GridError,
    PWMSequence,
    SampledField,
    Spectrum,
    default_amplitudes,
    dominant_peaks,
    gaussian_train,
    inverse_pwm_pwc,
    lowpass_reconstruct,
    pulse_count_for_cutoff,
    pwm_approximate,
    pwm_signal,
    spectrum,
)


def sine_field(n_per: int = 256, m_count: int = 20) -> tuple[SampledField, float]:
    """u(t) = sin t over one period, sampled on midpoints; returns (field, tau)."""
    duration = 2 * np.pi
    tau = duration / m_count
    n_samples = m_count * n_per
    dt = duration / n_samples
    t = (np.arange(n_samples) + 0.5) * dt
    return SampledField(dt=dt, values=np.sin(t)[None, :]), tau


class TestSampledField:
    def test_grid_properties(self):
        field = SampledField(dt=0.5, values=np.arange(8.0).reshape(2, 4))
        assert field.n_controls == 2
        assert field.n_samples == 4
        assert field.duration == 2.0
        assert np.allclose(field.times, [0.25, 0.75, 1.25, 1.75])

    def test_value_is_piecewise_constant_and_zero_outside(self):
        field = SampledField(dt=1.0, values=np.array([[2.0, -3.0]]))
        assert field.value(0.1)[0] == 2.0
        assert field.value(0.999)[0] == 2.0
        assert field.value(1.5)[0] == -3.0
        assert field.value(-0.01)[0] == 0.0
        assert field.value(2.01)[0] == 0.0

    def test_integral_exact_on_cells(self, rng):
        values = rng.normal(size=(1, 50))
        dt = 0.02
        field = SampledField(dt=dt, values=values)
        for _ in range(200):
            a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
            # independent piecewise-constant quadrature (cell of the midpoint)
            grid = np.union1d(np.arange(51) * dt, [a, b])
            grid = grid[(grid >= a) & (grid <= b)]
            expected = sum(
                values[0, min(int((lo + hi) / 2 / dt), 49)] * (hi - lo)
                for lo, hi in zip(grid[:-1], grid[1:])
            )
            assert field.integral(a, b)[0] == pytest.approx(expected, abs=1e-12)

    def test_integral_clips_to_domain(self):
        field = SampledField(dt=1.0, values=np.array([[3.0]]))
        assert field.integral(-5.0, 10.0)[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(GridError, match=r"^dt must be positive and finite, got "):
            SampledField(dt=dt, values=np.ones((1, 4)))


class TestPWMSequence:
    def test_centers_and_duration(self):
        seq = PWMSequence(tau=0.5, amplitudes=[1.0], widths=[[0.1, -0.2, 0.3]])
        assert np.allclose(seq.centers, [0.25, 0.75, 1.25])
        assert seq.duration == pytest.approx(1.5)
        assert seq.n_pulses == 3
        assert seq.n_controls == 1

    def test_rejects_overwide_pulse_with_location(self):
        with pytest.raises(ValueError, match=r"k=1.*m=2"):
            PWMSequence(tau=0.5, amplitudes=[1.0, 1.0],
                        widths=[[0.1, 0.2], [0.1, 0.6]])

    @pytest.mark.parametrize("tau", [0.0, -0.5, np.nan, np.inf])
    def test_rejects_a_tau_that_is_not_positive_and_finite(self, tau):
        with pytest.raises(GridError, match=r"^tau must be positive and finite, got "):
            PWMSequence(tau=tau, amplitudes=[1.0], widths=[[0.0]])

    @pytest.mark.parametrize("xi", [0.0, -1.0])
    def test_rejects_non_positive_amplitude(self, xi):
        with pytest.raises(ValueError):
            PWMSequence(tau=0.5, amplitudes=[xi], widths=[[0.1]])


class TestPulseCountForCutoff:
    def test_matches_ceiling_rule(self):
        # smallest M with (M - 1) * omega_min >= cutoff; below that frequency
        # the train matches the field only while its pulses are flat there
        # (the full-depth sidebands in TestPulseTrainSpectrum are not)
        assert pulse_count_for_cutoff(19.0, 1.0) == 20
        assert pulse_count_for_cutoff(19.0001, 1.0) == 21
        assert pulse_count_for_cutoff(0.5, 1.0) == 2

    def test_rejects_non_positive_arguments(self):
        with pytest.raises(ValueError):
            pulse_count_for_cutoff(0.0, 1.0)
        with pytest.raises(ValueError):
            pulse_count_for_cutoff(1.0, -1.0)

    @pytest.mark.parametrize("cutoff, omega_min", [
        (np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf), (1.0, np.nan),
    ])
    def test_rejects_non_finite_arguments(self, cutoff, omega_min):
        with pytest.raises(ValueError, match="positive and finite"):
            pulse_count_for_cutoff(cutoff, omega_min)


class TestPwmApproximate:
    def test_first_width_of_sine(self):
        """Analytic area of sin over the first of 20 subintervals: 1 - cos(pi/10)."""
        field, tau = sine_field(n_per=1024)
        seq = pwm_approximate(field, np.array([1.0]), tau)
        assert seq.widths[0, 0] == pytest.approx(1.0 - np.cos(np.pi / 10), abs=1e-9)

    def test_sign_follows_field_and_antisymmetry(self):
        field, tau = sine_field()
        seq = pwm_approximate(field, np.array([1.0]), tau)
        w = seq.widths[0]
        assert np.all(w[:10] >= 0) and np.all(w[10:] <= 0)
        assert np.allclose(w[:10], -w[10:], atol=1e-9)

    def test_widths_bounded_by_tau(self, rng):
        values = rng.uniform(-2.0, 2.0, size=(2, 120))
        field = SampledField(dt=0.01, values=values)
        seq = pwm_approximate(field, default_amplitudes(field), 0.12)
        assert np.all(np.abs(seq.widths) <= 0.12)

    def test_incommensurate_tau_raises(self):
        field = SampledField(dt=0.01, values=np.ones((1, 100)))
        with pytest.raises(GridError):
            pwm_approximate(field, np.array([2.0]), 0.015)
        with pytest.raises(GridError):
            pwm_approximate(field, np.array([2.0]), 0.3)  # 1.0 not a multiple
        for tau in (np.inf, 1e308, np.nan, 0.0, -0.1):
            with pytest.raises(GridError):
                pwm_approximate(field, np.array([2.0]), tau)

    def test_amplitude_too_small_raises(self):
        field = SampledField(dt=0.01, values=np.ones((1, 100)))
        with pytest.raises(AmplitudeBoundError):
            pwm_approximate(field, np.array([0.5]), 0.1)

    def test_round_trip_with_inverse(self, rng):
        """approximate(inverse(seq)) reproduces every width to 1e-12."""
        for _ in range(100):
            k = rng.integers(1, 4)
            m = rng.integers(1, 40)
            tau = float(rng.uniform(0.05, 2.0))
            xi = rng.uniform(0.5, 3.0, size=k)
            widths = rng.uniform(-tau, tau, size=(k, m))
            seq = PWMSequence(tau=tau, amplitudes=xi, widths=widths)
            back = pwm_approximate(inverse_pwm_pwc(seq), xi, tau)
            assert np.max(np.abs(back.widths - widths)) <= 1e-12
            assert back.tau == seq.tau


class TestInversePwmPwc:
    def test_areas_match(self):
        seq = PWMSequence(tau=0.5, amplitudes=[2.0], widths=[[0.1, -0.3]])
        field = inverse_pwm_pwc(seq)
        assert field.dt == 0.5
        assert np.allclose(field.values, [[0.4, -1.2]])  # xi * w / tau


class TestPwmSignal:
    def test_values_are_bang_bang(self):
        field, tau = sine_field()
        seq = pwm_approximate(field, np.array([1.0]), tau)
        sig = pwm_signal(seq, 0, 256 / tau)
        assert set(np.round(np.unique(sig.values), 12)) <= {-1.0, 0.0, 1.0}

    def test_pulse_located_at_subinterval_center(self):
        seq = PWMSequence(tau=1.0, amplitudes=[2.0], widths=[[0.5]])
        sig = pwm_signal(seq, 0, 1000.0)
        on = sig.times[sig.values[0] != 0.0]
        assert on.min() == pytest.approx(0.25, abs=2e-3)
        assert on.max() == pytest.approx(0.75, abs=2e-3)
        assert np.all(sig.values[0][sig.values[0] != 0.0] == 2.0)

    def test_area_matches_width(self, rng):
        tau, xi = 0.4, 1.5
        widths = rng.uniform(-tau, tau, size=(1, 6))
        seq = PWMSequence(tau=tau, amplitudes=[xi], widths=widths)
        rate = 8192 / tau
        sig = pwm_signal(seq, 0, rate)
        per = sig.values[0].reshape(6, -1).sum(axis=1) * sig.dt
        assert np.allclose(per, xi * widths[0], atol=2 * xi / rate * tau)

    @pytest.mark.parametrize("rate", [10.0, 255.0, 256.0, 1000.0])
    def test_matches_one_mask_per_subinterval(self, rng, rate):
        """Bit for bit the samples of one full-length ``|t - t_m| <= |w|/2``
        mask per subinterval, on random widths with zeros, signs and ``|w| = tau``."""
        tau, xi = 0.25, np.array([1.5, 0.7])
        widths = rng.uniform(-tau, tau, size=(2, 40))
        widths[:, ::5] = 0.0
        widths[0, 1::7], widths[1, 2::7] = tau, -tau
        seq = PWMSequence(tau=tau, amplitudes=xi, widths=widths)
        for k in range(2):
            sig = pwm_signal(seq, k, rate / tau)
            expected = np.zeros(sig.n_samples)
            for center, w in zip(seq.centers, widths[k]):
                if w != 0.0:
                    expected[np.abs(sig.times - center) <= abs(w) / 2] = xi[k] * np.sign(w)
            assert np.array_equal(sig.values[0], expected)

    @pytest.mark.parametrize("make", [pwm_signal, gaussian_train])
    def test_rejects_a_rate_beyond_the_sample_cap(self, make):
        """Named by the rate, not by numpy's allocation error."""
        seq = PWMSequence(tau=0.5, amplitudes=[1.0], widths=[[0.1, -0.2]])
        with pytest.raises(ValueError, match=r"^sample_rate = 1e\+308 must give 10 to "):
            make(seq, 0, 1e308)

    def test_sample_cap_counts_every_subinterval(self, monkeypatch):
        monkeypatch.setattr(pwm, "_MAX_SAMPLES", 1000)
        seq = PWMSequence(tau=1.0, amplitudes=[1.0], widths=[[0.1, -0.2]])
        assert pwm_signal(seq, 0, 500.0).n_samples == 1000
        with pytest.raises(ValueError, match="must give 10 to 500 samples per subinterval"):
            pwm_signal(seq, 0, 501.0)


class TestGaussianTrain:
    def test_peak_amplitude_and_sign(self):
        seq = PWMSequence(tau=1.0, amplitudes=[1.5], widths=[[0.5, -0.25]])
        train = gaussian_train(seq, 0, 2000.0)
        m = train.values[0].reshape(2, -1)
        assert m[0].max() == pytest.approx(1.5, abs=1e-4)
        assert m[1].min() == pytest.approx(-1.5, abs=1e-4)

    def test_full_line_integral_equals_area(self):
        """Each isolated pulse integrates to xi * |w| (1e-9, Simpson quadrature)."""
        xi = 1.0
        for w in (0.05, 0.31, -0.2):
            widths = np.zeros((1, 15))
            widths[0, 7] = w
            seq = PWMSequence(tau=np.pi / 10, amplitudes=[xi], widths=widths)
            train = gaussian_train(seq, 0, 2 * 10 ** 4 / (np.pi / 10))
            total = simpson(train.values[0], dx=train.dt)
            assert total == pytest.approx(np.sign(w) * xi * abs(w), abs=1e-9)


class TestSpectrum:
    def test_unit_sinusoid_has_unit_magnitude(self):
        S, T = 128, 2 * np.pi
        t = (np.arange(S) + 0.5) * (T / S)
        spec = spectrum(SampledField(dt=T / S, values=np.sin(5 * t)[None]))
        assert spec.magnitude[5] == pytest.approx(1.0, abs=1e-12)
        mask = np.ones(spec.omega.size, dtype=bool)
        mask[5] = False
        assert np.max(spec.magnitude[mask]) < 1e-12

    def test_sine_reconstruction_identity(self, rng):
        """u(t) = sum_n mag_n * sin(omega_n t + 3*pi/2 - phase_n) on the grid."""
        S, T = 256, 2 * np.pi
        dt = T / S
        t = (np.arange(S) + 0.5) * dt
        x = 0.3 + 0.8 * np.sin(2 * t + 0.7) + 0.5 * np.sin(5 * t - 1.2)
        spec = spectrum(SampledField(dt=dt, values=x[None]))
        rec = sum(
            spec.magnitude[n] * np.sin(spec.omega[n] * t + 1.5 * np.pi - spec.phase[n])
            for n in range(spec.omega.size)
        )
        assert np.max(np.abs(rec - x)) < 1e-10

    @pytest.mark.parametrize("n_samples", [255, 256])
    def test_parseval_energy(self, rng, n_samples):
        x = rng.normal(size=(1, n_samples))
        field = SampledField(dt=0.01, values=x)
        direct = float(np.sum(x**2) * 0.01)
        assert spectrum(field).energy() == pytest.approx(direct, rel=1e-12)

    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            Spectrum(omega=[0.0, 1.0], magnitude=[1.0, -0.1], phase=[0.0, 0.0],
                     duration=1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Spectrum(omega=[0.0, 1.0], magnitude=[1.0], phase=[0.0, 0.0], duration=1.0)


class TestLowpassReconstruct:
    def test_identity_below_cutoff(self):
        S, T = 256, 2 * np.pi
        t = (np.arange(S) + 0.5) * (T / S)
        x = np.sin(3 * t) - 0.4 * np.sin(7 * t)
        field = SampledField(dt=T / S, values=x[None])
        rec = lowpass_reconstruct(field, 10.0)
        assert np.max(np.abs(rec.values - field.values)) < 1e-12

    def test_removes_content_above_cutoff(self):
        S, T = 512, 2 * np.pi
        t = (np.arange(S) + 0.5) * (T / S)
        low, high = np.sin(3 * t), 0.7 * np.sin(40 * t)
        field = SampledField(dt=T / S, values=(low + high)[None])
        rec = lowpass_reconstruct(field, 10.0)
        assert np.max(np.abs(rec.values[0] - low)) < 1e-12

    @pytest.mark.parametrize("cutoff", [0.0, -2.0, 1e9])
    def test_rejects_cutoff_outside_band(self, cutoff):
        field = SampledField(dt=0.1, values=np.ones((1, 16)))
        with pytest.raises(CutoffError):
            lowpass_reconstruct(field, cutoff)


class TestDominantPeaks:
    def test_finds_two_tones_in_order(self):
        S, T = 512, 2 * np.pi
        t = (np.arange(S) + 0.5) * (T / S)
        x = 0.8 * np.sin(3 * t) + 0.5 * np.sin(7 * t)
        peaks = dominant_peaks(spectrum(SampledField(dt=T / S, values=x[None])), 2)
        assert [round(w) for w, _ in peaks] == [3, 7]
        assert peaks[0][1] == pytest.approx(0.8, abs=1e-12)
        assert peaks[1][1] == pytest.approx(0.5, abs=1e-12)


@pytest.fixture(scope="module")
def train_spectrum():
    field, tau = sine_field(n_per=1024)
    seq = pwm_approximate(field, np.array([1.0]), tau)
    return spectrum(pwm_signal(seq, 0, 1024 / tau), 0)


class TestPulseTrainSpectrum:
    """Spectral content of the bang-bang encoding of sin t with 20 subintervals.

    Frozen values cross-checked against the exact Fourier series of a
    centered-pulse train (pulse edges integrate to ``(xi/n pi) sin(n pi w /
    (M tau))`` terms): the encoding is transparent at the fundamental and its
    error is concentrated at the switching frequency M*omega and odd-order
    sidebands M*omega +/- (2j+1)*omega.
    """

    def test_fundamental_preserved(self, train_spectrum):
        assert train_spectrum.magnitude[1] == pytest.approx(0.9930199, abs=1e-4)

    def test_clean_below_first_sideband(self, train_spectrum):
        """Harmonics 2..16 all stay under 2% of the fundamental."""
        mags = train_spectrum.magnitude
        worst = np.max(mags[2:17])
        assert worst <= 0.02 * mags[1], f"max harmonic 2..16 = {worst:.4f}"

    def test_odd_sidebands_around_switching_frequency(self, train_spectrum):
        """At full modulation the j=1..2 sidebands of 20*omega are O(0.1)."""
        mags = train_spectrum.magnitude
        assert mags[17] == pytest.approx(0.18464, abs=5e-4)
        assert mags[19] == pytest.approx(0.23387, abs=5e-4)
        assert mags[21] == pytest.approx(0.13726, abs=5e-4)
        assert mags[18] < 1e-6 and mags[20] < 1e-6  # even offsets cancel

    def test_lowpass_below_first_sideband_recovers_field(self):
        """Filtering under (M-3)*omega leaves ~1% RMS error against sin t."""
        field, tau = sine_field(n_per=1024)
        seq = pwm_approximate(field, np.array([1.0]), tau)
        sig = pwm_signal(seq, 0, 1024 / tau)
        rec = lowpass_reconstruct(sig, 16.5)
        rms = np.sqrt(np.mean((rec.values[0] - field.values[0]) ** 2))
        assert rms <= 0.02, f"RMS after filtering = {rms:.4f}"


class TestGaussianTrainSpectrum:
    """Full-depth (xi = 1) Gaussian train of sin t with 20 subintervals.

    Pinned against the closed-form transform: harmonic n of the train is
    ``(2/T) * sum_m xi * sign(w_m) * |w_m| * exp(-(n w_m)^2 / 4pi) *
    exp(-i n t_m)``.  Its O(w^3) remainder aliases to harmonic M - 3, so the
    sidebands stay large however many pulses are used.
    """

    @pytest.fixture(scope="class")
    def gauss(self):
        field, tau = sine_field(n_per=1024)
        seq = pwm_approximate(field, np.array([1.0]), tau)
        return seq, spectrum(gaussian_train(seq, 0, 1024 / tau), 0)

    def test_matches_closed_form_transform(self, gauss):
        seq, spec = gauss
        w, t_m = seq.widths[0], seq.centers
        n = np.arange(1, 25)[:, None]
        coeff = (2 / seq.duration) * np.sum(
            seq.amplitudes[0] * w * np.exp(-((n * w) ** 2) / (4 * np.pi))
            * np.exp(-1j * n * t_m),
            axis=1,
        )
        assert np.allclose(spec.magnitude[1:25], np.abs(coeff), rtol=0, atol=1e-9)

    def test_sidebands_below_switching_frequency(self, gauss):
        """Harmonics 15 and 17 (20*omega - 5*omega, - 3*omega) relative to
        the fundamental."""
        mags = gauss[1].magnitude
        assert mags[15] / mags[1] == pytest.approx(0.03667, abs=5e-6)
        assert mags[17] / mags[1] == pytest.approx(0.15698, abs=5e-6)


@pytest.mark.parametrize("make, named", [
    pytest.param(lambda: PWMSequence(tau=0.5, amplitudes=[1.0, 2.0, 3.0],
                                     widths=np.zeros((2, 4))),
                 "expected 2 amplitudes, got shape (3,)", id="amplitude-count"),
    pytest.param(lambda: SampledField(dt=0.1, values=np.zeros((1, 2, 3))),
                 "values must be a K x S array, got shape (1, 2, 3)", id="three-d-field"),
    pytest.param(lambda: Spectrum(omega=np.zeros(3), magnitude=np.zeros(3), phase=np.zeros(3),
                                  duration=1.0, n_samples=10),
                 "10 samples produce 6 one-sided bins, got 3", id="bin-count"),
])
def test_bad_input_raises_naming_it(make, named):
    with pytest.raises(ValueError) as info:
        make()
    assert info.type is ValueError and named in str(info.value)


def test_one_bin_without_sample_count_is_one_sample():
    spec = Spectrum(omega=[0.0], magnitude=[2.0], phase=[0.0], duration=1.0)
    assert spec.n_samples == 1


def test_amp_round_trips_from_complex():
    amp = np.array([1.0, 0.5 - 0.25j, -2.0j])
    spec = Spectrum.from_complex(np.arange(3.0), amp, duration=1.0, n_samples=4)
    assert np.allclose(spec.amp, amp, rtol=0, atol=1e-15)
