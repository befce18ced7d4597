import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from pwmctrl import propagate
from pwmctrl.model import ControlSystem
from pwmctrl.propagate import (
    HamiltonianCache,
    TermCache,
    build_frame,
    error_order,
    evolve,
    expm_hermitian,
    frame_from_widths,
    reference_propagator,
    step_pwc,
    step_pwm,
    step_pwm_higher,
    step_spo,
    suzuki_coefficient,
    _pwm_factors,
)
from pwmctrl.pwm import GridError, PWMSequence, SampledField, pwm_approximate

from conftest import SIGMA_X, SIGMA_Z, non_hermitian_ten_level, random_hermitian


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


class TestExpmHermitian:
    def test_pauli_rotation_closed_form(self):
        for theta in (0.3, -1.2, 4.0):
            expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SIGMA_X
            assert np.allclose(expm_hermitian(SIGMA_X, theta), expected, atol=1e-14)

    def test_random_hermitian_is_unitary(self, rng):
        h = random_hermitian(6, rng)
        u = expm_hermitian(h, 0.7)
        assert unitarity_defect(u) < 1e-13
        assert np.allclose(u @ expm_hermitian(h, -0.7), np.eye(6), atol=1e-13)

    @pytest.mark.parametrize("theta", [math.inf, math.nan])
    def test_rejects_a_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match=r"^theta must be finite"):
            expm_hermitian(SIGMA_X, theta)


class TestSuzukiCoefficient:
    def test_frozen_value_for_first_concatenation(self):
        assert suzuki_coefficient(2) == pytest.approx(1.3512071919596578, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_root_condition(self, n):
        """s solves 2 s^q + (1 - 2s)^q = 0 with q = 2n - 1, and s > 1."""
        s = suzuki_coefficient(n)
        q = 2 * n - 1
        assert abs(2 * s**q + (1 - 2 * s) ** q) <= 1e-12
        assert s > 1.0

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            suzuki_coefficient(1)


class TestPulseFrame:
    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_rejects_a_tau_that_is_not_positive_and_finite(self, tau):
        """So ``build_frame`` and ``step_pwm`` never see an infinite dwell."""
        with pytest.raises(GridError, match=r"^tau must be positive and finite, got "):
            frame_from_widths([0.05], tau)

    def test_worked_example(self):
        """tau=1, |w| = (0.3, 0.9, 0.6): sorted order and telescoping dwells."""
        frame = frame_from_widths(np.array([0.3, 0.9, 0.6]), 1.0)
        assert frame.order == (1, 2, 0)
        assert frame.signs == (1, 1, 1)
        assert np.allclose(frame.dwell, [0.05, 0.15, 0.15, 0.3], atol=1e-15)

    def test_signs_recorded_per_control(self):
        frame = frame_from_widths(np.array([0.3, -0.9, 0.6]), 1.0)
        assert frame.order == (1, 2, 0)
        assert frame.signs == (1, -1, 1)

    def test_zero_widths_dropped_by_default(self):
        frame = frame_from_widths(np.array([0.0, 0.5]), 1.0)
        assert frame.order == (1,)
        assert np.allclose(frame.dwell, [0.25, 0.5])

    def test_all_zero_widths_give_pure_dwell(self):
        frame = frame_from_widths(np.zeros(3), 2.0)
        assert frame.order == ()
        assert np.allclose(frame.dwell, [2.0])

    def test_dwell_identities_random(self, rng):
        """2*sum(d[:-1]) + d[-1] = tau and active time per control = |w|."""
        for k in (1, 2, 3, 5):
            for _ in range(200):
                tau = float(rng.uniform(0.1, 2.0))
                widths = rng.uniform(-tau, tau, size=k)
                frame = frame_from_widths(widths, tau)
                total = 2 * np.sum(frame.dwell[:-1]) + frame.dwell[-1]
                assert abs(total - tau) <= 1e-12
                active = frame.active_durations()
                expected = np.abs(widths)[list(frame.order)]
                assert np.max(np.abs(active - expected)) <= 1e-12

    def test_width_within_tolerance_is_clipped_to_tau(self):
        frame = frame_from_widths(np.array([0.1 * (1 + 5e-10), -0.05]), 0.1)
        assert frame.widths[0] == 0.1
        assert np.all(frame.dwell >= 0)
        with pytest.raises(ValueError, match="exceeds tau"):
            frame_from_widths(np.array([0.1 * (1 + 2e-9)]), 0.1)

    def test_caller_widths_stay_writable(self):
        widths = np.array([0.05, -0.02])
        frame_from_widths(widths, 0.1)
        assert widths.flags.writeable

    def test_prefixes_accumulate_signed_controls(self):
        frame = frame_from_widths(np.array([0.3, -0.9]), 1.0)
        assert frame.prefixes() == [(), ((1, -1),), ((0, 1), (1, -1))]

    def test_build_frame_indexes_from_one(self):
        seq = PWMSequence(tau=1.0, amplitudes=[1.0], widths=[[0.2, -0.8]])
        assert build_frame(seq, 2).signs == (-1,)
        with pytest.raises(ValueError):
            build_frame(seq, 0)
        with pytest.raises(ValueError):
            build_frame(seq, 3)


class TestHamiltonianCache:
    def test_factor_matches_direct_exponential(self, two_level):
        cache = HamiltonianCache(two_level, np.array([1.3]))
        prefix = ((0, -1),)
        direct = expm_hermitian(two_level.drift - 1.3 * SIGMA_X, 0.4)
        assert np.allclose(cache.factor(prefix, 0.4), direct, atol=1e-13)

    def test_entries_are_reused(self, rng):
        """All ``3^K`` entries exist from construction; every ``entry`` call
        returns views of one read-only stack, whatever the prefix order."""
        system = ControlSystem(
            drift=random_hermitian(3, rng),
            controls=tuple(random_hermitian(3, rng) for _ in range(2)),
        )
        cache = HamiltonianCache(system, [1.0, 1.3])
        assert cache.size == 3**2
        first = cache.entry([(1, -1), (0, 1)])
        second = cache.entry(((0, 1), (1, -1)))
        for a, b in zip(first, second):
            assert np.shares_memory(a, b)
            assert not a.flags.writeable

    @pytest.mark.parametrize("k_count", [1, 2, 3, 4])
    def test_every_entry_is_the_eigensystem_of_its_hamiltonian(self, rng, k_count):
        """Each of the ``3^K`` entries is ``eigh`` of the Hamiltonian summed
        here, term by term, independently of the cache's code mapping."""
        system = ControlSystem(
            drift=random_hermitian(4, rng),
            controls=tuple(random_hermitian(4, rng) for _ in range(k_count)),
        )
        xi = np.linspace(0.8, 1.6, k_count)
        cache = HamiltonianCache(system, xi)
        for signs in itertools.product((0, 1, -1), repeat=k_count):
            h = system.drift + sum(d * x * c for d, x, c in zip(signs, xi, system.controls))
            lam, basis = np.linalg.eigh(h)
            got_lam, got_basis = cache.entry([(k, d) for k, d in enumerate(signs) if d][::-1])
            assert np.max(np.abs(got_lam - lam)) <= 1e-13
            assert np.max(np.abs(got_basis - basis)) <= 1e-13

    @pytest.mark.parametrize("prefix, message", [
        ([(0, 1), (0, 1)], "prefix names control 0 twice"),
        ([(0, 1), (1, -1), (0, -1)], "prefix names control 0 twice"),
        ([(0, 2)], r"prefix sign of control 0 must be \+1 or -1, got 2"),
        ([(2, 1)], r"prefix control must be in 0\.\.1, got 2"),
        ([(-1, 1)], r"prefix control must be in 0\.\.1, got -1"),
    ], ids=["repeated", "repeated-opposite", "sign-2", "control-past-k", "negative-control"])
    def test_entry_rejects_a_prefix_of_no_pwm_factor(self, rng, prefix, message):
        system = ControlSystem(
            drift=random_hermitian(3, rng),
            controls=tuple(random_hermitian(3, rng) for _ in range(2)),
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            HamiltonianCache(system, [1.0, 1.3]).entry(prefix)

    @pytest.mark.parametrize("index, message", [
        (-1, r"index must be in 0\.\.0, got -1"),
        (1, r"index must be in 0\.\.0, got 1"),
        (0.0, r"index must be an integer, got 0\.0"),
    ], ids=["negative", "past-k", "float"])
    def test_term_cache_rejects_an_index_of_no_term(self, ten_level, index, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TermCache(ten_level).entry(index)

    def test_size_bounded_by_signed_subsets(self, rng):
        """Stepping frame by frame reads the ``3^K`` entries built with the
        cache; it neither adds nor rebuilds any."""
        system = ControlSystem(
            drift=random_hermitian(3, rng),
            controls=tuple(random_hermitian(3, rng) for _ in range(2)),
        )
        cache = HamiltonianCache(system, np.ones(2))
        stacks = cache._lam, cache._bases
        seq = PWMSequence(
            tau=0.3, amplitudes=np.ones(2),
            widths=rng.uniform(-0.3, 0.3, size=(2, 50)),
        )
        for m in range(1, 51):
            step_pwm(system, cache.amplitudes, build_frame(seq, m), cache)
        assert cache.size == 3**2
        assert cache._lam is stacks[0] and cache._bases is stacks[1]


class TestStepPwm:
    def test_zero_widths_is_drift_exponential(self, two_level):
        frame = frame_from_widths(np.zeros(1), 0.7)
        step = step_pwm(two_level, np.array([1.0]), frame)
        assert np.allclose(step, expm_hermitian(SIGMA_Z, 0.7), atol=1e-14)

    def test_unitary(self, two_level, rng):
        for _ in range(20):
            frame = frame_from_widths(rng.uniform(-0.5, 0.5, size=1), 0.5)
            step = step_pwm(two_level, np.array([1.0]), frame)
            assert unitarity_defect(step) < 1e-13

    def test_exact_for_commuting_hamiltonians(self, rng):
        """Diagonal drift and control: the pulse step equals the exact propagator."""
        d0 = np.diag([1.0, 2.0, -0.5]).astype(complex)
        d1 = np.diag([0.3, -0.7, 1.1]).astype(complex)
        system = ControlSystem(drift=d0, controls=(d1,))
        xi, tau = 1.4, 0.6
        w = 0.35
        frame = frame_from_widths(np.array([w]), tau)
        step = step_pwm(system, np.array([xi]), frame)
        exact = expm_hermitian(d0, tau) @ expm_hermitian(d1, xi * w)
        assert np.allclose(step, exact, atol=1e-13)

    def test_cache_does_not_change_result(self, ten_level, rng):
        xi = np.array([1.0])
        frame = frame_from_widths(rng.uniform(-0.1, 0.1, size=1), 0.1)
        without = step_pwm(ten_level, xi, frame)
        cache = HamiltonianCache(ten_level, 1.0)  # equal amplitudes, another array
        with_cache = step_pwm(ten_level, xi, frame, cache)
        assert np.allclose(without, with_cache, atol=1e-14)

    def test_factor_list_is_palindromic(self, ten_level, rng):
        frame = frame_from_widths(rng.uniform(-0.1, 0.1, size=1), 0.1)
        factors = _pwm_factors(HamiltonianCache(ten_level, 1.0), frame)
        assert len(factors) == 2 * len(frame.order) + 1
        for left, right in zip(factors, factors[::-1]):
            assert np.allclose(left, right, atol=1e-15)

    def test_reversed_factor_list_gives_the_same_step(self, rng):
        system = ControlSystem(
            drift=random_hermitian(5, rng),
            controls=tuple(random_hermitian(5, rng) for _ in range(3)),
        )
        xi = np.array([1.0, 1.5, 0.7])
        frame = frame_from_widths(np.array([0.15, -0.05, 0.1]), 0.2)
        factors = _pwm_factors(HamiltonianCache(system, xi), frame)
        reversed_product = np.linalg.multi_dot(factors[::-1])
        assert np.max(np.abs(reversed_product - step_pwm(system, xi, frame))) <= 1e-13


class TestStepPwcAndSpo:
    def test_zero_field_matches_drift(self, two_level):
        expected = expm_hermitian(SIGMA_Z, 0.3)
        assert np.allclose(step_pwc(two_level, [0.0], 0.3), expected, atol=1e-14)
        assert np.allclose(step_spo(two_level, [0.0], 0.3), expected, atol=1e-14)

    def test_spo_equals_pwc_for_commuting_terms(self):
        system = ControlSystem(drift=SIGMA_Z, controls=(2.0 * SIGMA_Z,))
        u_pwc = step_pwc(system, [0.4], 0.3)
        u_spo = step_spo(system, [0.4], 0.3)
        assert np.allclose(u_pwc, u_spo, atol=1e-13)

    def test_term_cache_consistency(self, ten_level):
        cache = TermCache(ten_level)
        a = step_spo(ten_level, [0.8], 0.1)
        b = step_spo(ten_level, [0.8], 0.1, cache)
        assert np.allclose(a, b, atol=1e-14)

    def test_pwc_is_expm_hermitian_of_the_summed_hamiltonian(self, rng):
        """The reference of the Taylor kernel shares none of its code."""
        system = ControlSystem(
            drift=random_hermitian(6, rng),
            controls=(random_hermitian(6, rng), random_hermitian(6, rng)),
        )
        u = rng.uniform(-1.0, 1.0, size=2)
        h = system.drift + (u[0] * system.controls[0] + u[1] * system.controls[1])
        assert np.array_equal(step_pwc(system, u, 0.3), expm_hermitian(h, 0.3))

    @pytest.mark.parametrize("values, tau, name", [
        ([0.3], math.inf, "tau"), ([0.3], math.nan, "tau"),
        ([math.nan], 0.1, "control values"), ([-math.inf], -0.1, "control values"),
    ])
    def test_spo_rejects_a_non_finite_tau_or_value(self, two_level, values, tau, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            step_spo(two_level, values, tau)


class TestKernelContract:
    """Every step kernel is driven as ``fill(layout(params, length))``."""

    @pytest.mark.parametrize("kind, tol", [("pwm", 1e-13), ("spo", 1e-13), ("pwc", 1e-14)])
    def test_fill_of_layout_matches_the_step_reference(self, rng, kind, tol):
        """K = 2, five rows: the steps in the lab frame against ``step_pwm``,
        ``step_spo`` or ``expm_hermitian`` one by one.  ``held`` is the
        point, and writing to the parameters after ``layout`` leaves the
        fill unchanged."""
        dim, rows, tau = 6, 5, 0.2
        system = ControlSystem(
            drift=random_hermitian(dim, rng),
            controls=(random_hermitian(dim, rng), random_hermitian(dim, rng)),
        )
        xi = np.array([1.2, 0.8])
        params = rng.uniform(-1.0, 1.0, size=(2, rows))
        if kind == "pwm":
            params *= tau  # widths within the window
            kernel = propagate._PwmKernel(HamiltonianCache(system, xi), rows)
            expected = [step_pwm(system, xi, frame_from_widths(w, tau)) for w in params.T]
        elif kind == "spo":
            kernel = propagate._PwmKernel(TermCache(system), rows)
            expected = [step_spo(system, u, tau) for u in params.T]
        else:
            kernel = propagate._PwcKernel(system, rows)
            hamiltonians = system.drift + np.einsum("km,kab->mab", params, system.controls)
            expected = [expm_hermitian(h, tau) for h in hamiltonians]
        point = kernel.layout(params, tau)
        params[:] = 0.0
        steps = kernel.fill(point)
        assert kernel.held is point
        for step, reference in zip(steps, expected):
            lab = step if kernel.v0 is None else kernel.to_lab(step)
            assert np.max(np.abs(lab - reference)) <= tol


class TestPwcKernel:
    """The batched Taylor exponential against the eigendecomposition of each step."""

    @pytest.mark.parametrize("dim", [2, 10, 32])
    @pytest.mark.parametrize("k_count", [1, 2, 3])
    @pytest.mark.parametrize("squarings", [0, 1, 3])
    @pytest.mark.parametrize("rows, complex_controls", [(1, False), (7, True)])
    def test_matches_expm_hermitian(self, rng, dim, k_count, squarings, rows, complex_controls):
        """``tau`` puts the largest shifted 1-norm in the stack inside the
        band of ``squarings``; entries within 1e-14, unitary within 1e-14."""
        controls = tuple(
            random_hermitian(dim, rng) if complex_controls else random_hermitian(dim, rng).real
            for _ in range(k_count)
        )
        system = ControlSystem(drift=random_hermitian(dim, rng), controls=controls)
        values = rng.uniform(-1.0, 1.0, size=(k_count, rows))
        h = system.drift + np.einsum("km,kab->mab", values, np.stack(controls))
        shifted = h - np.trace(h, axis1=1, axis2=2).real[:, None, None] / dim * np.eye(dim)
        norm = np.max(np.abs(shifted).sum(axis=1))
        tau = {0: 0.7, 1: 1.5, 3: 6.0}[squarings] * propagate._TAYLOR_THETA / norm
        assert propagate._squarings(tau * norm) == squarings
        kernel = propagate._PwcKernel(system, rows)
        steps = kernel.fill(kernel.layout(values, tau))
        for step, hamiltonian in zip(steps, h):
            assert np.max(np.abs(step - expm_hermitian(hamiltonian, tau))) <= 1e-14
            assert unitarity_defect(step) <= 1e-14

    @pytest.mark.parametrize("k_count", [1, 2, 3])
    @pytest.mark.parametrize("squarings", [0, 1, 3])
    def test_equals_a_plain_taylor_sum_at_the_same_squarings(self, rng, k_count, squarings):
        """The monomial table and Paterson-Stockmeyer blocks reproduce the
        term-by-term degree-16 sum of the same scaled matrix, squared as often."""
        dim, rows = 10, 7
        system = ControlSystem(
            drift=random_hermitian(dim, rng),
            controls=tuple(random_hermitian(dim, rng) for _ in range(k_count)),
        )
        values = rng.uniform(-1.0, 1.0, size=(k_count, rows))
        h = system.drift + np.einsum("km,kab->mab", values, np.stack(system.controls))
        mu = np.trace(h, axis1=1, axis2=2).real / dim
        shifted = h - mu[:, None, None] * np.eye(dim)
        norm = np.max(np.abs(shifted).sum(axis=1))
        tau = {0: 0.7, 1: 1.5, 3: 6.0}[squarings] * propagate._TAYLOR_THETA / norm
        assert propagate._squarings(tau * norm) == squarings
        a = -1j * tau / 2**squarings * shifted
        term = np.broadcast_to(np.eye(dim, dtype=np.complex128), a.shape)
        plain = term.copy()
        for degree in range(1, propagate._TAYLOR_DEGREE + 1):
            term = term @ a / degree
            plain += term
        for _ in range(squarings):
            plain = plain @ plain
        plain *= np.exp(-1j * tau * mu)[:, None, None]
        kernel = propagate._PwcKernel(system, rows)
        steps = kernel.fill(kernel.layout(values, tau))
        assert np.max(np.abs(steps - plain)) <= 1e-14

    def test_refills_at_other_squaring_counts_equal_fresh_kernels(self, rng):
        """One kernel filled alternately at taus of 0 and 4 squarings, and at
        a second tau of 0 squarings, gives the bits of a fresh kernel each
        time: the block table follows every change of tau or squarings."""
        system = ControlSystem(
            drift=random_hermitian(6, rng),
            controls=tuple(random_hermitian(6, rng) for _ in range(2)),
        )
        values = [rng.uniform(-1.0, 1.0, size=(2, 5)) for _ in range(2)]
        kernel = propagate._PwcKernel(system, 5)
        taus = [0.05, 1.0, 0.05, 0.04, 1.0]
        squarings = set()
        for step, tau in enumerate(taus):
            x = values[step % 2]
            other = propagate._PwcKernel(system, 5)
            fresh = other.fill(other.layout(x, tau))
            assert np.array_equal(kernel.fill(kernel.layout(x, tau)), fresh)
            squarings.add(kernel._table_key[1])
        assert squarings == {0, 4}

    def test_second_fill_allocates_no_step_sized_array(self, rng):
        """The kernel alone at K = 3, whose 35 monomials give the widest
        temporaries; the engine test in ``test_grape`` covers K = 1."""
        k_count, dim, rows = 3, 10, 200
        system = ControlSystem(
            drift=random_hermitian(dim, rng),
            controls=tuple(random_hermitian(dim, rng) for _ in range(k_count)),
        )
        values = rng.uniform(-1.0, 1.0, size=(k_count, rows))
        kernel = propagate._PwcKernel(system, rows)
        point = kernel.layout(values, 0.3)
        kernel.fill(point)
        tracemalloc.start()
        try:
            kernel.fill(point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * dim * dim * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, ten_level, bad):
        kernel = propagate._PwcKernel(ten_level, 3)
        with pytest.raises(ValueError, match="finite"):
            kernel.fill(kernel.layout(np.array([[0.1, bad, 0.2]]), 0.1))
        with pytest.raises(ValueError, match="finite"):
            kernel.fill(kernel.layout(np.array([[0.1, 0.3, 0.2]]), bad))

    @pytest.mark.parametrize("u", [1.0, 1e6])
    def test_squarings_stop_at_the_cap(self, ten_level, u):
        """A one-row fill of the ten-level system whose ``tau ||H - mu||_1``
        takes the cap's squarings stays within 1e-8 of unitary; at twice that
        ``tau`` (one squaring more) the fill raises."""
        h = ten_level.drift + u * ten_level.controls[0]
        norm = np.max(np.abs(h - np.trace(h).real / 10 * np.eye(10)).sum(axis=0))
        tau = propagate._TAYLOR_THETA * 2.0**propagate._MAX_SQUARINGS / norm * (1 - 1e-9)
        assert propagate._squarings(tau * norm) == propagate._MAX_SQUARINGS == 24
        kernel = propagate._PwcKernel(ten_level, 1)
        step = kernel.fill(kernel.layout([[u]], tau))[0]
        assert unitarity_defect(step) <= 1e-8
        with pytest.raises(ValueError, match=r"needs more than 24 squarings.*smaller tau"):
            kernel.fill(kernel.layout([[u]], 2 * tau))

    @pytest.mark.parametrize("norm", [np.inf, np.nan])
    def test_squaring_count_rejects_a_non_finite_norm(self, norm):
        with pytest.raises(ValueError, match="smaller tau"):
            propagate._squarings(norm)

    def test_evolve_beyond_the_cap_raises_without_a_runtime_warning(self, ten_level):
        field = SampledField(dt=0.1, values=[[1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="smaller tau"):
                evolve(ten_level, "pwc", field, tau=0.1)


class TestPwcKernelTableRoute:
    """``K = 1`` fills of at least ``2N`` rows: a Chebyshev table in the control value."""

    @staticmethod
    def system(rng, dim: int, shift: float = 0.0) -> ControlSystem:
        """Random terms; ``shift`` moves the control's spectrum off centre (a large trace)."""
        control = random_hermitian(dim, rng) + shift * np.eye(dim)
        return ControlSystem(drift=random_hermitian(dim, rng), controls=(control,))

    @pytest.mark.parametrize("dim", [2, 10, 32])
    @pytest.mark.parametrize("shift", [0.0, 40.0])
    @pytest.mark.parametrize("tau", [0.05, 0.2])
    def test_matches_expm_hermitian(self, rng, dim, shift, tau):
        """Values at +-c = +-1, just above the power of two 1 (c = 2) and
        inside a smaller interval: entries within 1e-14, unitary within 1e-14.
        Each table has the degree of ``|tau| c r_1``, ``r_1`` the half-spread
        of the control's spectrum, whatever its centre."""
        system = self.system(rng, dim, shift)
        low, high = np.linalg.eigvalsh(system.controls[0])[[0, -1]]
        rows = 2 * dim + 3
        kernel = propagate._PwcKernel(system, rows)
        inside = rng.uniform(-1.0, 1.0, size=rows)
        fills = [
            (np.r_[1.0, -1.0, inside[2:]], 1.0),
            (np.r_[-(1.0 + 2.0**-52), inside[1:]], 2.0),
            (np.r_[0.3, 0.3 * inside[1:]], 0.5),
        ]
        for values, scale in fills:
            steps = kernel.fill(kernel.layout(values[None], tau))
            degree = propagate._table_degree(tau * scale * (high - low) / 2, rows, dim)
            assert kernel._chebyshev[tau, scale].shape[1] == degree
            for step, u in zip(steps, values):
                assert np.max(np.abs(step - expm_hermitian(system.drift + u * system.controls[0],
                                                           tau))) <= 1e-14
                assert unitarity_defect(step) <= 1e-14
        assert len(kernel._chebyshev) == 3

    @pytest.mark.parametrize("largest, scale", [
        (0.3, 0.5), (0.5, 0.5), (1.0, 1.0), (1.0 + 2.0**-52, 2.0), (16.0, 16.0),
        (16.0 * (1.0 + 2.0**-52), 32.0), (2.0**-40, 2.0**-40), (0.0, 1.0),
    ])
    def test_table_scale_is_the_least_power_of_two_at_or_above_max_abs_u(
        self, rng, largest, scale
    ):
        """One table per ``(tau, c)``; all-zero values take ``c = 1``."""
        system = self.system(rng, 2)
        values = np.array([[largest, -largest / 3, largest / 2, 0.0]])
        kernel = propagate._PwcKernel(system, 4)
        steps = kernel.fill(kernel.layout(values, 0.01))
        assert list(kernel._chebyshev) == [(0.01, scale)]
        for step, u in zip(steps, values[0]):
            expected = expm_hermitian(system.drift + u * system.controls[0], 0.01)
            assert np.max(np.abs(step - expected)) <= 1e-14

    @pytest.mark.parametrize("k_count, dim, rows, tau", [
        (1, 10, 19, 0.2),  # fewer than 2N rows
        (1, 2, 8, 40.0),  # a degree above the cap, 3N/2 + 40
        (2, 10, 40, 0.2),
        (3, 10, 40, 0.2),
    ])
    def test_fallbacks_equal_the_taylor_fill_bit_for_bit(
        self, rng, monkeypatch, k_count, dim, rows, tau
    ):
        """The same bits as a kernel whose degree rule never allows a table."""
        system = ControlSystem(
            drift=random_hermitian(dim, rng),
            controls=tuple(random_hermitian(dim, rng) for _ in range(k_count)),
        )
        values = rng.uniform(-1.0, 1.0, size=(k_count, rows))
        kernel = propagate._PwcKernel(system, rows)
        steps = kernel.fill(kernel.layout(values, tau)).copy()
        assert not kernel._chebyshev
        monkeypatch.setattr(propagate, "_table_degree", lambda bandwidth, rows, dim: None)
        taylor = propagate._PwcKernel(system, rows)
        assert np.array_equal(steps, taylor.fill(taylor.layout(values, tau)))

    def test_second_fill_and_gradient_allocate_no_step_sized_array(self, rng):
        dim, rows = 10, 200
        system = self.system(rng, dim)
        kernel = propagate._PwcKernel(system, rows)
        point = kernel.layout(rng.uniform(-1.0, 1.0, size=(1, rows)), 0.1)
        phi, chi = (rng.normal(size=(rows + 1, dim)) + 0j for _ in range(2))
        kernel.fill(point)
        kernel.overlap_derivative(phi, chi)
        assert kernel._chebyshev
        tracemalloc.start()
        try:
            kernel.fill(point)
            kernel.overlap_derivative(phi, chi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * dim * dim * np.dtype(np.complex128).itemsize


class TestPwmKernelSlots:
    """The basis changes that a PWM kernel takes from its cache, one per slot."""

    @staticmethod
    def system(rng, k_count: int) -> ControlSystem:
        return ControlSystem(
            drift=random_hermitian(4, rng),
            controls=tuple(random_hermitian(4, rng) for _ in range(k_count)),
        )

    @classmethod
    def kernel(cls, rng, k_count: int, rows: int = 1):
        system = cls.system(rng, k_count)
        return propagate._PwmKernel(HamiltonianCache(system, np.linspace(1.0, 1.5, k_count)),
                                    rows)

    @pytest.mark.parametrize("k_count, slots", [(1, 2), (2, 12), (3, 54), (4, 216)])
    def test_a_fresh_kernel_holds_every_slot(self, rng, k_count, slots):
        """Every adjacent prefix pair has a slot and every prefix its cache entry."""
        kernel = self.kernel(rng, k_count)
        assert len(kernel._w) == len(kernel._w_adjoint) == len(kernel._lam_b) == slots
        assert kernel.cache.size == 3**k_count
        assert kernel._slot_of.shape == (3**k_count, k_count, 2)
        assert np.array_equal(np.sort(kernel._slot_of[kernel._slot_of >= 0]), np.arange(slots))

    @pytest.mark.parametrize("k_count", [1, 2, 3, 4])
    def test_each_slot_holds_its_basis_change(self, rng, k_count):
        """Slot ``_slot_of[code_a, k, h]`` holds ``V_a^dagger V_b``, its
        adjoint and ``lambda_b``, bit for bit, where ``b`` adds control ``k``
        with sign ``+1`` (``h = 0``) or ``-1`` (``h = 1``); it is -1 exactly
        where ``a`` holds ``k`` already."""
        kernel = self.kernel(rng, k_count)

        def prefix(code):
            digits = np.base_repr(code, 3).zfill(k_count)[::-1]
            return [(k, 1 if d == "1" else -1) for k, d in enumerate(digits) if d != "0"]

        for code_a, k, h in np.ndindex(kernel._slot_of.shape):
            slot = kernel._slot_of[code_a, k, h]
            held = any(j == k for j, _ in prefix(code_a))
            assert (slot < 0) == held
            if held:
                continue
            basis_a = kernel.cache.entry(prefix(code_a))[1]
            lam_b, basis_b = kernel.cache.entry(prefix(code_a) + [(k, 1 - 2 * h)])
            w = basis_a.conj().T @ basis_b
            assert np.array_equal(kernel._w[slot], w)
            assert np.array_equal(kernel._w_adjoint[slot], w.conj().T)
            assert np.array_equal(kernel._lam_b[slot], lam_b)
        if k_count == 1:
            # slot 0 adds the control with sign +1, slot 1 with sign -1
            assert kernel._slot_of[0, 0].tolist() == [0, 1]

    @pytest.mark.parametrize("k_count", [1, 2, 3, 4])
    def test_layout_finds_a_slot_for_every_position(self, rng, k_count):
        """Random widths of both signs with zeros, full widths and exact ties."""
        rows = 200
        kernel = self.kernel(rng, k_count, rows)
        widths = rng.uniform(-0.2, 0.2, size=(k_count, rows))
        widths[:, :2] = 0.0
        widths[0, 2:6] = [0.2, -0.2, 0.0, -0.0]
        widths[:, 6] = 0.1
        widths[:, 7] = -0.1
        widths[:, 8] = 0.1 * np.where(np.arange(k_count) % 2, 1, -1)
        for length in (0.2, -0.2):
            slots = kernel.layout(widths, length).slots
            assert slots.shape == (k_count, rows)
            assert np.all(slots >= 0)

    @pytest.mark.parametrize("split", [False, True], ids=["pwm", "spo"])
    def test_kernels_on_one_cache_share_its_slots(self, rng, split, monkeypatch):
        """The cache builds its slots whole; every kernel on it holds the
        cache's own read-only stacks and diagonalizes nothing."""
        system = self.system(rng, 2)
        cache = TermCache(system) if split else HamiltonianCache(system, [1.0, 1.3])

        def no_eigh(*args, **kwargs):
            raise AssertionError("a kernel diagonalized")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        first = propagate._PwmKernel(cache, 1)
        second = propagate._PwmKernel(cache, 5)
        names = ("_w", "_w_adjoint", "_lam_b", "_slot_of")
        for kernel in (first, second):
            for name, held in zip(names, cache._slots):
                assert getattr(kernel, name) is held
                assert held is None or not held.flags.writeable
            assert np.shares_memory(kernel.v0, cache._bases) and not kernel.v0.flags.writeable

    def test_rejects_more_controls_than_the_bound(self, rng, monkeypatch):
        """Above ``_MAX_PWM_CONTROLS`` the cache, and so every PWM entry
        point, the frame-by-frame ``step_pwm`` included, raises before any
        diagonalization; PWC and split-operator propagation still take the
        system."""
        k_count = propagate._MAX_PWM_CONTROLS + 1
        system = self.system(rng, k_count)
        xi = np.ones(k_count)
        message = f"at most {propagate._MAX_PWM_CONTROLS} controls, got {k_count}"
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", None)
            with pytest.raises(ValueError, match=message):
                HamiltonianCache(system, xi)
        widths = rng.uniform(-0.1, 0.1, size=(k_count, 3))
        seq = PWMSequence(tau=0.2, amplitudes=xi, widths=widths)
        def smooth(t):
            return np.sin(np.outer(np.arange(1, k_count + 1), t))

        for run in (lambda: evolve(system, "pwm", seq),
                    lambda: evolve(system, "pwm4", seq),
                    lambda: step_pwm_higher(system, xi, seq, 1, 2),
                    lambda: error_order("pwm", system, smooth, [0.1, 0.05], amplitudes=xi),
                    lambda: step_pwm(system, xi, build_frame(seq, 1))):
            with pytest.raises(ValueError, match=message):
                run()
        field = SampledField(dt=0.2, values=widths)
        for scheme in ("pwc", "spo"):
            assert unitarity_defect(evolve(system, scheme, field, tau=0.2)) < 1e-12
        fit = error_order("pwc", system, smooth, [0.1, 0.05], amplitudes=xi, resolution=100)
        assert len(fit.errors) == 2


class TestPwmKernelRoutes:
    """The product route of the PWM kernel, which every K >= 2 fill takes."""

    @staticmethod
    def recording_kernels(monkeypatch) -> list:
        kernels = []

        class Recorded(propagate._PwmKernel):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

        monkeypatch.setattr(propagate, "_PwmKernel", Recorded)
        return kernels

    def test_second_fill_and_gradient_allocate_no_step_sized_array(self, rng):
        """At K = 2 on the product route the kernel works in its own stacks."""
        dim, rows = 10, 200
        system = ControlSystem(
            drift=random_hermitian(dim, rng),
            controls=(random_hermitian(dim, rng), random_hermitian(dim, rng)),
        )
        kernel = propagate._PwmKernel(HamiltonianCache(system, [1.0, 1.0]), rows)
        layout = kernel.layout(rng.uniform(-0.1, 0.1, size=(2, rows)), 0.1)
        states = rng.standard_normal((2, rows + 1, dim)) + 0j
        kernel.fill(layout)
        kernel.overlap_derivative(*states)
        tracemalloc.start()
        try:
            kernel.fill(layout)
            kernel.overlap_derivative(*states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * dim * dim * np.dtype(np.complex128).itemsize


class TestPwmKernelSpectralRoute:
    """The K = 1 spectral route of the PWM kernel against its product route."""

    @staticmethod
    def one_control_system(rng, dim: int = 4, trace: float = 0.0) -> ControlSystem:
        drift = random_hermitian(dim, rng) + trace / dim * np.eye(dim)
        return ControlSystem(drift=drift, controls=(random_hermitian(dim, rng),))

    @staticmethod
    def widths(rng, rows: int, tau: float) -> np.ndarray:
        """Random widths with zeros, both full widths and a zero of each sign slot."""
        widths = rng.uniform(-tau, tau, size=(1, rows))
        widths[0, :4] = [0.0, tau, -tau, -0.0]
        return widths

    @staticmethod
    def product_steps(kernel, widths: np.ndarray, length: float) -> np.ndarray:
        """The same kernel's steps of ``widths``, one row per fill (product route)."""
        steps = []
        for m in range(widths.shape[1]):
            steps.append(kernel.fill(kernel.layout(widths[:, m : m + 1], length))[0].copy())
            assert kernel._spectral is None
        return np.array(steps)

    @pytest.mark.parametrize("trace", [0.0, 200.0], ids=["traceless", "large-trace"])
    @pytest.mark.parametrize("length", [0.2, -0.2, 0.2 * (1 - 2 * suzuki_coefficient(2))],
                             ids=["forward", "backward", "suzuki-middle"])
    def test_steps_match_the_product_route(self, rng, trace, length):
        """Zero widths, ``|w| = tau`` and both sign slots, in forward and
        backward windows, with a traceless drift and one of trace 200."""
        kernel = propagate._PwmKernel(HamiltonianCache(self.one_control_system(rng, trace=trace),
                                                       [1.3]), 40)
        widths = self.widths(rng, 40, abs(length))
        spectral = kernel.fill(kernel.layout(widths, length)).copy()
        assert kernel._spectral is not None
        assert np.max(np.abs(spectral - self.product_steps(kernel, widths, length))) <= 1e-13

    def test_derivative_matches_the_product_route(self, rng):
        """``overlap_derivative`` of the two routes, with zero and full widths."""
        kernel = propagate._PwmKernel(HamiltonianCache(self.one_control_system(rng), [1.3]), 40)
        widths = self.widths(rng, 40, 0.2)
        steps = self.product_steps(kernel, widths, 0.2)
        # kets and bras at the step boundaries, as the product route needs them
        phi, chi = rng.standard_normal((2, 41, 4)) + 1j * rng.standard_normal((2, 41, 4))
        for m, step in enumerate(steps):
            phi[m + 1] = step @ phi[m]
        for m in range(39, -1, -1):
            chi[m] = chi[m + 1] @ steps[m]
        results, table_degree = [], propagate._table_degree
        for route in (True, False):
            layout = kernel.layout(widths, 0.2)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(propagate, "_table_degree", lambda bandwidth, rows, dim:
                              table_degree(bandwidth, 2 * dim, dim) if route else None)
                kernel.fill(layout)
            assert (kernel._spectral is not None) == route
            with pytest.warns(UserWarning, match="zero width"):
                results.append(kernel.overlap_derivative(phi, chi))
        spectral, product = results
        assert spectral.shape == (1, 40)
        assert np.max(np.abs(spectral - product)) <= 1e-12 * np.max(np.abs(product))

    def test_evolve_pwm4_tables_per_window_length(self, rng, monkeypatch):
        """``evolve("pwm4")`` at K = 1 takes the spectral route with one table
        for each of its forward and backward sub-window lengths, within 1e-13
        of the product route forced by the rule."""
        system = self.one_control_system(rng, dim=5)
        field = SampledField(dt=0.05, values=rng.uniform(-1.0, 1.0, size=(1, 240)))
        kernels = TestPwmKernelRoutes.recording_kernels(monkeypatch)
        spectral = evolve(system, "pwm4", field, tau=0.2, amplitudes=[1.4])
        s = suzuki_coefficient(2)
        assert set(kernels[-1]._chebyshev) == {s * 0.2, (1 - 2 * s) * 0.2}
        assert kernels[-1]._spectral is not None
        monkeypatch.setattr(propagate, "_table_degree", lambda bandwidth, rows, dim: None)
        product = evolve(system, "pwm4", field, tau=0.2, amplitudes=[1.4])
        assert kernels[-1]._spectral is None
        assert np.max(np.abs(spectral - product)) <= 1e-13

    def test_large_bandwidth_meets_the_bound_or_falls_back(self, rng):
        """A window long against the spectrum: at the largest degree the route
        takes, the steps still meet 1e-13; beyond it the fill takes the
        product route, with the same steps."""
        system = self.one_control_system(rng)
        kernel = propagate._PwmKernel(HamiltonianCache(system, [1.3]), 40)
        cap = propagate._degree_cap(system.dim)
        degrees = []
        for length in (2.0, 6.0):
            widths = self.widths(rng, 40, length)
            steps = kernel.fill(kernel.layout(widths, length)).copy()
            degrees.append(None if kernel._spectral is None else kernel._spectral[0].shape[1] // 2)
            assert np.max(np.abs(steps - self.product_steps(kernel, widths, length))) <= 1e-13
        assert system.dim < degrees[0] <= cap
        # the longer window falls back because its degree is above the cap
        assert degrees[1] is None
        assert propagate._table_degree(6.0 / 2 * kernel._spread, 40, system.dim) is None

    def test_degree_rule_boundary(self, rng):
        """The degree is the smallest ``J`` with ``2 (b/2)^J / J! <= 2^-53``,
        at ``2N`` rows or more; the route takes the cap's degree and falls
        back one degree above it, with ``b`` over both sign slots when a fill
        uses one."""
        for bandwidth in (0.0, 1e-3, 0.571, 1.24, 7.0):
            degree = propagate._table_degree(bandwidth, 80, 40)  # cap 100
            bound = [2 * (bandwidth / 2) ** j / math.factorial(j) for j in (degree - 1, degree)]
            assert bound[1] <= 2.0**-53
            assert degree == 1 or bound[0] > 2.0**-53
        # degree 31 at b = 7 and 53 at b = 20, against the cap 43 at N = 2
        assert propagate._table_degree(7.0, 4, 2) == 31
        assert propagate._table_degree(7.0, 3, 2) is None
        assert propagate._table_degree(20.0, 4, 2) is None
        assert propagate._table_degree(20.0, 80, 40) == 53
        base = self.one_control_system(rng)
        cap = propagate._degree_cap(base.dim)
        widths = np.abs(self.widths(rng, 40, 1.0))  # one sign slot
        # the control's sign swaps the slots: once the unused one is wider
        for sign in (1, -1):
            system = ControlSystem(drift=base.drift, controls=(sign * base.controls[0],))
            kernel = propagate._PwmKernel(HamiltonianCache(system, [1.3]), 40)
            lam, lam0 = kernel._lam_b, kernel._lam0
            spread = max(lam.max() - lam0.min(), lam0.max() - lam.min())
            # the bandwidth b at which 2 (b/2)^cap / cap! = 2^-53
            edge = 2 * (2.0**-54 * math.factorial(cap)) ** (1 / cap) * 2 / spread
            for length, spectral in ((edge * (1 - 1e-9), True), (edge * (1 + 1e-9), False)):
                scaled = widths * length
                steps = kernel.fill(kernel.layout(scaled, length)).copy()
                assert (kernel._spectral is not None) == spectral
                if spectral:
                    assert kernel._spectral[0].shape[1] == 2 * cap
                product = self.product_steps(kernel, scaled, length)
                assert np.max(np.abs(steps - product)) <= 1e-13

    def test_one_table_per_length_holds_both_signs(self, rng):
        """One sign per fill, at two lengths: each length builds one table
        with both sign halves, and a fill of the other sign at that length
        reuses it, within 1e-13 of the product route."""
        kernel = propagate._PwmKernel(HamiltonianCache(self.one_control_system(rng), [1.3]), 40)
        widths = np.abs(self.widths(rng, 40, 0.2))[:, 4:]
        kernel.fill(kernel.layout(widths, 0.2))
        kernel.fill(kernel.layout(-widths / 2, 0.1))
        assert kernel._spectral is not None
        assert set(kernel._chebyshev) == {0.2, 0.1}
        for length, tables in kernel._chebyshev.items():
            degree = tables.shape[1] // 2
            assert tables.shape == (2, 2 * degree, 2 * 4 * 4)
            # rows 2k hold sign +1 (and zero widths), rows 2k + 1 sign -1
            assert np.all(np.any(tables[:, 0::2], axis=(1, 2)))
            assert np.all(np.any(tables[:, 1::2], axis=(1, 2)))
        built = kernel._chebyshev[0.2]
        steps = kernel.fill(kernel.layout(-widths, 0.2)).copy()
        assert kernel._spectral is not None and kernel._chebyshev[0.2] is built
        assert np.max(np.abs(steps - self.product_steps(kernel, -widths, 0.2))) <= 1e-13

    def test_second_fill_and_gradient_allocate_no_step_sized_array(self, rng):
        """At K = 1 on the spectral route the kernel works in its own stacks."""
        dim, rows = 10, 200
        kernel = propagate._PwmKernel(HamiltonianCache(self.one_control_system(rng, dim), [1.0]),
                                      rows)
        layout = kernel.layout(rng.uniform(-0.1, 0.1, size=(1, rows)), 0.1)
        states = rng.standard_normal((2, rows + 1, dim)) + 0j
        kernel.fill(layout)
        kernel.overlap_derivative(*states)
        assert kernel._spectral is not None
        tracemalloc.start()
        try:
            kernel.fill(layout)
            kernel.overlap_derivative(*states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * dim * dim * np.dtype(np.complex128).itemsize


class TestCacheOwnership:
    """A cache built for another system or other amplitudes is rejected,
    not silently used in place of the arguments."""

    def test_step_functions_reject_foreign_caches(self, ten_level, rng):
        other = ControlSystem(
            drift=random_hermitian(10, rng), controls=(random_hermitian(10, rng),)
        )
        xi = np.array([1.0])
        seq = PWMSequence(tau=0.1, amplitudes=xi, widths=[[0.05, -0.03]])
        for cache, reason in (
            (HamiltonianCache(other, xi), "another system"),
            (HamiltonianCache(ten_level, [0.5]), "other amplitudes"),
        ):
            with pytest.raises(ValueError, match=reason):
                step_pwm(ten_level, xi, build_frame(seq, 1), cache)
            with pytest.raises(ValueError, match=reason):
                step_pwm_higher(ten_level, xi, seq, 1, 2, cache=cache)
        with pytest.raises(ValueError, match="another system"):
            step_spo(ten_level, [0.8], 0.1, TermCache(other))

    @pytest.mark.parametrize("step, expected, given", [
        (lambda s, c: step_pwm(s, [1.0], frame_from_widths([0.05], 0.1), c),
         "HamiltonianCache", TermCache),
        (lambda s, c: step_pwm_higher(s, [1.0], np.sin, 1, 2, tau=0.1, cache=c),
         "HamiltonianCache", TermCache),
        (lambda s, c: step_spo(s, [0.8], 0.1, c), "TermCache", HamiltonianCache),
    ], ids=["step_pwm", "step_pwm_higher", "step_spo"])
    def test_step_functions_reject_the_other_cache_class(self, ten_level, step, expected,
                                                          given):
        cache = given(ten_level) if given is TermCache else given(ten_level, [1.0])
        with pytest.raises(ValueError, match=f"^cache must be a {expected}, got {given.__name__}$"):
            step(ten_level, cache)


class TestControlCount:
    """Per-control input with another control count than the system raises
    one ``ValueError`` instead of giving a propagator or an indexing error."""

    @pytest.fixture()
    def system(self, rng):
        return ControlSystem(drift=random_hermitian(4, rng),
                             controls=(random_hermitian(4, rng), random_hermitian(4, rng)))

    @pytest.mark.parametrize("widths", [[0.05], [0.05, 0.01, 0.02]])
    def test_step_pwm_rejects_a_frame_of_another_count(self, system, widths):
        with pytest.raises(ValueError, match=f"frame has {len(widths)} controls, system has 2"):
            step_pwm(system, [1.0, 1.0], frame_from_widths(widths, 0.1))

    @pytest.mark.parametrize("call, name", [
        (lambda system, seq, field: evolve(system, "pwm", seq), "sequence"),
        (lambda system, seq, field: evolve(system, "pwm4", seq), "sequence"),
        (lambda system, seq, field: step_pwm_higher(system, [1.0], seq, 1, 2), "sequence"),
        (lambda system, seq, field: evolve(system, "pwm", field, tau=0.1, amplitudes=[1.0]),
         "field"),
    ], ids=["evolve-pwm", "evolve-pwm4", "step_pwm_higher", "evolve-field"])
    def test_one_control_input_on_a_two_control_system(self, system, call, name):
        field = SampledField(dt=0.1, values=[[0.2, 0.3]])
        with pytest.raises(ValueError, match=f"^{name} has 1 controls, system has 2$"):
            call(system, pwm_approximate(field, [1.0], 0.1), field)


class TestHermiticity:
    """``eigh`` reads one triangle, so a non-Hermitian system must be
    rejected before any propagator is built from it."""

    @pytest.mark.parametrize("scheme", ["pwm", "pwm4", "spo", "pwc"])
    def test_evolve_rejects_non_hermitian_system(self, scheme):
        system = non_hermitian_ten_level()
        if scheme.startswith("pwm"):
            source = PWMSequence(tau=0.1, amplitudes=[1.0], widths=[[0.05, -0.03]])
        else:
            source = SampledField(dt=0.1, values=[[0.5, -0.3]])
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve(system, scheme, source, tau=0.1)

    def test_reference_propagator_rejects_non_hermitian_system(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            reference_propagator(non_hermitian_ten_level(), np.sin, 0.0, 1.0, resolution=100)


class TestReferencePropagator:
    def test_zero_field_closed_form(self, two_level):
        u = reference_propagator(two_level, lambda t: 0.0 * t, 0.0, 2.0, resolution=500)
        assert np.allclose(u, expm_hermitian(SIGMA_Z, 2.0), atol=1e-12)

    def test_rejects_tiny_resolution(self, two_level):
        with pytest.raises(ValueError):
            reference_propagator(two_level, np.sin, 0.0, 1.0, resolution=10)

    def test_rejects_a_resolution_beyond_the_sample_cap(self, two_level):
        """Before the slice midpoints are allocated."""
        named = r"^resolution must be in 100\.\.10000000, got 10000000000000000000$"
        with pytest.raises(ValueError, match=named):
            reference_propagator(two_level, np.sin, 0.0, 1.0, resolution=10**19)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_rejects_a_span_that_is_not_positive_and_finite(self, two_level, t_end):
        with pytest.raises(GridError, match=r"^t_end - t_start must be positive and finite"):
            reference_propagator(two_level, np.sin, 0.0, t_end)

    def test_exact_for_aligned_staircase(self, two_level, rng):
        """When the oracle's slices subdivide the field's cells it is exact."""
        values = rng.uniform(-1, 1, size=(1, 40))
        field = SampledField(dt=0.05, values=values)
        u_ref = reference_propagator(two_level, field, 0.0, 2.0, resolution=400)
        u_pwc = evolve(two_level, "pwc", field, tau=0.05)
        assert np.allclose(u_ref, u_pwc, atol=1e-12)


class TestEvolve:
    def test_pwm_field_equals_pwm_sequence(self, two_level):
        field, tau = _sine_field()
        xi = np.array([1.0])
        from pwmctrl.pwm import pwm_approximate

        seq = pwm_approximate(field, xi, tau)
        u_field = evolve(two_level, "pwm", field, tau=tau, amplitudes=xi)
        u_seq = evolve(two_level, "pwm", seq)
        assert np.allclose(u_field, u_seq, atol=1e-14)

    def test_sequence_rejects_another_tau_or_amplitudes(self, two_level):
        """A sequence carries its own grid and amplitudes: equal values are
        accepted, other ones raise instead of being ignored."""
        field, tau = _sine_field()
        seq = pwm_approximate(field, np.array([1.5]), tau)
        u = evolve(two_level, "pwm", seq)
        assert np.array_equal(evolve(two_level, "pwm", seq, tau=tau, amplitudes=[1.5]), u)
        with pytest.raises(ValueError, match="tau disagrees with the sequence subinterval"):
            evolve(two_level, "pwm", seq, tau=2 * tau)
        with pytest.raises(ValueError, match="amplitudes disagree"):
            evolve(two_level, "pwm4", seq, amplitudes=[3.0])
        with pytest.raises(ValueError, match="amplitudes disagree"):
            step_pwm_higher(two_level, [3.0], seq, 2, 2)

    def test_zero_field_all_schemes_agree(self, two_level):
        field = SampledField(dt=0.01, values=np.zeros((1, 100)))
        mats = [
            evolve(two_level, scheme, field, tau=0.1, amplitudes=np.array([1.0]))
            for scheme in ("pwc", "spo", "pwm", "pwm4")
        ]
        for u in mats[1:]:
            assert np.allclose(u, mats[0], atol=1e-12)

    @pytest.mark.parametrize("scheme", ["pwm", "pwm4", "pwc", "spo"])
    def test_output_is_unitary(self, rng, scheme):
        system, field, tau = _random_two_control_input(rng)
        u = evolve(system, scheme, field, tau=tau, amplitudes=np.array([1.2, 1.5]))
        assert unitarity_defect(u) <= 1e-12

    @pytest.mark.parametrize("scheme", ["pwm", "pwm4", "pwc", "spo"])
    def test_blocks_do_not_change_the_result(self, rng, monkeypatch, scheme):
        """Seven subintervals in blocks of three, the last one short, give
        the single-block result."""
        system, field, tau = _random_two_control_input(rng)
        xi = np.array([1.2, 1.5])
        whole = evolve(system, scheme, field, tau=tau, amplitudes=xi)
        monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 3 * 8 * system.dim**2)
        assert propagate._block_rows(system, 7) == 3
        blocked = evolve(system, scheme, field, tau=tau, amplitudes=xi)
        assert np.max(np.abs(blocked - whole)) <= 1e-13

    def test_block_error_names_the_global_subinterval(self, two_level, monkeypatch):
        """The first pwm4 sub-window of subinterval 3 reaches into the pulse
        that fills the start of subinterval 4, so its width exceeds its
        length; subinterval 3 is the first of the second block of two."""
        values = np.zeros((1, 16))
        values[0, 8:12] = 1.0
        values[0, 12] = 4.0
        field = SampledField(dt=0.025, values=values)
        monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 2 * 6 * two_level.dim**2)
        with pytest.raises(ValueError, match="subinterval m=3"):
            evolve(two_level, "pwm4", field, tau=0.1, amplitudes=[1.0])

    def test_pwm_matches_the_product_of_step_pwm(self, rng, monkeypatch):
        system, field, tau = _random_two_control_input(rng)
        xi = np.array([1.2, 1.5])
        seq = pwm_approximate(field, xi, tau)
        expected = np.eye(system.dim)
        for m in range(1, seq.n_pulses + 1):
            expected = step_pwm(system, xi, build_frame(seq, m)) @ expected
        monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 3 * 8 * system.dim**2)
        assert np.max(np.abs(evolve(system, "pwm", seq) - expected)) <= 1e-12

    @pytest.mark.parametrize("k_count", [1, 2, 3])
    def test_spo_matches_the_product_of_step_spo(self, rng, monkeypatch, k_count):
        """Seven subintervals in blocks of three, with negative and zero
        control values, against the chronological product of the reference."""
        system = ControlSystem(
            drift=random_hermitian(5, rng),
            controls=tuple(random_hermitian(5, rng) for _ in range(k_count)),
        )
        values = rng.uniform(-1.0, 1.0, size=(k_count, 7))
        values[:, 2] = 0.0
        values[0, 4] = 0.0
        values[-1, 5] = -1.5
        tau = 0.2
        expected = np.eye(system.dim)
        for m in range(7):
            expected = step_spo(system, values[:, m], tau) @ expected
        monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 3 * (2 * k_count + 4) * system.dim**2)
        assert propagate._block_rows(system, 7) == 3
        u = evolve(system, "spo", SampledField(dt=tau, values=values), tau=tau)
        assert np.max(np.abs(u - expected)) <= 1e-12

    @pytest.mark.parametrize("level", [2, 3])
    def test_composed_pwm_matches_suzuki_windows_of_step_pwm(self, rng, monkeypatch, level):
        """``pwm4``/``pwm6`` from a sequence against a Suzuki composition of
        frame-by-frame steps on scaled widths; a backward sub-window is the
        conjugate transpose of the forward step over its length."""
        system, field, tau = _random_two_control_input(rng)
        xi = np.array([1.2, 1.5])
        seq = pwm_approximate(field, xi, tau)

        def window(widths, length, order):
            if order == 1:
                frame = frame_from_widths(widths * (abs(length) / tau), abs(length))
                step = step_pwm(system, xi, frame)
                return step if length > 0 else step.conj().T
            s = suzuki_coefficient(order)
            outer = window(widths, s * length, order - 1)
            return outer @ window(widths, (1 - 2 * s) * length, order - 1) @ outer

        expected = np.eye(system.dim)
        for m in range(seq.n_pulses):
            expected = window(seq.widths[:, m], tau, level) @ expected
        monkeypatch.setattr(propagate, "_BLOCK_ENTRIES", 3 * 8 * system.dim**2)
        u = evolve(system, f"pwm{2 * level}", seq)
        assert np.max(np.abs(u - expected)) <= 1e-12

    @pytest.mark.parametrize("scheme", ["pwm", "pwm4"])
    def test_pwm_schemes_reject_a_callable_source(self, two_level, scheme):
        with pytest.raises(ValueError, match="takes a PWMSequence, or a SampledField"):
            evolve(two_level, scheme, np.sin, tau=0.1, amplitudes=[1.0])

    @pytest.mark.parametrize("scheme", ["pwm3", "pwm0", "strang", ""])
    def test_rejects_unknown_scheme(self, two_level, scheme):
        field = SampledField(dt=0.1, values=np.zeros((1, 10)))
        with pytest.raises(ValueError):
            evolve(two_level, scheme, field, tau=0.1, amplitudes=np.array([1.0]))

    def test_requires_tau_for_sampled_schemes(self, two_level):
        field = SampledField(dt=0.1, values=np.zeros((1, 10)))
        with pytest.raises(ValueError):
            evolve(two_level, "pwc", field)

    @pytest.mark.parametrize("scheme", ["pwc", "spo"])
    @pytest.mark.parametrize("tau", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_a_tau_that_is_not_positive_and_finite(self, two_level, scheme, tau):
        """-0.1 tiles the field 1.0 long, and must not give the identity."""
        field = SampledField(dt=0.1, values=np.zeros((1, 10)))
        with pytest.raises(GridError, match="tau must be positive and finite"):
            evolve(two_level, scheme, field, tau=tau)


class TestHigherOrderStep:
    def test_unitary(self, two_level):
        field, tau = _sine_field()
        xi = np.array([1.0])
        from pwmctrl.pwm import pwm_approximate

        seq = pwm_approximate(field, xi, tau)
        for n in (2, 3):
            high = step_pwm_higher(two_level, xi, seq, 3, n)
            assert unitarity_defect(high) < 1e-12

    def test_rejects_base_order(self, two_level):
        seq = PWMSequence(tau=0.5, amplitudes=[1.0], widths=[[0.2]])
        with pytest.raises(ValueError):
            step_pwm_higher(two_level, np.array([1.0]), seq, 1, 1)

    @pytest.mark.parametrize("tau", [-0.1, 0.0, math.inf, math.nan])
    def test_field_source_rejects_a_tau_that_is_not_positive_and_finite(self, two_level, tau):
        """-0.1 would otherwise propagate the window backwards."""
        with pytest.raises(GridError, match=r"^tau must be positive and finite, got "):
            step_pwm_higher(two_level, [1.0], np.sin, 2, 2, tau=tau)

    def test_exact_for_commuting_hamiltonians(self):
        """Splitting is lossless when drift and control commute, at any level."""
        d0 = np.diag([1.0, 2.0, -0.5]).astype(complex)
        d1 = np.diag([0.3, -0.7, 1.1]).astype(complex)
        system = ControlSystem(drift=d0, controls=(d1,))
        xi, tau, w = 1.4, 0.6, 0.35
        seq = PWMSequence(tau=tau, amplitudes=[xi], widths=[[w]])
        exact = expm_hermitian(d0, tau) @ expm_hermitian(d1, xi * w)
        composed = step_pwm_higher(system, np.array([xi]), seq, 1, 2)
        assert np.allclose(composed, exact, atol=1e-12)


def _random_two_control_input(rng) -> tuple[ControlSystem, SampledField, float]:
    """A random N = 5, K = 2 system and a field of seven subintervals."""
    system = ControlSystem(
        drift=random_hermitian(5, rng),
        controls=(random_hermitian(5, rng), random_hermitian(5, rng)),
    )
    field = SampledField(dt=0.05, values=rng.uniform(-1.0, 1.0, size=(2, 28)))
    return system, field, 0.2


def _sine_field(n_per: int = 64, m_count: int = 10) -> tuple[SampledField, float]:
    duration = 2 * np.pi
    tau = duration / m_count
    n = m_count * n_per
    dt = duration / n
    t = (np.arange(n) + 0.5) * dt
    return SampledField(dt=dt, values=np.sin(t)[None, :]), tau


class TestErrorOrder:
    """Single-step error slopes on the driven qubit (smaller grids than the
    acceptance run; bands widened accordingly)."""

    @pytest.mark.parametrize(
        "scheme,band",
        [("pwc", (2.7, 3.3)), ("spo", (2.7, 3.3)), ("pwm", (2.7, 3.3))],
    )
    def test_third_order_local_error(self, two_level, scheme, band):
        fit = error_order(
            scheme, two_level, np.sin, (0.2, 0.1, 0.05),
            amplitudes=np.array([1.0]), resolution=4000, t_start=0.5,
        )
        assert not fit.saturated
        assert band[0] < fit.slope < band[1], f"slope = {fit.slope:.3f}"

    def test_composed_scheme_gains_two_orders(self, two_level):
        fit = error_order(
            "pwm4", two_level, np.sin, (0.2, 0.1, 0.05),
            amplitudes=np.array([1.0]), resolution=4000, t_start=0.5,
        )
        assert 4.6 < fit.slope < 5.4, f"slope = {fit.slope:.3f}"

    @pytest.mark.parametrize("scheme", ["pwc", "pwm"])
    @pytest.mark.parametrize("bad", [0.0, -0.05, math.nan, math.inf])
    def test_rejects_a_tau_that_is_not_positive_and_finite(
        self, two_level, monkeypatch, scheme, bad
    ):
        """Each tau is checked where the list enters, before any reference
        propagator is built."""

        def unreachable(*args, **kwargs):
            raise AssertionError("reference_propagator was called")

        monkeypatch.setattr(propagate, "reference_propagator", unreachable)
        monkeypatch.setattr(propagate, "_reference", unreachable)
        with pytest.raises(ValueError, match=r"^tau must be positive and finite, got "):
            error_order(scheme, two_level, np.sin, (0.1, bad), amplitudes=np.array([1.0]))

    def test_rejects_repeated_taus_before_any_propagator(self, two_level, monkeypatch):
        """One distinct step size has no slope: not numpy's rank warning and a
        line through one point."""

        def unreachable(*args, **kwargs):
            raise AssertionError("a reference propagator was built")

        monkeypatch.setattr(propagate, "_reference", unreachable)
        with pytest.raises(ValueError, match=r"^need at least two tau values to fit a slope, "
                           r"got \[0\.1\]$"):
            error_order("pwc", two_level, np.sin, (0.1, 0.1))

    @pytest.mark.parametrize("t_start", [math.inf, math.nan])
    def test_rejects_a_non_finite_t_start(self, two_level, monkeypatch, t_start):
        """Named as the caller gave it, not as the reference's window."""

        def unreachable(*args, **kwargs):
            raise AssertionError("reference_propagator was called")

        monkeypatch.setattr(propagate, "reference_propagator", unreachable)
        monkeypatch.setattr(propagate, "_reference", unreachable)
        with pytest.raises(ValueError, match=r"^t_start must be finite"):
            error_order("pwc", two_level, np.sin, (0.1, 0.05), t_start=t_start)

    def test_a_large_t_start_keeps_the_third_order(self, ten_level):
        """The reference spans tau itself, not ``(t_start + tau) - t_start``."""
        fit = error_order("pwc", ten_level, np.sin, [0.1, 0.05, 0.025], t_start=1e6)
        assert 2.7 <= fit.slope <= 3.3, f"slope = {fit.slope:.3f}"

    @pytest.mark.parametrize("t_start", [1e11, -1e11, 1e17])
    def test_rejects_a_t_start_whose_spacing_exceeds_the_slice_width(
        self, ten_level, monkeypatch, t_start
    ):
        """``np.spacing(1e11)`` is 1.5e-5, above 0.025 / 10,000: the slice
        midpoints would collapse.  Raised before any reference is built."""

        def unreachable(*args, **kwargs):
            raise AssertionError("a reference propagator was built")

        monkeypatch.setattr(propagate, "_reference", unreachable)
        with pytest.raises(ValueError, match=r"^t_start = .* tau = 0\.025 at resolution = 10000"):
            error_order("pwc", ten_level, np.sin, [0.1, 0.05, 0.025], t_start=t_start)

    def test_saturation_flagged_for_exact_scheme(self, two_level):
        """Zero field: every scheme is exact, errors sit at rounding level."""
        fit = error_order(
            "pwm", two_level, lambda t: np.zeros_like(t), (0.2, 0.1),
            amplitudes=np.array([1.0]), resolution=500, t_start=0.0,
        )
        assert fit.saturated
        assert np.isnan(fit.slope)


def _per_point(field, n_controls: int):
    """The former sampling: ``field`` called once per scalar time, stacked to ``(K, n)``."""

    def sampled(times):
        times = np.ravel(times)
        out = np.empty((n_controls, times.size))
        for j, t in enumerate(times):
            out[:, j] = np.atleast_1d(np.asarray(field(float(t)), dtype=np.float64))
        return out

    return sampled


def _two_sines(t):
    """Two controls: ``(2, n)`` for an array of times."""
    return np.stack([np.sin(t), 0.5 * np.cos(2 * t)])


class TestCallableField:
    """A callable field is sampled once per array of times."""

    def test_two_controls_in_reference_propagator(self, rng):
        system, _, _ = _random_two_control_input(rng)
        u = reference_propagator(system, _two_sines, 0.0, 1.0, resolution=200)
        assert np.array_equal(
            u, reference_propagator(system, _per_point(_two_sines, 2), 0.0, 1.0, resolution=200)
        )
        mids = 0.0 + (np.arange(200) + 0.5) * (1.0 / 200)
        staircase = SampledField(dt=1.0 / 200, values=_two_sines(mids))
        assert np.array_equal(u, reference_propagator(system, staircase, 0.0, 1.0, resolution=200))

    def test_two_controls_in_suzuki_windows(self, rng):
        system, _, tau = _random_two_control_input(rng)
        xi = np.array([1.5, 1.5])
        for m in (1, 3):
            u = step_pwm_higher(system, xi, _two_sines, m, 2, tau=tau)
            assert unitarity_defect(u) < 1e-12
            per_point = step_pwm_higher(system, xi, _per_point(_two_sines, 2), m, 2, tau=tau)
            assert np.array_equal(u, per_point)
        args = ((0.2, 0.1), xi, 400)
        fit = error_order("pwm4", system, _two_sines, *args)
        assert fit.errors == error_order("pwm4", system, _per_point(_two_sines, 2), *args).errors

    @pytest.mark.parametrize("returns, expected", [
        (lambda t: 1.0, "shape (), expected (1, 100) or (100,)"),
        (lambda t: np.ones((2, t.size)), "shape (2, 100), expected (1, 100) or (100,)"),
        (lambda t: np.ones(t.size + 1), "shape (101,), expected (1, 100) or (100,)"),
    ])
    def test_wrong_shape_names_the_expected_one(self, two_level, returns, expected):
        with pytest.raises(ValueError, match=re.escape(expected)):
            reference_propagator(two_level, returns, 0.0, 1.0, resolution=100)

    def test_one_row_per_time_is_not_two_controls(self, rng):
        system, _, _ = _random_two_control_input(rng)
        with pytest.raises(ValueError, match=re.escape("shape (100,), expected (2, 100)")):
            reference_propagator(system, np.sin, 0.0, 1.0, resolution=100)
        with pytest.raises(ValueError, match=re.escape("shape (100, 2), expected (2, 100)")):
            reference_propagator(system, lambda t: _two_sines(t).T, 0.0, 1.0, resolution=100)

    def test_sine_reference_equals_per_point_sampling(self, two_level):
        u = reference_propagator(two_level, np.sin, 0.5, 0.7, resolution=10_000)
        per_point = reference_propagator(two_level, _per_point(np.sin, 1), 0.5, 0.7, resolution=10_000)
        assert np.max(np.abs(u - per_point)) == 0.0

    @pytest.mark.parametrize("scheme", ["pwm", "pwm4", "pwc", "spo"])
    def test_sine_error_order_equals_per_point_sampling(self, two_level, scheme):
        """The ``pwmctrl error-order`` defaults: four steps, 10,000 reference slices."""
        args = ((0.2, 0.1, 0.05, 0.025), np.array([1.0]), 10_000, 0.5)
        fit = error_order(scheme, two_level, np.sin, *args)
        per_point = error_order(scheme, two_level, _per_point(np.sin, 1), *args)
        assert max(abs(a - b) for a, b in zip(fit.errors, per_point.errors)) == 0.0


def _qubit() -> ControlSystem:
    return ControlSystem(drift=SIGMA_Z, controls=(SIGMA_X,))


def _four_pulses() -> PWMSequence:
    return PWMSequence(tau=0.5, amplitudes=[1.0], widths=[[0.1, -0.2, 0.3, 0.0]])


@pytest.mark.parametrize("call, error, named", [
    pytest.param(lambda s: expm_hermitian(np.ones((2, 3)), 0.1), ValueError,
                 "square matrix, got shape (2, 3)", id="expm-non-square"),
    pytest.param(lambda s: expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1), ValueError,
                 "matrix is not Hermitian", id="expm-non-hermitian"),
    pytest.param(lambda s: frame_from_widths(np.zeros((2, 2)), 0.5), ValueError,
                 "widths must be one-dimensional", id="frame-two-dimensional-widths"),
    pytest.param(lambda s: step_pwc(s, [0.1, 0.2], 0.5), ValueError,
                 "expected 1 control values", id="step-pwc-value-count"),
    pytest.param(lambda s: step_spo(s, [0.1, 0.2], 0.5), ValueError,
                 "expected 1 control values", id="step-spo-value-count"),
    pytest.param(lambda s: step_pwm_higher(s, [1.0], _four_pulses(), 5, 2), ValueError,
                 "subinterval index m must be in 1..4, got 5", id="higher-m-out-of-range"),
    pytest.param(lambda s: step_pwm_higher(s, [1.0], np.sin, 1.5, 2, tau=0.1), ValueError,
                 "subinterval index m must be an integer, got 1.5", id="higher-fractional-m"),
    pytest.param(lambda s: step_pwm_higher(s, [1.0], np.sin, 0, 2, tau=0.1), ValueError,
                 "subinterval index m must be at least 1, got 0", id="higher-field-m-zero"),
    pytest.param(lambda s: step_pwm_higher(s, [1.0], np.sin, 1, 2), ValueError,
                 "tau is required with a field source", id="higher-field-without-tau"),
    pytest.param(lambda s: evolve(s, "pwmx", _four_pulses()), ValueError,
                 "unknown scheme 'pwmx'", id="scheme-pwmx"),
    pytest.param(lambda s: evolve(s, "pwc", _four_pulses(), tau=0.5), ValueError,
                 "scheme 'pwc' requires a SampledField input", id="pwc-from-a-sequence"),
    pytest.param(lambda s: evolve(s, "pwm", SampledField(dt=0.25, values=[[0.1, 0.2]]),
                                  tau=0.5), ValueError,
                 "scheme 'pwm' with a field input requires amplitudes", id="pwm-field-no-xi"),
    pytest.param(lambda s: error_order("pwm", s, np.sin, [0.2, 0.1]), ValueError,
                 "scheme 'pwm' requires amplitudes", id="error-order-without-amplitudes"),
    pytest.param(lambda s: error_order("pwc", s, np.sin, [0.2]), ValueError,
                 "need at least two tau values", id="error-order-one-tau"),
])
def test_bad_input_raises_naming_it(call, error, named):
    with pytest.raises(error) as info:
        call(_qubit())
    assert info.type is error and named in str(info.value)


def test_library_unitarity_defect_is_the_frobenius_norm_of_the_gram_deviation():
    """The library's helper, not this module's largest-entry ``unitarity_defect``."""
    assert propagate.unitarity_defect(np.array([[0.0, 1.0j], [1.0, 0.0]])) == 0.0
    a = np.array([[1.0, 0.5j], [0.2, 2.0]])  # U^dag U - I = [[0.04, 0.4+0.5i], [0.4-0.5i, 3.25]]
    expected = np.sqrt(0.04**2 + 2 * (0.4**2 + 0.5**2) + 3.25**2)
    assert propagate.unitarity_defect(a) == pytest.approx(expected, rel=1e-14)
