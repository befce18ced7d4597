import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pwmctrl import grape, propagate
from pwmctrl.grape import (
    GrapeOptions,
    GrapeProblem,
    GrapeResult,
    gradient,
    infidelity,
    objective,
    optimize,
    optimize_pwc,
    random_initial_widths,
    run_fig5_benchmark,
    ten_level_problem,
    _Engine,
    _pwm_engine,
    _sweep,
)
from pwmctrl.model import ControlSystem, basis_state
from pwmctrl.propagate import (
    HamiltonianCache,
    _chain,
    _level_rows,
    _PwcKernel,
    _PwmKernel,
    frame_from_widths,
    step_pwm,
)

from conftest import SIGMA_X, non_hermitian_ten_level, random_hermitian


def two_level_problem(total_time: float = 5.0, tau: float = 0.25) -> GrapeProblem:
    from conftest import SIGMA_Z

    system = ControlSystem(drift=SIGMA_Z, controls=(SIGMA_X,))
    return GrapeProblem(
        system=system,
        psi_initial=basis_state(2, 0),
        psi_target=basis_state(2, 1),
        total_time=total_time,
        tau=tau,
        amplitudes=np.array([1.0]),
    )


def pwc_engine(problem: GrapeProblem) -> _Engine:
    return _Engine(problem, _PwcKernel(problem.system, problem.n_steps))


def random_problem(rng, dim: int, k_count: int, total_time: float, tau: float) -> GrapeProblem:
    system = ControlSystem(
        drift=random_hermitian(dim, rng),
        controls=tuple(random_hermitian(dim, rng) for _ in range(k_count)),
    )
    return GrapeProblem(
        system=system,
        psi_initial=basis_state(dim, 0),
        psi_target=basis_state(dim, dim - 1),
        total_time=total_time,
        tau=tau,
        amplitudes=np.linspace(1.0, 1.5, k_count),
    )


def finite_difference(problem: GrapeProblem, widths: np.ndarray, h: float = 2e-5):
    fd = np.zeros_like(widths)
    for k in range(widths.shape[0]):
        for m in range(widths.shape[1]):
            up, dn = widths.copy(), widths.copy()
            up[k, m] += h
            dn[k, m] -= h
            fd[k, m] = (objective(problem, up) - objective(problem, dn)) / (2 * h)
    return fd


class TestProblemValidation:
    def test_rejects_unnormalized_state(self, two_level):
        with pytest.raises(ValueError, match="normalized"):
            GrapeProblem(
                system=two_level,
                psi_initial=np.array([1.0, 1.0]),
                psi_target=basis_state(2, 1),
                total_time=1.0,
                tau=0.5,
                amplitudes=np.array([1.0]),
            )

    def test_rejects_wrong_state_dimension(self, two_level):
        with pytest.raises(ValueError, match="dimension"):
            GrapeProblem(
                system=two_level,
                psi_initial=basis_state(3, 0),
                psi_target=basis_state(3, 1),
                total_time=1.0,
                tau=0.5,
                amplitudes=np.array([1.0]),
            )

    def test_rejects_non_integer_step_count(self, two_level):
        """A fractional step count, and one that is not finite: infinite,
        NaN, or overflowing ``total_time / tau``."""
        for total_time, tau in ((1.0, 0.3), (math.inf, 0.1), (math.nan, 0.1), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="integer number"):
                GrapeProblem(
                    system=two_level,
                    psi_initial=basis_state(2, 0),
                    psi_target=basis_state(2, 1),
                    total_time=total_time,
                    tau=tau,
                    amplitudes=np.array([1.0]),
                )

    def test_rejects_non_positive_tau(self, two_level):
        with pytest.raises(ValueError, match="tau"):
            GrapeProblem(
                system=two_level,
                psi_initial=basis_state(2, 0),
                psi_target=basis_state(2, 1),
                total_time=1.0,
                tau=0.0,
                amplitudes=np.array([1.0]),
            )

    def test_rejects_non_hermitian_system(self):
        system = non_hermitian_ten_level()
        with pytest.raises(ValueError, match="not Hermitian"):
            GrapeProblem(
                system=system,
                psi_initial=basis_state(10, 0),
                psi_target=basis_state(10, 3),
                total_time=1.0,
                tau=0.1,
                amplitudes=np.array([1.0]),
            )

    def test_step_and_control_counts(self):
        problem = two_level_problem(total_time=5.0, tau=0.25)
        assert problem.n_steps == 20
        assert problem.n_controls == 1


class TestOptionsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"initial_step": 0.0},
            {"tolerance": 0.0},
            {"tolerance": 1.0},
            {"width_bound": -0.1},
            {"initial_step": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GrapeOptions(**kwargs)


class TestObjective:
    def test_matches_pwm_propagator_infidelity(self, rng):
        """Against the frame-by-frame product of ``step_pwm``, which shares
        no code with the batched kernel."""
        problem = ten_level_problem(total_time=1.0)
        widths = random_initial_widths(problem, rng)
        u = np.eye(problem.system.dim)
        for m in range(problem.n_steps):
            frame = frame_from_widths(widths[:, m], problem.tau)
            u = step_pwm(problem.system, problem.amplitudes, frame) @ u
        expected = infidelity(u, problem.psi_initial, problem.psi_target)
        assert objective(problem, widths) == pytest.approx(expected, abs=1e-14)

    def test_rejects_wrong_shape(self):
        problem = two_level_problem()
        with pytest.raises(ValueError, match="shape"):
            objective(problem, np.zeros((1, 3)))

    def test_rejects_non_finite_widths(self):
        problem = two_level_problem()
        bad = np.zeros((1, problem.n_steps))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            objective(problem, bad)


class TestWidthBound:
    def test_objective_and_gradient_reject_widths_beyond_tau(self):
        problem = ten_level_problem(total_time=1.0)
        widths = np.full((1, problem.n_steps), 0.5 * problem.tau)
        widths[0, 2] = 1.5 * problem.tau
        for fn in (objective, gradient):
            with pytest.raises(ValueError, match=r"exceeds tau.*k=0, subinterval m=3"):
                fn(problem, widths)

    def test_width_within_tolerance_counts_as_tau(self):
        problem = two_level_problem()
        at_tau = np.full((1, problem.n_steps), problem.tau)
        assert objective(problem, at_tau * (1 + 5e-10)) == objective(problem, at_tau)

    def test_optimize_rejects_bound_or_start_beyond_tau(self):
        problem = two_level_problem()
        for fn in (optimize, optimize_pwc):
            with pytest.raises(ValueError, match="width_bound"):
                fn(problem, options=GrapeOptions(width_bound=2 * problem.tau))
        too_wide = np.full((1, problem.n_steps), 1.5 * problem.tau)
        with pytest.raises(ValueError, match="exceeds tau"):
            optimize(problem, init_widths=too_wide)

    def test_optimize_pwc_rejects_a_start_beyond_the_amplitudes(self):
        """A field start beyond xi is rejected by the check of a width start
        beyond tau, not silently clipped to the bound; a start at xi within
        the 1e-9 tolerance runs."""
        problem = two_level_problem()
        too_strong = np.full((1, problem.n_steps), 0.1)
        too_strong[0, 2] = 5.0
        with pytest.raises(ValueError, match=r"exceeds tau.*k=0, subinterval m=3"):
            optimize_pwc(problem, init_field=too_strong)
        near, at = (
            optimize_pwc(problem, init_field=np.full((1, problem.n_steps), value),
                         options=GrapeOptions(max_iterations=1))
            for value in (1.0 + 5e-10, 1.0)
        )
        assert near.trace[0] == at.trace[0]


class TestBatchedKernel:
    @pytest.mark.parametrize(
        "k_count, drift_spectrum",
        [(1, None), (2, None), (3, None), (4, None), (2, [1.0, 1.0, 1.0, -0.5])],
        ids=["1", "2", "3", "4", "degenerate-drift"],
    )
    def test_steps_match_frame_by_frame(self, rng, k_count, drift_spectrum):
        """Negative and zero widths, a full-width pulse and exact ties, in
        forward and backward windows.  The last input's drift has a
        threefold eigenvalue in a random basis, so its eigenvectors are not
        unique."""
        assert_steps_match_step_pwm(*kernel_input(rng, k_count, drift_spectrum, 10))

    @given(
        k_count=st.integers(1, 3),
        dim=st.integers(2, 12),
        m_count=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        forced=st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]), max_size=4),
    )
    def test_steps_are_unitary_and_match_step_pwm(self, k_count, dim, m_count, seed, forced):
        """Random systems with exact ties, zeros and full-width pulses forced
        into the first subintervals, in forward and backward windows."""
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, dim, k_count, total_time=0.2 * m_count, tau=0.2)
        widths = rng.uniform(-0.2, 0.2, size=(k_count, m_count))
        for i, value in enumerate(forced):
            widths[:, i % m_count] = 0.2 * value * np.where(rng.random(k_count) < 0.5, 1, -1)
        unit = np.eye(dim)
        for steps in assert_steps_match_step_pwm(problem, widths):
            assert np.max(np.abs(steps @ steps.conj().transpose(0, 2, 1) - unit)) <= 1e-12

    @pytest.mark.parametrize(
        "k_count, drift_spectrum",
        [(1, None), (2, None), (3, None), (2, [1.0, 1.0, 1.0, -0.5])],
        ids=["1", "2", "3", "degenerate-drift"],
    )
    def test_one_layout_matches_one_row_layouts(self, rng, k_count, drift_spectrum):
        """The same widths filled as one M-row layout and as M one-row
        layouts (product route) agree to 1e-13, with negative and zero
        widths, full-width pulses and exact ties, in forward and backward
        windows.  At K = 1 the M-row layout takes the spectral route; at
        K >= 2 both take the product route, M = 120 over up to the 24 inner
        slots that K = 3 can reach."""
        problem, widths = kernel_input(rng, k_count, drift_spectrum, 120)
        cache = HamiltonianCache(problem.system, problem.amplitudes)
        whole, single = _PwmKernel(cache, problem.n_steps), _PwmKernel(cache, 1)
        for length in (problem.tau, -problem.tau):
            steps = whole.fill(whole.layout(widths, length))
            assert (whole._spectral is not None) == (k_count == 1)
            for m in range(problem.n_steps):
                step = single.fill(single.layout(widths[:, m : m + 1], length))[0]
                assert single._spectral is None
                assert np.max(np.abs(steps[m] - step)) <= 1e-13

    @pytest.mark.parametrize("k_count", [1])
    def test_engine_agrees_across_routes(self, rng, monkeypatch, k_count):
        """J and the gradient of the spectral route against the product
        route, forced by the route rule, to 1e-12 relative."""
        problem = random_problem(rng, 4, k_count, total_time=24.0, tau=0.2)
        widths = random_initial_widths(problem, rng)
        engine = _pwm_engine(problem)
        value, point = engine.evaluate(widths)
        grad = engine.gradient(point)[0]
        assert engine.kernel._spectral is not None
        monkeypatch.setattr(propagate, "_table_degree", lambda bandwidth, rows, dim: None)
        engine = _pwm_engine(problem)
        expected, point = engine.evaluate(widths)
        expected_grad = engine.gradient(point)[0]
        assert engine.kernel._spectral is None
        assert value == pytest.approx(expected, rel=1e-12)
        assert np.max(np.abs(grad - expected_grad)) <= 1e-12 * np.max(np.abs(expected_grad))

    def test_route_rule_boundary(self, rng):
        """A K = 1 fill takes the spectral route at ``rows = 2N``, with one
        sign or both, and the product route one row fewer, with the same
        steps."""
        problem = random_problem(rng, 4, 1, total_time=1.6, tau=0.2)
        widths = np.array([[0.1, -0.1, 0.15, -0.05, 0.02, -0.12, 0.18, -0.07]])
        kernel = _PwmKernel(HamiltonianCache(problem.system, problem.amplitudes), 8)
        layout = kernel.layout(widths, problem.tau)
        assert len(np.unique(layout.slots[-1])) == 2
        at = kernel.fill(layout).copy()
        assert kernel._spectral is not None
        below = kernel.fill(kernel.layout(widths[:, :7], problem.tau))
        assert kernel._spectral is None
        assert np.max(np.abs(below - at[:7])) <= 1e-13
        one_sign = kernel.layout(np.abs(widths), problem.tau)
        assert len(np.unique(one_sign.slots[-1])) == 1
        kernel.fill(one_sign)
        assert kernel._spectral is not None
        kernel.fill(kernel.layout(np.abs(widths[:, :7]), problem.tau))
        assert kernel._spectral is None


def kernel_input(rng, k_count: int, drift_spectrum, m_count: int):
    """A random N = 4 problem of ``m_count`` steps, with its drift's spectrum
    replaced by ``drift_spectrum`` unless that is ``None``, and its widths:
    negative and zero widths, a full-width pulse and exact ties."""
    problem = random_problem(rng, 4, k_count, total_time=0.2 * m_count, tau=0.2)
    if drift_spectrum is not None:
        u, _ = np.linalg.qr(random_hermitian(4, rng) + 1j * np.eye(4))
        drift = u @ np.diag(drift_spectrum) @ u.conj().T
        drift = (drift + drift.conj().T) / 2
        system = ControlSystem(drift=drift, controls=problem.system.controls)
        problem = dataclasses.replace(problem, system=system)
    widths = rng.uniform(-0.2, 0.2, size=(k_count, problem.n_steps))
    widths[:, 0] = 0.0
    widths[0, 1] = 0.0
    widths[0, 2] = -0.2
    widths[:, 3] = 0.1
    if k_count > 1:
        widths[1, 4] = -widths[0, 4]
    return problem, widths


def assert_steps_match_step_pwm(problem: GrapeProblem, widths: np.ndarray) -> list[np.ndarray]:
    """The kernel's steps for windows of length ``tau`` agree with
    ``step_pwm`` frame by frame to 1e-12, and for length ``-tau`` with its
    inverse ``step_pwm(...).conj().T``."""
    kernel = _PwmKernel(HamiltonianCache(problem.system, problem.amplitudes), problem.n_steps)
    v0 = kernel.v0
    forward, backward = [
        v0 @ kernel.fill(kernel.layout(widths, length)) @ v0.conj().T
        for length in (problem.tau, -problem.tau)
    ]
    for m in range(problem.n_steps):
        frame = frame_from_widths(widths[:, m], problem.tau)
        expected = step_pwm(problem.system, problem.amplitudes, frame)
        assert np.max(np.abs(forward[m] - expected)) <= 1e-12
        assert np.max(np.abs(backward[m] - expected.conj().T)) <= 1e-12
    return [forward, backward]


def sequential_sweep(steps, psi_initial, psi_target):
    """Kets and bras at every subinterval boundary, one step at a time."""
    phi = [psi_initial]
    for step in steps:
        phi.append(step @ phi[-1])
    chi = [psi_target.conj()]
    for step in steps[::-1]:
        chi.append(chi[-1] @ step)
    return np.array(phi), np.array(chi[::-1]), np.vdot(psi_target, phi[-1])


class TestSweep:
    @pytest.mark.parametrize("m_count", [1, 2, 3, 5, 8, 1000])
    @pytest.mark.parametrize("scheme", ["pwm", "pwc"])
    def test_down_sweep_matches_sequential_sweep(self, rng, m_count, scheme):
        """One step, odd carried nodes at every level (3, 5, 1000) and full
        binary trees (2, 8), on both engines' step stacks."""
        problem = random_problem(rng, 6, 2, total_time=0.2 * m_count, tau=0.2)
        widths = random_initial_widths(problem, rng)
        if scheme == "pwm":
            kernel = _PwmKernel(HamiltonianCache(problem.system, problem.amplitudes), m_count)
        else:
            kernel = _PwcKernel(problem.system, m_count)
        steps = kernel.fill(kernel.layout(widths, problem.tau))
        n = problem.system.dim
        levels = _chain(steps, np.empty((_level_rows(m_count), n, n), dtype=np.complex128))
        phi, chi = (
            np.empty((m_count + 1 + _level_rows(m_count), n), dtype=np.complex128)
            for _ in range(2)
        )
        psi_i, psi_f = problem.psi_initial, problem.psi_target
        phi, chi, overlap = _sweep(levels, psi_i, psi_f, phi, chi)
        expected = sequential_sweep(steps, psi_i, psi_f)
        assert np.max(np.abs(phi - expected[0])) <= 1e-13
        assert np.max(np.abs(chi - expected[1])) <= 1e-13
        assert abs(overlap - expected[2]) <= 1e-13


class TestGradient:
    def test_closed_form_single_rotation(self):
        """Zero drift, one sigma_x control: J = cos^2(sum w), so every entry of
        the gradient equals -sin(2 sum w)."""
        system = ControlSystem(drift=np.zeros((2, 2), dtype=complex), controls=(SIGMA_X,))
        problem = GrapeProblem(
            system=system,
            psi_initial=basis_state(2, 0),
            psi_target=basis_state(2, 1),
            total_time=3.0,
            tau=1.0,
            amplitudes=np.array([1.0]),
        )
        widths = np.array([[0.3, 0.55, -0.2]])
        total = widths.sum()
        assert objective(problem, widths) == pytest.approx(np.cos(total) ** 2, abs=1e-12)
        grad = gradient(problem, widths)
        assert np.allclose(grad, -np.sin(2 * total), atol=1e-12)

    def test_finite_difference_ten_level(self, rng):
        problem = ten_level_problem(total_time=1.0)
        widths = random_initial_widths(problem, rng)
        grad = gradient(problem, widths)
        fd = finite_difference(problem, widths)
        assert np.max(np.abs(grad - fd)) <= np.maximum(1e-6 * np.abs(fd), 1e-9).max()

    def test_finite_difference_two_controls(self, rng):
        system = ControlSystem(
            drift=random_hermitian(3, rng),
            controls=(random_hermitian(3, rng), random_hermitian(3, rng)),
        )
        psi = np.zeros(3, dtype=complex)
        psi[0] = 1.0
        target = np.zeros(3, dtype=complex)
        target[2] = 1.0
        problem = GrapeProblem(
            system=system,
            psi_initial=psi,
            psi_target=target,
            total_time=1.0,
            tau=0.2,
            amplitudes=np.array([1.0, 1.5]),
        )
        widths = random_initial_widths(problem, rng)
        grad = gradient(problem, widths)
        fd = finite_difference(problem, widths)
        assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)) <= 1e-5

    def test_finite_difference_three_controls(self, rng):
        """Criterion 06's gate, max(1e-6 |fd|, 1e-10), on a K = 3 system."""
        problem = random_problem(rng, 5, 3, total_time=1.0, tau=0.2)
        widths = random_initial_widths(problem, rng)
        grad = gradient(problem, widths)
        fd = finite_difference(problem, widths)
        assert np.all(np.abs(grad - fd) <= np.maximum(1e-6 * np.abs(fd), 1e-10))

    def test_handed_over_point_gives_the_same_gradient(self, rng):
        """The gradient at the layout ``evaluate`` returned, after another
        evaluation in between, equals a stand-alone ``gradient`` bit for bit."""
        problem = random_problem(rng, 5, 3, total_time=2.0, tau=0.2)
        widths = random_initial_widths(problem, rng)
        engine = _pwm_engine(problem)
        value, point = engine.evaluate(widths)
        held, value_at = engine.gradient(point)
        assert value_at == pytest.approx(value, abs=1e-14)
        assert np.array_equal(held, gradient(problem, widths))
        engine.evaluate(random_initial_widths(problem, rng))
        assert np.array_equal(engine.gradient(point)[0], held)

    def test_pwc_handed_over_point_gives_the_same_gradient(self, rng):
        """The baseline's gradient at the step stack ``evaluate`` returned
        equals a fresh engine's bit for bit, also after another evaluation
        has overwritten the levels in between."""
        problem = random_problem(rng, 5, 3, total_time=2.0, tau=0.2)
        field = rng.uniform(-0.5, 0.5, size=(3, problem.n_steps))
        engine = pwc_engine(problem)
        value, point = engine.evaluate(field)
        held, value_at = engine.gradient(point)
        assert value_at == pytest.approx(value, abs=1e-14)
        assert np.array_equal(held, pwc_engine(problem).gradient(point)[0])
        engine.evaluate(rng.uniform(-0.5, 0.5, size=field.shape))
        assert np.array_equal(engine.gradient(point)[0], held)

    @pytest.mark.parametrize("k_count", [1, 3])
    def test_pwc_gradient_matches_the_first_order_formula(self, rng, k_count):
        """The baseline's gradient is ``-2 Re(conj(c) dc)`` with ``dc[k, m] =
        -i tau <chi_m| H_k |phi_m>`` at the boundary after step m, here from
        a step-by-step sweep and an explicit loop over m and k."""
        problem = random_problem(rng, 5, k_count, total_time=1.6, tau=0.2)
        field = rng.uniform(-0.5, 0.5, size=(k_count, problem.n_steps))
        engine = pwc_engine(problem)
        grad = engine.gradient(engine.evaluate(field)[1])[0]
        kernel = _PwcKernel(problem.system, problem.n_steps)
        steps = kernel.fill(kernel.layout(field, problem.tau))
        phi, chi, overlap = sequential_sweep(steps, problem.psi_initial, problem.psi_target)
        expected = np.empty_like(field)
        for m in range(problem.n_steps):
            for k, control in enumerate(problem.system.controls):
                dc = -1j * problem.tau * (chi[m + 1] @ control @ phi[m + 1])
                expected[k, m] = -2.0 * np.real(np.conj(overlap) * dc)
        assert np.max(np.abs(grad - expected)) <= 1e-12

    def test_pwc_gradient_on_the_table_route_matches_the_first_order_formula(self, rng):
        """``K = 1`` with 8 rows at N = 3, at least 2N, so the steps come from
        the kernel's Chebyshev table; the gradient is the same first-order rule."""
        problem = random_problem(rng, 3, 1, total_time=1.6, tau=0.2)
        field = rng.uniform(-0.5, 0.5, size=(1, problem.n_steps))
        engine = pwc_engine(problem)
        grad = engine.gradient(engine.evaluate(field)[1])[0]
        assert engine.kernel._chebyshev
        steps = engine.kernel.fill(engine.kernel.layout(field, problem.tau)).copy()
        phi, chi, overlap = sequential_sweep(steps, problem.psi_initial, problem.psi_target)
        expected = np.empty_like(field)
        for m in range(problem.n_steps):
            dc = -1j * problem.tau * (chi[m + 1] @ problem.system.controls[0] @ phi[m + 1])
            expected[0, m] = -2.0 * np.real(np.conj(overlap) * dc)
        assert np.max(np.abs(grad - expected)) <= 1e-12

    @given(
        k_count=st.integers(1, 3),
        dim=st.integers(2, 12),
        m_count=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_directional_central_difference(self, k_count, dim, m_count, seed):
        """The multi-control benchmark's gate along a random unit direction:
        step 1e-6 tau, error at most 1e-5 max(|exact|, 1e-3).  Random
        starts have no ties or zero widths, so J is smooth around them."""
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, dim, k_count, total_time=0.2 * m_count, tau=0.2)
        widths = random_initial_widths(problem, rng)
        direction = rng.standard_normal(widths.shape)
        direction /= np.linalg.norm(direction)
        h = 1e-6 * problem.tau
        up, down = (objective(problem, widths + s * h * direction) for s in (1, -1))
        exact = float(np.sum(gradient(problem, widths) * direction))
        assert abs((up - down) / (2 * h) - exact) <= 1e-5 * max(abs(exact), 1e-3)

    def test_warns_on_zero_width(self):
        problem = two_level_problem()
        widths = np.full((1, problem.n_steps), 0.1)
        widths[0, 4] = 0.0
        with pytest.warns(UserWarning, match="one-sided"):
            gradient(problem, widths)

    def test_warns_on_exact_sorting_tie(self, rng):
        system = ControlSystem(
            drift=random_hermitian(3, rng),
            controls=(random_hermitian(3, rng), random_hermitian(3, rng)),
        )
        problem = GrapeProblem(
            system=system,
            psi_initial=basis_state(3, 0),
            psi_target=basis_state(3, 2),
            total_time=1.0,
            tau=0.5,
            amplitudes=np.array([1.0, 1.0]),
        )
        widths = np.array([[0.2, 0.3], [-0.2, 0.1]])
        with pytest.warns(UserWarning, match="tie"):
            gradient(problem, widths)


class TestAllocation:
    @pytest.mark.parametrize(
        "engine_type", [_pwm_engine, pwc_engine], ids=["_PwmEngine", "_PwcEngine"]
    )
    def test_steady_state_calls_allocate_less_than_one_step_stack(self, engine_type):
        """After warm-up, the ten-level engines' ``evaluate`` and ``gradient``
        each peak below one (M, N, N) complex stack of fresh memory: the
        stacks they work in are their own."""
        problem = ten_level_problem()
        rng = np.random.default_rng(5)
        params = (random_initial_widths if engine_type is _pwm_engine else grape._random_field)(
            problem, rng
        )
        engine = engine_type(problem)
        for _ in range(2):
            engine.gradient(engine.evaluate(params)[1])
        tracemalloc.start()
        try:
            point = engine.evaluate(params)[1]
            evaluate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            engine.gradient(point)
            gradient_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = 16 * problem.system.dim**2 * problem.n_steps
        assert evaluate_peak < stack
        assert gradient_peak < stack


class TestRandomInitialWidths:
    def test_widths_stay_in_half_cell(self, rng):
        problem = ten_level_problem(total_time=2.0)
        for _ in range(10):
            w = random_initial_widths(problem, rng)
            assert w.shape == (problem.n_controls, problem.n_steps)
            assert np.all(np.abs(w) <= 0.5 * problem.tau / problem.amplitudes[:, None])

    def test_low_amplitude_starts_stay_within_tau(self, monkeypatch):
        """At xi = 0.25 a uniform(-0.5, 0.5) field would need widths up to
        2 tau; the default starts of both optimizers stay unclipped and
        carry the same subinterval areas."""
        problem = dataclasses.replace(ten_level_problem(total_time=2.0), amplitudes=[0.25])
        starts = []

        def record_start(evaluate, grad_fn, params, bound, options):
            starts.append(params)

        monkeypatch.setattr(grape, "_descend", record_start)
        options = GrapeOptions(rng_seed=4)
        optimize(problem, options=options)
        optimize_pwc(problem, options=options)
        widths, eps = starts
        assert np.array_equal(
            widths, random_initial_widths(problem, np.random.default_rng(4))
        )
        assert np.max(np.abs(widths)) < problem.tau
        assert np.allclose(eps * problem.tau, 0.25 * widths, rtol=1e-15, atol=0)


class TestOptimize:
    def test_converges_on_two_level_transfer(self):
        problem = two_level_problem()
        result = optimize(problem, options=GrapeOptions(rng_seed=7))
        assert isinstance(result, GrapeResult)
        assert result.converged
        assert result.trace[-1] <= 1e-3
        assert np.all(np.diff(result.trace) < 0)
        assert np.all(np.abs(result.widths) <= problem.tau + 1e-15)
        assert result.iterations == result.trace.size - 1

    def test_same_seed_reproduces_result(self):
        problem = two_level_problem()
        a = optimize(problem, options=GrapeOptions(rng_seed=3))
        b = optimize(problem, options=GrapeOptions(rng_seed=3))
        assert np.array_equal(a.widths, b.widths)
        assert np.array_equal(a.trace, b.trace)

    def test_respects_tight_width_bound(self):
        problem = two_level_problem()
        options = GrapeOptions(rng_seed=7, width_bound=0.05, max_iterations=50)
        result = optimize(problem, options=options)
        assert np.all(np.abs(result.widths) <= 0.05 + 1e-15)

    def test_explicit_start_is_used(self):
        problem = two_level_problem()
        start = np.zeros((1, problem.n_steps))
        start[0, :] = 0.01
        result = optimize(problem, init_widths=start, options=GrapeOptions(max_iterations=1))
        assert result.trace[0] == pytest.approx(objective(problem, start), abs=1e-14)


    def test_final_widths_reproduce_the_last_trace_value(self):
        problem = ten_level_problem(total_time=10.0)
        result = optimize(problem, options=GrapeOptions(rng_seed=2, max_iterations=20))
        assert result.iterations > 0
        assert objective(problem, result.widths) == result.trace[-1]


class TestStopReason:
    @pytest.mark.parametrize("fn", [optimize, optimize_pwc])
    def test_tolerance(self, fn):
        result = fn(two_level_problem(), options=GrapeOptions(rng_seed=7))
        assert result.converged
        assert result.stop_reason == "tolerance"

    @pytest.mark.parametrize("fn", [optimize, optimize_pwc])
    def test_max_iterations(self, fn):
        result = fn(ten_level_problem(total_time=10.0), options=GrapeOptions(max_iterations=2))
        assert not result.converged
        assert result.iterations == 2
        assert result.stop_reason == "max_iterations"

    def test_line_search_stall_at_the_width_bound(self, monkeypatch):
        """Zero drift, one sigma_x control: J = cos^2(sum w) decreases as the
        widths grow, but they start at the bound, so no step is accepted and
        the line search stops at the first trial instead of halving on."""
        system = ControlSystem(drift=np.zeros((2, 2), dtype=complex), controls=(SIGMA_X,))
        problem = GrapeProblem(
            system=system,
            psi_initial=basis_state(2, 0),
            psi_target=basis_state(2, 1),
            total_time=3.0,
            tau=1.0,
            amplitudes=np.array([1.0]),
        )
        start = np.full((1, 3), 0.2)
        evaluations = []
        evaluate = _Engine.evaluate
        monkeypatch.setattr(
            _Engine, "evaluate", lambda engine, w: evaluations.append(w) or evaluate(engine, w)
        )
        result = optimize(problem, init_widths=start, options=GrapeOptions(width_bound=0.2))
        assert result.stop_reason == "line_search_stall"
        assert len(evaluations) == 1  # the start; the clipped trial equals it and is not evaluated
        assert result.iterations == 0
        assert not result.converged
        assert np.array_equal(result.widths, start)

    def test_zero_gradient(self):
        result = grape._descend(
            lambda p: (0.5, p), lambda p: (np.zeros_like(p), 0.5), np.ones((1, 4)), 1.0,
            GrapeOptions(),
        )
        assert (result.trace.tolist(), result.iterations) == ([0.5], 0)
        assert result.stop_reason == "zero_gradient"


class TestDescend:
    """The projected L-BFGS descent on objectives given as plain functions."""

    @staticmethod
    def box_quadratic(rng, n=40, bound=1.0):
        """``f(x) = (x - c)^T A (x - c) / 2`` whose box minimizer ``x_star``
        has a quarter of its coordinates at ``±bound``: there the gradient
        points out of the box, elsewhere it vanishes."""
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ np.diag(np.geomspace(1.0, 100.0, n)) @ q.T
        x_star = rng.uniform(-0.5 * bound, 0.5 * bound, n)
        active = rng.permutation(n)[: n // 4]
        x_star[active] = bound * rng.choice([-1.0, 1.0], active.size)
        g_star = np.zeros(n)
        g_star[active] = -np.sign(x_star[active]) * rng.uniform(0.5, 2.0, active.size)
        c = x_star - np.linalg.solve(a, g_star)

        def f(x):
            r = x.ravel() - c
            return 0.5 * r @ a @ r

        return f, (lambda x: (a @ (x.ravel() - c)).reshape(x.shape)), x_star, active

    def test_reaches_the_projected_minimizer_of_a_box_quadratic(self, rng):
        bound = 1.0
        f, grad, x_star, active = self.box_quadratic(rng, bound=bound)
        tolerance, offset = 1e-12, f(x_star) - 0.5e-12  # J <= tolerance once f - f* <= 0.5e-12
        calls = []

        def evaluate(x):
            calls.append(x)
            return f(x) - offset, x

        result = grape._descend(
            evaluate, lambda x: (grad(x), f(x) - offset), np.zeros((1, x_star.size)), bound,
            GrapeOptions(tolerance=tolerance, max_iterations=500),
        )
        assert result.stop_reason == "tolerance"
        assert result.evaluations == len(calls)
        assert np.all(np.diff(result.trace) < 0)
        x = result.widths[0]
        assert np.max(np.abs(x - x_star)) < 1e-5
        assert np.array_equal(x[active], x_star[active])  # exactly at ±bound
        # condition number 100: steepest descent would need thousands of steps
        assert result.iterations < 100

    def test_failed_quasi_newton_search_falls_back_to_steepest_descent(self):
        """Every trial of the second iteration that leaves the steepest-descent
        ray is rejected, so its quasi-Newton search fails all the way down.
        The descent drops the memory and takes a doubled steepest-descent
        step; the third iteration's direction then comes from that one pair."""
        scales = np.array([[1.0, 10.0]])
        gradients = []

        def grad_fn(x):
            gradients.append((x, scales * x))
            return scales * x, None

        def evaluate(x):
            value = 0.5 * np.sum(scales * x * x)
            if len(gradients) == 2:
                (d0, d1), (g0, g1) = (x - gradients[1][0])[0], gradients[1][1][0]
                if abs(d0 * g1 - d1 * g0) > 1e-9 * np.hypot(d0, d1) * np.hypot(g0, g1):
                    value = 1e3
            return value, x

        options = GrapeOptions(initial_step=0.01, max_iterations=3, tolerance=1e-9)
        result = grape._descend(evaluate, grad_fn, np.ones((1, 2)), 10.0, options)
        assert result.iterations == 3
        assert result.stop_reason == "max_iterations"
        assert np.all(np.diff(result.trace) < 0)
        (x0, g0), (x1, g1), (x2, g2) = gradients
        assert np.array_equal(x1, x0 - 0.01 * g0)
        assert np.array_equal(x2, x1 - 0.02 * g1)  # steepest descent at twice the step
        # one-pair two-loop recursion from (x1, x2): the pair (x0, x1) was dropped
        s, y = (x2 - x1).ravel(), (g2 - g1).ravel()
        q = g2.ravel() - (s @ g2.ravel()) / (s @ y) * y
        r = (s @ y) / (y @ y) * q
        direction = -(r + s * ((s @ g2.ravel()) - y @ r) / (s @ y))
        assert np.allclose(result.widths.ravel(), x2.ravel() + direction, rtol=1e-12, atol=0)

    def test_steepest_step_doubled_past_the_largest_float_stalls(self):
        """A steepest step accepted at 1e308 doubles to inf.  The next search
        must stop at once: halving inf leaves inf, so a trial that moves but
        does not descend would otherwise be retried forever."""
        start, corner = np.zeros((1, 2)), -np.ones((1, 2))
        calls = []

        def evaluate(x):
            calls.append(x)
            assert len(calls) <= 10, "the search did not stop"
            return (1.0 if np.array_equal(x, start) else 0.5 if np.array_equal(x, corner)
                    else 2.0), x

        def grad_fn(x):
            # at the corner s.y = 0, so no curvature pair: the next step is steepest
            return np.array([[1.0, 1.0]] if np.array_equal(x, start) else [[3.0, -1.0]]), None

        result = grape._descend(evaluate, grad_fn, start, 1.0, GrapeOptions(initial_step=1e308))
        assert result.stop_reason == "line_search_stall"
        assert (result.iterations, result.evaluations) == (1, 2)
        assert np.array_equal(result.widths, corner)

    @pytest.mark.parametrize("values, grad, message", [
        ([math.nan], [[1.0]], "non-finite at the initial point"),
        ([1.0, math.inf], [[1.0]], "objective became non-finite"),
        ([1.0], [[math.nan]], "gradient is non-finite"),
    ])
    def test_non_finite_objective_or_gradient_raises(self, values, grad, message):
        """A NaN or inf is never taken for a decrease or a direction."""
        calls = []

        def evaluate(x):
            calls.append(x)
            return values[min(len(calls), len(values)) - 1], x

        with pytest.raises(grape.OptimizationError, match=message):
            grape._descend(evaluate, lambda x: (np.array(grad), None), np.zeros((1, 1)), 1.0,
                           GrapeOptions())

    def test_evaluations_per_iteration_against_scipy_lbfgsb(self):
        """Seed-2024 fig5 starts 0, 3 and 7, which steepest descent took 384,
        121 and 103 iterations to converge.  The PWM descent converges and
        spends at most three times the objective-plus-gradient evaluations
        that scipy's L-BFGS-B needs on the same engine to reach J <= 1e-3."""
        scipy_optimize = pytest.importorskip("scipy.optimize")
        problem = ten_level_problem()
        seeds = np.random.SeedSequence(2024).spawn(25)
        for run in (0, 3, 7):
            rng = np.random.default_rng(int(seeds[run].generate_state(1)[0]))
            w0 = grape._random_field(problem, rng) * problem.tau / problem.amplitudes[:, None]
            result = optimize(problem, w0)
            assert result.converged
            engine, values = _pwm_engine(problem), []

            def fun(x):
                value, point = engine.evaluate(x.reshape(w0.shape))
                values.append(value)
                if value <= 1e-3:
                    raise StopIteration
                return value, engine.gradient(point)[0].ravel()

            with pytest.raises(StopIteration):
                scipy_optimize.minimize(
                    fun, w0.ravel(), jac=True, method="L-BFGS-B",
                    bounds=[(-problem.tau, problem.tau)] * w0.size,
                )
            assert result.evaluations <= 3 * len(values), (run, result.evaluations, len(values))


class TestOptimizePwc:
    def test_converges_and_respects_amplitude_bound(self):
        problem = two_level_problem()
        result = optimize_pwc(problem, options=GrapeOptions(rng_seed=7))
        assert result.converged
        assert np.all(np.diff(result.trace) < 0)
        # default width bound tau maps to |eps| <= xi
        assert np.all(np.abs(result.widths) <= 1.0 + 1e-15)

    def test_same_seed_reproduces_result(self):
        problem = two_level_problem()
        a = optimize_pwc(problem, options=GrapeOptions(rng_seed=11))
        b = optimize_pwc(problem, options=GrapeOptions(rng_seed=11))
        assert np.array_equal(a.widths, b.widths)


class TestBenchmark:
    def test_smoke_run_on_two_level(self):
        problem = two_level_problem()
        report = run_fig5_benchmark(
            repeats=2, seed=5, problem=problem, peak_targets=(2.0,)
        )
        assert len(report.rows) == 4
        assert sorted({r.scheme for r in report.rows}) == ["pwc", "pwm"]
        pwm_converged = sum(r.converged for r in report.rows if r.scheme == "pwm")
        assert len(report.spectra) == pwm_converged
        assert 0 <= report.peak_hits <= pwm_converged
        for scheme in ("pwm", "pwc"):
            if any(r.converged for r in report.rows if r.scheme == scheme):
                assert np.isfinite(report.median_wall[scheme])
                assert np.isfinite(report.median_iterations[scheme])

    def test_same_seed_reproduces_trajectories(self):
        problem = two_level_problem()
        a = run_fig5_benchmark(repeats=2, seed=5, problem=problem)
        b = run_fig5_benchmark(repeats=2, seed=5, problem=problem)
        key = lambda rep: [(r.run, r.scheme, r.iterations, r.final_j, r.converged) for r in rep.rows]
        assert key(a) == key(b)

    def test_parallel_jobs_give_the_same_rows(self):
        problem = two_level_problem()
        serial = run_fig5_benchmark(repeats=2, seed=5, problem=problem, jobs=1)
        parallel = run_fig5_benchmark(repeats=2, seed=5, problem=problem, jobs=2)
        key = lambda rep: [dataclasses.replace(r, wall_seconds=0.0) for r in rep.rows]
        assert key(parallel) == key(serial)

    def test_each_run_draws_its_seed_when_it_starts(self, monkeypatch):
        """The rows of seed 5 are those of seeds spawned before the call, with
        ``SeedSequence.spawn`` raising inside it: no run waits for all seeds."""
        problem = two_level_problem()
        expected = []
        for run, child in enumerate(np.random.SeedSequence(5).spawn(3)):
            rng = np.random.default_rng(int(child.generate_state(1)[0]))
            eps0 = grape._random_field(problem, rng)
            pwm = optimize(problem, eps0 * problem.tau / problem.amplitudes[:, None])
            for scheme, result in (("pwm", pwm), ("pwc", optimize_pwc(problem, eps0))):
                expected.append((run, scheme, result.iterations, float(result.trace[-1]),
                                 result.converged))

        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("the seeds were spawned up front")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        rows = run_fig5_benchmark(repeats=3, seed=5, problem=problem).rows
        assert [(r.run, r.scheme, r.iterations, r.final_j, r.converged) for r in rows] == expected

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_fig5_benchmark(repeats=0)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_fewer_than_one_job(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_fig5_benchmark(repeats=1, problem=two_level_problem(), jobs=jobs)

    @pytest.mark.parametrize("jobs, repeats, cpus, workers", [
        pytest.param(10**6, 2, 64, 2, id="bounded-by-repeats"),
        pytest.param(10**6, 3, 2, 2, id="bounded-by-cpus"),
        pytest.param(3, 4, 64, 3, id="jobs-within-both"),
    ])
    def test_pool_gets_at_most_repeats_and_cpus_workers(self, monkeypatch, jobs, repeats,
                                                        cpus, workers):
        """A stub pool records its size and maps serially, so no process starts."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        problem = two_level_problem()
        report = run_fig5_benchmark(repeats=repeats, seed=5, problem=problem, jobs=jobs)
        serial = run_fig5_benchmark(repeats=repeats, seed=5, problem=problem)
        assert sizes == [workers]
        key = lambda rep: [dataclasses.replace(r, wall_seconds=0.0) for r in rep.rows]
        assert key(report) == key(serial)

    def test_pool_is_handed_at_most_four_tasks_per_worker_at_a_time(self, monkeypatch):
        """The stub pool records how many tasks each ``map`` call gets."""
        batches = []

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                batches.append(len(tasks))
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        problem = two_level_problem()
        report = run_fig5_benchmark(repeats=10, seed=5, problem=problem, jobs=2)
        serial = run_fig5_benchmark(repeats=10, seed=5, problem=problem)
        assert sum(batches) == 10 and max(batches) <= 4 * 2
        key = lambda rep: [dataclasses.replace(r, wall_seconds=0.0) for r in rep.rows]
        assert key(report) == key(serial)

    def test_one_worker_runs_without_a_pool(self, monkeypatch):
        def no_pool(**kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        report = run_fig5_benchmark(repeats=1, seed=5, problem=two_level_problem(), jobs=4)
        assert len(report.rows) == 2

    def test_package_import_leaves_the_process_pool_unloaded(self):
        paths = [str(Path(grape.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        code = (
            "import sys, pwmctrl; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"
