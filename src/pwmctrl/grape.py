"""Gradient pulse optimization (GRAPE) on top of the PWM propagator.

The optimization variables are the signed pulse widths ``w_k(m)`` of a PWM
sequence, one per control per subinterval, box-constrained to
``[-tau, tau]``.  The state-transfer objective is the infidelity

    J(w) = 1 - |<psi_f| U(M) ... U(1) |psi_i>|^2

and its gradient is exact: inside one subinterval the step propagator is a
palindromic product of cached matrix exponentials whose dwell times are
linear in the sorted widths, so differentiating a width inserts ``-i G``
factors at the affected positions (the sorted order is held fixed during one
gradient evaluation and re-established afterwards).  The only points of
non-differentiability are sorting ties and sign changes at ``w = 0``, where
the derivative is one-sided; a warning is emitted if a gradient is requested
exactly there.  :func:`objective` and :func:`gradient` reject ``|w| > tau``.

Both optimizers run on one engine class, which owns the endpoint states,
the forward/adjoint sweep over the levels of the objective's pairwise
product, :meth:`~_Engine.evaluate` and :meth:`~_Engine.gradient`.  The only
per-scheme code is a step kernel of :mod:`pwmctrl.propagate`, which builds
all M steps at once and differentiates the overlap with respect to its own
parameters; every kernel has the calls ``layout``, ``fill`` and
``overlap_derivative`` and a frame ``v0`` (:class:`_Engine`).  The PWM
kernel, which :func:`~pwmctrl.propagate.evolve` shares, works in the
interaction frame of the drift over cached eigendecompositions and basis
changes.  A step costs ``2K - 1`` batched matrix products, and
each derivative bracket is a diagonal sum over the eigenvalues.  At ``K =
1`` (fig5) a step depends on the one width alone, so all M steps come from
one real GEMM of their Chebyshev basis in the width against a table built
once per kernel, and the gradient from the same GEMM against a second table
of the exact width derivative.  The optimizer
hands the point of each accepted objective value to the gradient, which
reuses what was built for it.

Both optimizers also share one descent, projected L-BFGS on the box (Byrd,
Lu, Nocedal & Zhu 1995): a two-loop recursion over the last ten curvature
pairs gives the direction on the free variables, a halving line search on
the clipped path accepts the first strict decrease, and a failed
quasi-Newton search drops the memory for one steepest-descent step.  But
PWC descends on the field values ``eps`` and PWM on the widths ``w = eps
tau / xi``, ten times smaller on fig5, and the descent is not invariant
under that scale, so the benchmark's wall-time ratio compares descents too.

A piecewise-constant GRAPE baseline (a fresh matrix exponential per
subinterval from the batched PWC kernel, standard first-order gradient) is
included for benchmarking the cached-propagator speedup.  At ``K = 1`` its
steps too come from one real GEMM against a Chebyshev table, in the control
value, so the benchmark compares the two parametrizations, not two kernel
techniques; above one control it is a scaling-and-squaring Taylor polynomial.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import ControlSystem, _check_system, basis_state, build_ten_level_system
from .propagate import HamiltonianCache, _chain, _level_rows, _PwcKernel, _PwmKernel
from .pwm import PWMSequence, Spectrum, dominant_peaks, inverse_pwm_pwc, spectrum
from .pwm import _as_amplitudes, _as_widths, _check_int, _step_count

__all__ = [
    "BenchmarkReport",
    "BenchmarkRow",
    "GrapeOptions",
    "GrapeProblem",
    "GrapeResult",
    "OptimizationError",
    "gradient",
    "infidelity",
    "objective",
    "optimize",
    "optimize_pwc",
    "random_initial_widths",
    "run_fig5_benchmark",
    "ten_level_problem",
]


class OptimizationError(RuntimeError):
    """The objective became non-finite during optimization."""


def infidelity(u: np.ndarray, psi_initial: np.ndarray, psi_target: np.ndarray) -> float:
    """State-transfer infidelity ``1 - |<psi_f|U|psi_i>|^2``."""
    overlap = np.vdot(psi_target, np.asarray(u) @ psi_initial)
    return float(1.0 - abs(overlap) ** 2)


@dataclass(frozen=True, eq=False)
class GrapeProblem:
    """A state-transfer problem on a fixed PWM time grid.

    ``total_time`` must be a finite, positive integer number of subintervals
    ``tau`` (else :class:`~pwmctrl.pwm.GridError`); the endpoint states must be
    normalized and the system must pass ``validate_system`` (else ``ValueError``).
    """

    system: ControlSystem
    psi_initial: np.ndarray
    psi_target: np.ndarray
    total_time: float
    tau: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_system(self.system)
        psi_i = np.asarray(self.psi_initial, dtype=np.complex128).reshape(-1)
        psi_f = np.asarray(self.psi_target, dtype=np.complex128).reshape(-1)
        n = self.system.dim
        if psi_i.shape != (n,) or psi_f.shape != (n,):
            raise ValueError(f"endpoint states must have dimension {n}")
        for name, psi in (("psi_initial", psi_i), ("psi_target", psi_f)):
            if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
                raise ValueError(f"{name} is not normalized")
        count = _step_count(self.total_time, self.tau, ("total_time", "tau"))
        object.__setattr__(self, "_n_steps", count)
        object.__setattr__(self, "psi_initial", psi_i)
        object.__setattr__(self, "psi_target", psi_f)
        object.__setattr__(
            self, "amplitudes", _as_amplitudes(self.amplitudes, self.system.n_controls)
        )

    @property
    def n_steps(self) -> int:
        """The number M of subintervals ``tau`` in ``total_time``."""
        return self._n_steps

    @property
    def n_controls(self) -> int:
        return self.system.n_controls


@dataclass(frozen=True)
class GrapeOptions:
    """Knobs of the projected-gradient optimizer.

    ``width_bound`` defaults to ``tau``, the physical maximum, which
    :func:`optimize` does not let it exceed; widths are clipped to
    ``[-width_bound, +width_bound]`` after every update.  The descent is
    projected L-BFGS: a quasi-Newton search tries the full step first and
    halves until the objective decreases, so the trace is strictly
    decreasing.  ``initial_step`` seeds only the steepest-descent steps,
    taken on the first iteration and whenever the quasi-Newton memory is
    dropped: the first starts at ``initial_step``, each later one at twice
    the previously accepted steepest-descent step.
    """

    max_iterations: int = 2000
    initial_step: float = 1.0
    width_bound: float | None = None
    tolerance: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_int(self.max_iterations, "max_iterations", 1)
        _check_int(self.rng_seed, "rng_seed", 0)
        if not 0 < self.initial_step < math.inf:
            raise ValueError("initial_step must be positive and finite")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.width_bound is not None and not self.width_bound > 0:
            raise ValueError("width_bound must be positive")


@dataclass(frozen=True, eq=False)
class GrapeResult:
    """Optimization outcome.

    ``widths`` holds the optimized parameters: pulse widths for the PWM
    optimizer, subinterval field amplitudes for the piecewise-constant
    baseline.  ``trace`` is the strictly decreasing sequence of objective
    values, starting at the initial point.  ``evaluations`` counts every
    objective evaluation of the descent: the start, each accepted step and
    each rejected line-search trial.  ``stop_reason`` says why the descent
    ended: ``"tolerance"`` (the objective reached ``options.tolerance``),
    ``"zero_gradient"``, ``"line_search_stall"`` (no steepest-descent step
    down to 1e-20 decreased the objective) or ``"max_iterations"``.
    """

    widths: np.ndarray
    trace: np.ndarray
    iterations: int
    evaluations: int
    wall_time: float
    converged: bool
    stop_reason: str


def _random_field(problem: GrapeProblem, rng: np.random.Generator) -> np.ndarray:
    """Uniform random field ``|eps_k| <= min(0.5, xi_k)`` per subinterval.

    The cap at ``xi_k`` keeps the area-matched width ``eps * tau / xi`` within ``tau``.
    """
    bound = np.minimum(0.5, problem.amplitudes)[:, None]
    return rng.uniform(-bound, bound, size=(problem.n_controls, problem.n_steps))


def random_initial_widths(problem: GrapeProblem, rng: np.random.Generator) -> np.ndarray:
    """Widths of a uniform random field ``|eps_k| <= min(0.5, xi_k)`` per subinterval.

    The field value converts to a width by area matching:
    ``w = eps * tau / xi``, so ``|w| <= tau``.
    """
    return _random_field(problem, rng) * problem.tau / problem.amplitudes[:, None]


def _sweep(levels, psi_initial, psi_target, phi, chi):
    """Kets ``phi[t] = U_t ... U_1 |psi_i>`` and bras ``chi[t] = <psi_f| U_M ... U_{t+1}``.

    Down-sweep over the :func:`~pwmctrl.propagate._chain` ``levels`` of the
    steps ``U_1 ... U_M``: a left child starts at its parent's start and a
    right child at ``left sibling @ start``; a right (or carried) child ends
    at its parent's end and a left child at ``end @ right sibling``.  Fills
    ``t = 0 .. M`` in place, the upper levels' states in the rows after
    ``M`` (``M + 1 + _level_rows(M)`` rows each), and returns those ``M + 1``
    rows of each with the overlap ``<psi_f|U|psi_i>``.
    """
    m_count = len(levels[0])
    starts, ends, row = [phi[:m_count]], [chi[1 : m_count + 1]], m_count + 1
    for level in levels[1:]:
        starts.append(phi[row : row + len(level)])
        ends.append(chi[row : row + len(level)])
        row += len(level)
    starts[-1][0] = psi_initial
    ends[-1][0] = psi_target.conj()
    for lower in range(len(levels) - 2, -1, -1):
        children, start, end = levels[lower], starts[lower + 1], ends[lower + 1]
        pairs = len(children) // 2
        starts[lower][0::2] = start
        np.matmul(children[0 : 2 * pairs : 2], start[:pairs, :, None],
                  out=starts[lower][1::2, :, None])
        ends[lower][1::2] = end[:pairs]
        ends[lower][-1] = end[-1]
        np.matmul(end[:pairs, None, :], children[1::2], out=ends[lower][0 : 2 * pairs : 2, None, :])
    top = levels[-1][0]
    np.matmul(top, psi_initial, out=phi[m_count])
    np.matmul(psi_target.conj(), top, out=chi[0])
    return phi[: m_count + 1], chi[: m_count + 1], complex(np.vdot(psi_target, phi[m_count]))


class _Engine:
    """Forward/adjoint passes of one optimizer over any M-row step kernel.

    Every kernel has the same calls: ``layout(params, tau)`` returns the
    point, ``fill(point)`` builds its steps and holds it (``held``),
    ``overlap_derivative(phi, chi)`` differentiates the held point, and
    ``v0`` is the frame, ``None`` for the lab frame.  The engine owns the
    endpoint states mapped by ``v0^dagger``, the sweep states allocated
    once, the levels of the objective's pairwise product, :meth:`evaluate`
    and :meth:`gradient`.
    :meth:`gradient` at a point the kernel still holds reuses its steps and
    the levels :meth:`evaluate` built.
    """

    def __init__(self, problem: GrapeProblem, kernel) -> None:
        self.problem, self.kernel = problem, kernel
        m_count, n, frame = problem.n_steps, problem.system.dim, kernel.v0
        self._psi_initial, self._psi_target = (
            psi if frame is None else frame.conj().T @ psi
            for psi in (problem.psi_initial, problem.psi_target)
        )
        # one allocation for both, as for the kernel's stacks (propagate._carve)
        self._phi, self._chi = np.empty(
            (2, m_count + 1 + _level_rows(m_count), n), dtype=np.complex128
        )
        self._levels: list[np.ndarray] = []

    def evaluate(self, params: np.ndarray):
        """Infidelity at ``params`` and the point :meth:`gradient` takes."""
        point = self.kernel.layout(params, self.problem.tau)
        self._levels = _chain(self.kernel.fill(point), self.kernel.scratch)
        return infidelity(self._levels[-1][0], self._psi_initial, self._psi_target), point

    def gradient(self, point) -> tuple[np.ndarray, float]:
        """Gradient of J and the objective value at ``point``.

        The kernel's steps and the levels are rebuilt unless it holds ``point``.
        """
        if point is not self.kernel.held:
            self._levels = _chain(self.kernel.fill(point), self.kernel.scratch)
        phi, chi, overlap = _sweep(
            self._levels, self._psi_initial, self._psi_target, self._phi, self._chi
        )
        dc = self.kernel.overlap_derivative(phi, chi)
        grad = -2.0 * np.real(np.conj(overlap) * dc)
        return grad, float(1.0 - abs(overlap) ** 2)


def _pwm_engine(problem: GrapeProblem) -> _Engine:
    """The exact-gradient engine over pulse widths: one M-row PWM kernel."""
    return _Engine(
        problem, _PwmKernel(HamiltonianCache(problem.system, problem.amplitudes), problem.n_steps)
    )


def objective(problem: GrapeProblem, widths) -> float:
    """Infidelity of the PWM propagator for the given widths."""
    return _pwm_engine(problem).evaluate(_check_pulse_widths(problem, widths))[0]


def gradient(problem: GrapeProblem, widths) -> np.ndarray:
    """Exact gradient of :func:`objective` with respect to every width."""
    engine = _pwm_engine(problem)
    return engine.gradient(engine.evaluate(_check_pulse_widths(problem, widths))[1])[0]


def _check_widths(problem: GrapeProblem, widths) -> np.ndarray:
    w = np.asarray(widths, dtype=np.float64)
    expected = (problem.n_controls, problem.n_steps)
    if w.shape != expected:
        raise ValueError(f"widths must have shape {expected}, got {w.shape}")
    return w


def _check_pulse_widths(problem: GrapeProblem, widths) -> np.ndarray:
    """Validated pulse widths; ``|w| <= tau`` up to 1e-9 relative, then clipped to it."""
    return _as_widths(_check_widths(problem, widths), problem.tau)


def _width_bound(problem: GrapeProblem, options: GrapeOptions) -> float:
    """``options.width_bound``, or ``tau`` if unset; ``ValueError`` beyond ``tau``."""
    bound = options.width_bound if options.width_bound is not None else problem.tau
    if bound > problem.tau:
        raise ValueError(f"width_bound {bound!r} exceeds tau = {problem.tau!r}")
    return bound


#: Curvature pairs the quasi-Newton descent keeps.
_MEMORY = 10


def _lbfgs_direction(grad: np.ndarray, free: np.ndarray, pairs) -> np.ndarray:
    """L-BFGS direction ``-H grad`` on the ``free`` variables, zero on the others.

    Two-loop recursion over ``pairs``, oldest first, of ``(s, y, 1 / s.y)``;
    the initial inverse Hessian is ``s.y / y.y`` of the newest pair.
    """
    q = np.where(free, grad, 0.0)
    coefficients = []
    for s, y, rho in reversed(pairs):
        coefficients.append(rho * np.vdot(s, q))
        q -= coefficients[-1] * y
    _, y, rho = pairs[-1]
    q /= rho * np.vdot(y, y)
    for (s, y, rho), a in zip(pairs, reversed(coefficients)):
        q += (a - rho * np.vdot(y, q)) * s
    return np.where(free, -q, 0.0)


def _descend(evaluate, grad_fn, params, bound, options):
    """Projected L-BFGS descent with a halving line search on the clipped path.

    ``evaluate`` maps the raw parameter array to ``(value, point)``, and
    ``grad_fn`` maps the ``point`` of an accepted value to ``(gradient,
    value)``, so the gradient reuses what the objective built for the same
    parameters.  ``bound`` is the box half-width.

    The direction comes from the two-loop recursion over the last
    ``_MEMORY`` curvature pairs (pairs with ``s.y <= 0`` are skipped) and is
    restricted to the free variables: a parameter at the bound whose
    gradient pushes outward stays fixed.  A quasi-Newton search tries the
    full step first, then halves; every trial is clipped to the box and
    accepted on a strict decrease.  With no memory (the first iteration),
    a direction that does not descend or a search that fails, the memory
    is dropped and the step is steepest descent, started at
    ``options.initial_step`` the first time and at twice the last accepted
    steepest-descent step after that.  Only when that also fails (or that
    step is no longer finite) does the descent stop with ``"line_search_stall"``.
    The gradient of an accepted point is taken after the tolerance check.
    The result's wall time covers the whole descent and its evaluation count
    every call of ``evaluate``.
    """
    start = time.perf_counter()
    value, point = evaluate(params)
    if not math.isfinite(value):
        raise OptimizationError(f"objective is non-finite at the initial point: {value}")
    trace = [value]
    evaluations = 1

    def search(direction, alpha):
        """First strict decrease along the clipped path, halving ``alpha``."""
        nonlocal evaluations
        while 1e-20 < alpha < math.inf:
            trial = np.clip(params + alpha * direction, -bound, bound)
            if np.array_equal(trial, params):
                return None  # rounding and clipping are monotone: no smaller alpha moves either
            trial_value, trial_point = evaluate(trial)
            evaluations += 1
            if not math.isfinite(trial_value):
                raise OptimizationError(f"objective became non-finite: {trial_value}")
            if trial_value < value:
                return alpha, trial, trial_value, trial_point
            alpha /= 2
        return None

    step = options.initial_step
    pairs = deque(maxlen=_MEMORY)
    last = None  # parameters and gradient where the last accepted step began
    iterations = 0
    for _ in range(options.max_iterations):
        if value <= options.tolerance:
            stop_reason = "tolerance"
            break
        grad, _ = grad_fn(point)
        if not np.all(np.isfinite(grad)):
            raise OptimizationError("gradient is non-finite")
        if not np.any(grad):
            stop_reason = "zero_gradient"
            break
        if last is not None:
            s, y = params - last[0], grad - last[1]
            if (sy := np.vdot(s, y)) > 0:
                pairs.append((s, y, 1.0 / sy))
        accepted = None
        if pairs:
            free = ~((params >= bound) & (grad < 0) | (params <= -bound) & (grad > 0))
            direction = _lbfgs_direction(grad, free, pairs)
            if np.vdot(grad, direction) < 0:
                accepted = search(direction, 1.0)
            if accepted is None:
                pairs.clear()
        if accepted is None:
            accepted = search(-grad, step)
            if accepted is None:
                stop_reason = "line_search_stall"
                break
            step = 2 * accepted[0]
        last = params, grad
        _, params, value, point = accepted
        trace.append(value)
        iterations += 1
    else:
        stop_reason = "tolerance" if value <= options.tolerance else "max_iterations"
    return GrapeResult(
        widths=params,
        trace=np.asarray(trace),
        iterations=iterations,
        evaluations=evaluations,
        wall_time=time.perf_counter() - start,
        converged=bool(value <= options.tolerance),
        stop_reason=stop_reason,
    )


def optimize(
    problem: GrapeProblem,
    init_widths=None,
    options: GrapeOptions | None = None,
) -> GrapeResult:
    """Minimize the infidelity over pulse widths with the PWM propagator.

    Starts from ``init_widths`` or, if omitted, from the widths of a random
    uniform field seeded by ``options.rng_seed``; both are clipped to
    ``options.width_bound``.  Raises ``ValueError`` when ``init_widths`` or
    the width bound exceed ``tau``.
    """
    options = options or GrapeOptions()
    bound = _width_bound(problem, options)
    engine = _pwm_engine(problem)
    if init_widths is None:
        init_widths = random_initial_widths(problem, np.random.default_rng(options.rng_seed))
    else:
        init_widths = _check_pulse_widths(problem, init_widths)
    params = np.clip(init_widths, -bound, bound)
    return _descend(engine.evaluate, engine.gradient, params, bound, options)


def optimize_pwc(
    problem: GrapeProblem,
    init_field=None,
    options: GrapeOptions | None = None,
) -> GrapeResult:
    """Baseline GRAPE over piecewise-constant field amplitudes ``eps_k(m)``.

    The step propagators ``exp(-i tau (H0 + sum_k eps_k H_k))`` come from one
    M-row PWC kernel -- at ``K = 1`` from its Chebyshev table in ``eps``,
    else its Taylor polynomial -- whose gradient is the standard first-order
    rule on both routes.
    The box bound on amplitudes is ``xi_k * width_bound / tau``, the exact
    image of the PWM width bound under area matching, so both optimizers
    search the same feasible set of subinterval areas.  ``init_field``
    passes the check of :func:`optimize`'s ``init_widths`` through that
    image: ``ValueError`` when an area-matched width ``eps_k tau / xi_k``
    exceeds ``tau`` (``|eps_k| > xi_k``), or when the width bound exceeds
    ``tau``.  The start is then clipped to the box.
    """
    options = options or GrapeOptions()
    xi = problem.amplitudes[:, None]
    bound = xi * _width_bound(problem, options) / problem.tau
    engine = _Engine(problem, _PwcKernel(problem.system, problem.n_steps))
    if init_field is None:
        eps = _random_field(problem, np.random.default_rng(options.rng_seed))
    else:
        eps = _check_widths(problem, init_field)
        _check_pulse_widths(problem, eps * problem.tau / xi)
    eps = np.clip(eps, -bound, bound)
    return _descend(engine.evaluate, engine.gradient, eps, bound, options)


def ten_level_problem(total_time: float = 100.0, tau: float = 0.1) -> GrapeProblem:
    """The ten-level benchmark transfer |1> -> |4> with unit pulse amplitude."""
    system = build_ten_level_system()
    return GrapeProblem(
        system=system,
        psi_initial=basis_state(system.dim, 0),
        psi_target=basis_state(system.dim, 3),
        total_time=total_time,
        tau=tau,
        amplitudes=np.ones(system.n_controls),
    )


@dataclass(frozen=True)
class BenchmarkRow:
    run: int
    scheme: str
    iterations: int
    final_j: float
    wall_seconds: float
    converged: bool


@dataclass(frozen=True, eq=False)
class BenchmarkReport:
    """Paired PWM-vs-PWC benchmark outcome.

    Medians and mean wall times are taken over converged runs only
    (non-converged runs are censored observations of the time-to-threshold,
    reported in ``rows`` but excluded from them); ``max_iterations`` is taken
    over all runs, so the tail the medians hide shows.  ``peak_hits`` counts
    converged PWM runs whose optimized-field spectrum peaks at both expected
    transition frequencies; ``spectra`` holds one spectrum per converged PWM
    run.
    """

    rows: tuple[BenchmarkRow, ...]
    median_wall: dict[str, float]
    median_iterations: dict[str, float]
    mean_wall: dict[str, float]
    max_iterations: dict[str, int]
    wall_ratio: float
    peak_hits: int
    peak_targets: tuple[float, ...]
    spectra: tuple[Spectrum, ...]


def _fig5_single_run(args) -> tuple[BenchmarkRow, BenchmarkRow, np.ndarray]:
    problem, options, run, seed = args
    # child ``run`` of SeedSequence(seed).spawn(repeats), drawn when the run starts
    child = np.random.SeedSequence(seed, spawn_key=(run,))
    rng = np.random.default_rng(int(child.generate_state(1)[0]))
    eps0 = _random_field(problem, rng)
    w0 = eps0 * problem.tau / problem.amplitudes[:, None]
    res_pwm = optimize(problem, w0, options)
    res_pwc = optimize_pwc(problem, eps0, options)
    return (
        BenchmarkRow(run, "pwm", res_pwm.iterations, float(res_pwm.trace[-1]),
                     res_pwm.wall_time, res_pwm.converged),
        BenchmarkRow(run, "pwc", res_pwc.iterations, float(res_pwc.trace[-1]),
                     res_pwc.wall_time, res_pwc.converged),
        res_pwm.widths,
    )


def run_fig5_benchmark(
    repeats: int = 25,
    seed: int | None = 2024,
    problem: GrapeProblem | None = None,
    options: GrapeOptions | None = None,
    jobs: int = 1,
    peak_targets: tuple[float, ...] = (4.0, 3.0),
    peak_tolerance: float = 0.5,
) -> BenchmarkReport:
    """Repeated paired optimizations from identical random starts.

    Each run draws one random initial field, optimizes it with the PWM
    propagator and with the piecewise-constant baseline, and records
    iterations, final objective, and wall time.  Per-run seeds are spawned
    deterministically from ``seed``, each when its run starts, so results
    are reproducible for any ``jobs`` value (runs are independent; each
    worker executes the PWM and PWC halves of a run back to back for fair
    timing).  ``repeats`` and ``jobs`` must be integers of at least 1, and
    ``seed`` one of at least 0 or ``None``.  The process pool gets ``min(jobs,
    repeats, os.cpu_count())`` workers and at most four tasks per worker at a
    time; a single worker runs the pairs in this process.
    """
    _check_int(repeats, "repeats", 1)
    _check_int(jobs, "jobs", 1)
    if seed is not None:
        _check_int(seed, "seed", 0)
    problem = problem or ten_level_problem()
    options = options or GrapeOptions()
    entropy = np.random.SeedSequence(seed).entropy  # drawn once when seed is None
    tasks = ((problem, options, run, entropy) for run in range(repeats))
    workers = min(jobs, repeats, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            while batch := list(itertools.islice(tasks, 4 * workers)):
                results.extend(pool.map(_fig5_single_run, batch))
    else:
        results = [_fig5_single_run(t) for t in tasks]

    rows: list[BenchmarkRow] = []
    spectra: list[Spectrum] = []
    hits = 0
    for row_pwm, row_pwc, widths in results:
        rows.extend([row_pwm, row_pwc])
        if not row_pwm.converged:
            continue
        seq = PWMSequence(tau=problem.tau, amplitudes=problem.amplitudes, widths=widths)
        spec = spectrum(inverse_pwm_pwc(seq), 0)
        spectra.append(spec)
        peaks = dominant_peaks(spec, count=len(peak_targets))
        found = [omega for omega, _ in peaks]
        if len(found) == len(peak_targets) and all(
            min(abs(f - t) for f in found) <= peak_tolerance for t in peak_targets
        ):
            hits += 1

    def _converged(statistic, scheme: str, attr) -> float:
        values = [attr(r) for r in rows if r.scheme == scheme and r.converged]
        return float(statistic(values)) if values else float("nan")

    schemes = ("pwm", "pwc")
    median_wall = {s: _converged(np.median, s, lambda r: r.wall_seconds) for s in schemes}
    ratio = median_wall["pwm"] / median_wall["pwc"] if median_wall["pwc"] else float("nan")
    return BenchmarkReport(
        rows=tuple(rows),
        median_wall=median_wall,
        median_iterations={s: _converged(np.median, s, lambda r: r.iterations) for s in schemes},
        mean_wall={s: _converged(np.mean, s, lambda r: r.wall_seconds) for s in schemes},
        max_iterations={s: max(r.iterations for r in rows if r.scheme == s) for s in schemes},
        wall_ratio=float(ratio),
        peak_hits=hits,
        peak_targets=tuple(peak_targets),
        spectra=tuple(spectra),
    )
