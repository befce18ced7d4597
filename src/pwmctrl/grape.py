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

All M subintervals are evaluated together: one argsort of the widths gives
every step's dwell times and the cache entries of its cumulative
Hamiltonians, the factors are gathered from the stacked eigendecompositions
(at most ``3^K``, filled once), and the palindromic products and the
derivative brackets run as batched matrix operations over the subinterval
axis.  Only the forward/adjoint sweep steps through the subintervals one by
one, and it is shared with the baseline below.

A piecewise-constant GRAPE baseline (fresh eigendecomposition per
subinterval, standard first-order gradient) is included for benchmarking the
cached-propagator speedup.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ControlSystem, _check_system, basis_state, build_ten_level_system
from .propagate import HamiltonianCache
from .pwm import PWMSequence, Spectrum, dominant_peaks, inverse_pwm_pwc, spectrum
from .pwm import _as_amplitudes, _as_widths

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

    ``total_time`` must be an integer number of subintervals ``tau``; the
    endpoint states must be normalized and the system must pass
    ``validate_system``.
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
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        steps = self.total_time / self.tau
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps) or round(steps) < 1:
            raise ValueError(
                f"total_time {self.total_time!r} is not an integer number of "
                f"subintervals tau={self.tau!r}"
            )
        object.__setattr__(self, "psi_initial", psi_i)
        object.__setattr__(self, "psi_target", psi_f)
        object.__setattr__(
            self, "amplitudes", _as_amplitudes(self.amplitudes, self.system.n_controls)
        )

    @property
    def n_steps(self) -> int:
        return round(self.total_time / self.tau)

    @property
    def n_controls(self) -> int:
        return self.system.n_controls


@dataclass(frozen=True)
class GrapeOptions:
    """Knobs of the projected-gradient optimizer.

    ``width_bound`` defaults to ``tau``, the physical maximum, which
    :func:`optimize` does not let it exceed; widths are clipped to
    ``[-width_bound, +width_bound]`` after every update.  The line search
    starts each iteration at twice the previously accepted step and halves
    until the objective decreases, so the trace is non-increasing.
    """

    max_iterations: int = 2000
    initial_step: float = 1.0
    width_bound: float | None = None
    tolerance: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.initial_step > 0:
            raise ValueError("initial_step must be positive")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.width_bound is not None and not self.width_bound > 0:
            raise ValueError("width_bound must be positive")


@dataclass(frozen=True, eq=False)
class GrapeResult:
    """Optimization outcome.

    ``widths`` holds the optimized parameters: pulse widths for the PWM
    optimizer, subinterval field amplitudes for the piecewise-constant
    baseline.  ``trace`` is the non-increasing sequence of objective values,
    starting at the initial point.
    """

    widths: np.ndarray
    trace: np.ndarray
    iterations: int
    wall_time: float
    converged: bool


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


def _sweep(steps: np.ndarray, psi_initial: np.ndarray, psi_target: np.ndarray):
    """Forward and adjoint states through a stack of ``M`` step propagators.

    Returns the kets ``phi`` (``M + 1`` rows, ``phi[m] = U_m ... U_1
    |psi_i>``), the bras ``chi`` (``M`` rows, ``chi[m] = <psi_f| U_M ...
    U_{m+2}``, so that ``chi[m] @ U_{m+1} @ phi[m]`` is the overlap for
    every ``m``) and the overlap ``<psi_f|U|psi_i>`` itself.
    """
    m_count = steps.shape[0]
    phi = np.empty((m_count + 1, steps.shape[1]), dtype=np.complex128)
    phi[0] = psi_initial
    for m in range(m_count):
        phi[m + 1] = steps[m] @ phi[m]
    chi = np.empty((m_count, steps.shape[1]), dtype=np.complex128)
    chi[m_count - 1] = psi_target.conj()
    for m in range(m_count - 1, 0, -1):
        chi[m - 1] = chi[m] @ steps[m]
    return phi, chi, complex(np.vdot(psi_target, phi[m_count]))


def _chain(steps: np.ndarray) -> np.ndarray:
    """Ordered product ``steps[-1] @ ... @ steps[0]`` by pairwise reduction."""
    while steps.shape[0] > 1:
        even = steps.shape[0] // 2 * 2
        paired = steps[1:even:2] @ steps[0:even:2]
        steps = np.concatenate([paired, steps[even:]]) if even < steps.shape[0] else paired
    return steps[0]


class _PwmEngine:
    """Batched forward/adjoint passes under the PWM step propagator.

    One stable argsort of ``-|w|`` lays out all subintervals at once as
    ``K + 1`` sorted positions, each with a dwell time and the base-3 code
    of its signed prefix set (digit 1 for ``+1``, 2 for ``-1`` at control
    ``k``'s place).  Each distinct code names one ``HamiltonianCache``
    entry, and the factors of every step are gathered from the stacked
    entries, so no Python loop runs over subintervals.  Zero-width pulses
    stay in the order with sign ``+1``, so every control has a definite
    position.
    """

    def __init__(self, problem: GrapeProblem) -> None:
        self.problem = problem
        self.cache = HamiltonianCache(problem.system, problem.amplitudes)
        self._place = 3 ** np.arange(problem.n_controls)

    def _prefix(self, code: int) -> tuple:
        """Cache key ``((k, delta), ...)`` of a base-3 prefix code."""
        digits = code // self._place % 3
        return tuple((k, 1 if d == 1 else -1) for k, d in enumerate(digits) if d)

    def _layout(self, widths: np.ndarray):
        """Sorted order and signs ``(K, M)``, factors ``(K+1, M, N, N)``,
        the distinct prefixes and each position's index into them."""
        tau = self.problem.tau
        order = np.argsort(-np.abs(widths), axis=0, kind="stable")
        sorted_w = np.take_along_axis(widths, order, axis=0)
        sorted_abs = np.abs(sorted_w)
        signs = np.where(sorted_w < 0, -1, 1)
        dwell = np.empty((order.shape[0] + 1, order.shape[1]))
        dwell[0] = (tau - sorted_abs[0]) / 2
        dwell[1:-1] = (sorted_abs[:-1] - sorted_abs[1:]) / 2
        dwell[-1] = sorted_abs[-1]
        codes = np.zeros(dwell.shape, dtype=np.int64)
        np.cumsum(np.where(signs < 0, 2, 1) * self._place[order], axis=0, out=codes[1:])
        unique, idx = np.unique(codes, return_inverse=True)
        idx = idx.reshape(codes.shape)
        prefixes = [self._prefix(int(c)) for c in unique]
        entries = [self.cache.entry(p) for p in prefixes]
        lam = np.stack([e[0] for e in entries])[idx]
        basis = np.stack([e[1] for e in entries])[idx]
        phases = np.exp(-1j * dwell[..., None] * lam)
        factors = (basis * phases[..., None, :]) @ basis.conj().swapaxes(-1, -2)
        return order, signs, factors, prefixes, idx

    @staticmethod
    def _product(factors: np.ndarray) -> np.ndarray:
        """Palindromic products ``F_0 ... F_{K-1} F_K F_{K-1} ... F_0`` of all steps."""
        u = factors[-1]
        for f in factors[-2::-1]:
            u = f @ u @ f
        return u

    def steps(self, widths: np.ndarray) -> np.ndarray:
        """Stacked subinterval propagators ``(M, N, N)``."""
        return self._product(self._layout(widths)[2])

    def objective(self, widths: np.ndarray) -> float:
        problem = self.problem
        return infidelity(_chain(self.steps(widths)), problem.psi_initial, problem.psi_target)

    def gradient(self, widths: np.ndarray) -> tuple[np.ndarray, float]:
        """Exact gradient of J and the objective value at ``widths``.

        Factor ``i`` of the palindrome (``0 .. 2K``) applies sorted position
        ``j = min(i, 2K - i)``; differentiating its dwell inserts ``-i G_j``
        there, giving the bracket ``<l_i| G_j |r_i>`` with the partial
        products left and right of it.  Width ``w`` at sorted position ``r``
        with sign ``delta`` feeds dwell ``d_r`` at rate ``-delta/2`` and
        ``d_{r+1}`` at ``+delta/2`` (both on two palindromic copies), or at
        ``+delta`` on the single centre factor when ``r + 1 = K``.
        """
        problem = self.problem
        self._warn_on_ties(widths)
        order, signs, factors, prefixes, idx = self._layout(widths)
        phi, chi, overlap = _sweep(self._product(factors), problem.psi_initial, problem.psi_target)

        k_count = order.shape[0]
        hams = np.stack([self.cache.hamiltonian(p) for p in prefixes])[idx]
        seq = [*range(k_count + 1), *range(k_count - 1, -1, -1)]
        # right states |r_i> = F_i ... F_2K |phi_in>
        right = [None] * len(seq)
        state = phi[:-1]
        for i in range(len(seq) - 1, -1, -1):
            state = (factors[seq[i]] @ state[..., None])[..., 0]
            right[i] = state
        # bras <l_i| = <chi| F_0 ... F_{i-1}
        left = chi
        brackets = np.empty((len(seq), order.shape[1]), dtype=np.complex128)
        for i, j in enumerate(seq):
            brackets[i] = np.sum(left * (hams[j] @ right[i][..., None])[..., 0], axis=-1)
            left = (left[:, None, :] @ factors[j])[:, 0, :]
        # i d<overlap>/d dwell_j times the dwell's rate per unit |w|
        # (1/2 for the doubled outer dwells, 1 at the centre)
        per_dwell = np.concatenate(
            [(brackets[:k_count] + brackets[:k_count:-1]) / 2, brackets[k_count:k_count + 1]]
        )
        dc = np.empty(order.shape, dtype=np.complex128)
        np.put_along_axis(dc, order, -1j * signs * (per_dwell[1:] - per_dwell[:-1]), axis=0)
        grad = -2.0 * np.real(np.conj(overlap) * dc)
        return grad, float(1.0 - abs(overlap) ** 2)

    def _warn_on_ties(self, widths: np.ndarray) -> None:
        sorted_abs = -np.sort(-np.abs(widths), axis=0)
        tie = np.any(sorted_abs == 0.0)
        if sorted_abs.shape[0] > 1:
            tie = tie or bool(np.any(np.diff(sorted_abs, axis=0) == 0.0))
        if tie:
            warnings.warn(
                "widths contain an exact sorting tie or a zero width; "
                "the gradient there is one-sided",
                stacklevel=3,
            )


def objective(problem: GrapeProblem, widths) -> float:
    """Infidelity of the PWM propagator for the given widths."""
    return _PwmEngine(problem).objective(_check_pulse_widths(problem, widths))


def gradient(problem: GrapeProblem, widths) -> np.ndarray:
    """Exact gradient of :func:`objective` with respect to every width."""
    return _PwmEngine(problem).gradient(_check_pulse_widths(problem, widths))[0]


def _check_widths(problem: GrapeProblem, widths) -> np.ndarray:
    w = np.asarray(widths, dtype=np.float64)
    expected = (problem.n_controls, problem.n_steps)
    if w.shape != expected:
        raise ValueError(f"widths must have shape {expected}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("widths must be finite")
    return w


def _check_pulse_widths(problem: GrapeProblem, widths) -> np.ndarray:
    """Validated pulse widths; ``|w| <= tau`` up to 1e-9 relative, then clipped to it."""
    return _as_widths(_check_widths(problem, widths), problem.tau)


def _descend(evaluate, grad_fn, params, bound, options):
    """Projected gradient descent with a halving line search.

    ``evaluate``/``grad_fn`` operate on the raw parameter array; ``bound``
    is the box half-width.  Returns (params, trace, iterations).
    """
    value = evaluate(params)
    if not math.isfinite(value):
        raise OptimizationError(f"objective is non-finite at the initial point: {value}")
    trace = [value]
    step = options.initial_step
    iterations = 0
    for _ in range(options.max_iterations):
        if value <= options.tolerance:
            break
        grad, value_at = grad_fn(params)
        if not np.all(np.isfinite(grad)):
            raise OptimizationError("gradient is non-finite")
        if not np.any(grad):
            break
        alpha = step
        accepted = None
        while alpha > 1e-20:
            trial = np.clip(params - alpha * grad, -bound, bound)
            trial_value = evaluate(trial)
            if not math.isfinite(trial_value):
                raise OptimizationError(f"objective became non-finite: {trial_value}")
            if trial_value < value:
                accepted = (trial, trial_value)
                break
            alpha /= 2
        if accepted is None:
            break
        params, value = accepted
        trace.append(value)
        iterations += 1
        step = 2 * alpha
    return params, np.asarray(trace), iterations


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
    bound = options.width_bound if options.width_bound is not None else problem.tau
    if bound > problem.tau:
        raise ValueError(f"width_bound {bound!r} exceeds tau = {problem.tau!r}")
    engine = _PwmEngine(problem)
    if init_widths is None:
        init_widths = random_initial_widths(problem, np.random.default_rng(options.rng_seed))
    else:
        init_widths = _check_pulse_widths(problem, init_widths)
    params = np.clip(init_widths, -bound, bound)
    start = time.perf_counter()
    params, trace, iterations = _descend(
        engine.objective, engine.gradient, params, bound, options
    )
    wall = time.perf_counter() - start
    return GrapeResult(
        widths=params,
        trace=trace,
        iterations=iterations,
        wall_time=wall,
        converged=bool(trace[-1] <= options.tolerance),
    )


class _PwcEngine:
    """Piecewise-constant GRAPE baseline: fresh eigendecomposition per step.

    Parameters are the subinterval field amplitudes ``eps_k(m)``; the step
    propagator is ``exp(-i tau (H0 + sum_k eps_k H_k))`` and the gradient
    uses the standard first-order rule ``dU/deps ~= -i tau H_k U``.
    """

    def __init__(self, problem: GrapeProblem) -> None:
        self.problem = problem
        self._controls = np.stack(problem.system.controls)

    def steps(self, eps: np.ndarray) -> np.ndarray:
        problem = self.problem
        h = np.broadcast_to(
            problem.system.drift,
            (problem.n_steps, problem.system.dim, problem.system.dim),
        ).copy()
        h += np.einsum("km,kab->mab", eps, self._controls)
        lam, basis = np.linalg.eigh(h)
        phases = np.exp(-1j * problem.tau * lam)
        return (basis * phases[:, None, :]) @ basis.conj().transpose(0, 2, 1)

    def objective(self, eps: np.ndarray) -> float:
        problem = self.problem
        return infidelity(_chain(self.steps(eps)), problem.psi_initial, problem.psi_target)

    def gradient(self, eps: np.ndarray) -> tuple[np.ndarray, float]:
        problem = self.problem
        phi, chi, overlap = _sweep(self.steps(eps), problem.psi_initial, problem.psi_target)
        dc = -1j * problem.tau * np.einsum(
            "mn,knq,mq->km", chi, self._controls, phi[1:], optimize=True
        )
        grad = -2.0 * np.real(np.conj(overlap) * dc)
        return grad, float(1.0 - abs(overlap) ** 2)


def optimize_pwc(
    problem: GrapeProblem,
    init_field=None,
    options: GrapeOptions | None = None,
) -> GrapeResult:
    """Baseline GRAPE over piecewise-constant field amplitudes.

    The box bound on amplitudes is ``xi_k * width_bound / tau``, the exact
    image of the PWM width bound under area matching, so both optimizers
    search the same feasible set of subinterval areas.
    """
    options = options or GrapeOptions()
    bound_w = options.width_bound if options.width_bound is not None else problem.tau
    bound = problem.amplitudes[:, None] * bound_w / problem.tau
    engine = _PwcEngine(problem)
    if init_field is None:
        init_field = _random_field(problem, np.random.default_rng(options.rng_seed))
    eps = np.clip(_check_widths(problem, init_field), -bound, bound)
    start = time.perf_counter()
    eps, trace, iterations = _descend(engine.objective, engine.gradient, eps, bound, options)
    wall = time.perf_counter() - start
    return GrapeResult(
        widths=eps,
        trace=trace,
        iterations=iterations,
        wall_time=wall,
        converged=bool(trace[-1] <= options.tolerance),
    )


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

    Medians are taken over converged runs only (non-converged runs are
    censored observations of the time-to-threshold, reported in ``rows``
    but excluded from the medians).  ``peak_hits`` counts converged PWM runs
    whose optimized-field spectrum peaks at both expected transition
    frequencies; ``spectra`` holds one spectrum per converged PWM run.
    """

    rows: tuple[BenchmarkRow, ...]
    median_wall: dict[str, float]
    median_iterations: dict[str, float]
    wall_ratio: float
    peak_hits: int
    peak_targets: tuple[float, ...]
    spectra: tuple[Spectrum, ...]


def _fig5_single_run(args) -> tuple[BenchmarkRow, BenchmarkRow, np.ndarray]:
    problem, options, run, child_seed = args
    rng = np.random.default_rng(child_seed)
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
    seed: int = 2024,
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
    deterministically from ``seed``, so results are reproducible for any
    ``jobs`` value (runs are independent; each worker executes the PWM and
    PWC halves of a run back to back for fair timing).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    problem = problem or ten_level_problem()
    options = options or GrapeOptions()
    child_seeds = [s.generate_state(1)[0] for s in np.random.SeedSequence(seed).spawn(repeats)]
    tasks = [(problem, options, run, int(child_seeds[run])) for run in range(repeats)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_fig5_single_run, tasks))
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

    def _median(scheme: str, attr) -> float:
        values = [attr(r) for r in rows if r.scheme == scheme and r.converged]
        return float(np.median(values)) if values else float("nan")

    median_wall = {s: _median(s, lambda r: r.wall_seconds) for s in ("pwm", "pwc")}
    median_iter = {s: _median(s, lambda r: r.iterations) for s in ("pwm", "pwc")}
    ratio = median_wall["pwm"] / median_wall["pwc"] if median_wall["pwc"] else float("nan")
    return BenchmarkReport(
        rows=tuple(rows),
        median_wall=median_wall,
        median_iterations=median_iter,
        wall_ratio=float(ratio),
        peak_hits=hits,
        peak_targets=tuple(peak_targets),
        spectra=tuple(spectra),
    )
