"""Time-dependent Schrodinger propagators for PWM pulse sequences.

The bang-bang Hamiltonian inside one subinterval only ever takes values from
the finite set ``{H0 + sum_k delta_k xi_k H_k : delta_k in {0, +1, -1}}``.
Overlapping the pulses symmetrically about the subinterval centre turns the
subinterval propagator into a palindromic product

    U = e^{-i tau_0 G_0} e^{-i tau_1 G_1} ... e^{-i tau_J G_J} ... e^{-i tau_1 G_1} e^{-i tau_0 G_0}

where ``G_0 = H0``, ``G_j = G_{j-1} + delta_j xi_j H_{k_j}`` adds the pulses
one by one in decreasing order of width, and the dwell times ``tau_j`` are
fixed linear functions of the sorted widths.  Every factor needs only the
eigendecomposition of one member of the finite set, so all matrix
diagonalizations can be cached and reused across subintervals -- that is the
speed advantage over piecewise-constant stepping, which exponentiates a fresh
Hamiltonian every subinterval.

Every PWM propagation -- :func:`evolve`, :func:`step_pwm_higher`,
:func:`error_order` and the GRAPE objective -- goes through one batched kernel
that builds the steps of many subintervals at once in the drift's eigenbasis.
A Suzuki sub-window of negative length negates every dwell, which gives the
exact inverse step.  :func:`step_pwm` multiplies one subinterval's factors
frame by frame and is the independent reference.  The symmetric
split-operator step is a product of the same form over the eigenbases of the
drift and of each control alone, so :func:`evolve` takes it through the same
kernel; :func:`step_spo` is its frame-by-frame reference.  Piecewise-constant
steps come from a second batched kernel, a scaling-and-squaring Taylor
exponential, or at one control a Chebyshev table in the control value;
:func:`step_pwc`, :func:`expm_hermitian` and :func:`reference_propagator` keep
their own eigendecompositions and are its independent references.  The two
kernels are the only per-scheme code, with the same calls (:class:`_PwmKernel`),
and every multi-step propagator multiplies its blocks of steps out with one
block product.

Fields are accepted either as :class:`~pwmctrl.pwm.SampledField` (integrated
exactly as piecewise-constant data) or as a smooth callable ``u(t)``.  A
callable receives a 1-D array of ``n`` times, once per use, and returns the
samples as a ``(K, n)`` array, or ``(n,)`` for one control; NumPy ufuncs
such as ``np.sin`` qualify as they are.  Callables are integrated by
Gauss-Legendre quadrature and are the right choice for high-order stepping,
whose sub-windows reach slightly outside the nominal subinterval.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import ControlSystem, _check_system, _locked
from .pwm import PWMSequence, SampledField, _as_amplitudes, _as_widths, pwm_approximate
from .pwm import _MAX_SAMPLES, _check_finite, _check_int, _check_start, _check_step, _step_count

__all__ = [
    "ErrorOrderFit",
    "HamiltonianCache",
    "PulseFrame",
    "TermCache",
    "build_frame",
    "error_order",
    "evolve",
    "expm_hermitian",
    "frame_from_widths",
    "reference_propagator",
    "step_pwc",
    "step_pwm",
    "step_pwm_higher",
    "step_spo",
    "suzuki_coefficient",
]

def _eigen_exponential(lam: np.ndarray, basis: np.ndarray, theta) -> np.ndarray:
    """``V exp(-i theta lambda) V^dagger`` of eigensystems ``(lambda, V)`` stacked on leading axes."""
    return (basis * np.exp(-1j * theta * lam)[..., None, :]) @ np.swapaxes(basis.conj(), -1, -2)


def expm_hermitian(matrix: np.ndarray, theta: float) -> np.ndarray:
    """``exp(-i * theta * H)`` for Hermitian ``H`` and finite ``theta`` via eigendecomposition."""
    _check_finite(theta, "theta")
    h = np.asarray(matrix, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h)))) if h.size else 1.0
    if float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    return _eigen_exponential(*np.linalg.eigh(h), theta)


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of ``U^dag U - I``."""
    u = np.asarray(u)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


#: Most controls that PWM propagation takes: a :class:`HamiltonianCache`
#: builds all 3^K eigendecompositions and 2K 3^(K-1) basis changes, 12.7 MiB at
#: K = 4, N = 32 and about three times more per control (README "PWM kernel").
_MAX_PWM_CONTROLS = 4


def _basis_changes(lam, bases, a, b) -> tuple[np.ndarray, ...]:
    """Read-only ``W_ab``, ``W_ab^dagger`` and ``lambda_b`` of the slots ``a -> b``."""
    w = bases[a].conj().transpose(0, 2, 1) @ bases[b]
    return _locked(w), _locked(w.conj().transpose(0, 2, 1).copy()), _locked(lam[b])


class HamiltonianCache:
    """Eigendecompositions of the signed cumulative Hamiltonians, built whole.

    Row ``c`` holds ``H0 + sum_k delta_k xi_k H_k`` for the base-3 code ``c``
    of the signed controls ``{(k, delta_k)}`` (digit 1 for ``+1``, 2 for
    ``-1`` at control ``k``'s place), whatever order the pulses were added
    in; the drift is row 0.  Above :data:`_MAX_PWM_CONTROLS` controls, the
    bound of every PWM entry point, the constructor raises ``ValueError``;
    else it builds all ``3^K`` rows by one batched ``eigh`` and the basis
    changes of every slot (``_slots``).  Every array is read-only, so threads
    may share a cache.

    A cache belongs to one system object and one amplitude vector: the
    constructor rejects a system that fails ``validate_system`` (such as a
    non-Hermitian one), and the step functions that accept a cache raise
    ``ValueError`` when it was built for another system object or other
    amplitudes.
    """

    def __init__(self, system: ControlSystem, amplitudes) -> None:
        _check_system(system)
        self.system = system
        self.amplitudes = _as_amplitudes(amplitudes, system.n_controls)
        k_count = system.n_controls
        if k_count > _MAX_PWM_CONTROLS:
            raise ValueError(f"PWM propagation takes at most {_MAX_PWM_CONTROLS} controls, got "
                             f"{k_count}: it diagonalizes all 3^K signed Hamiltonians up front")
        place = 3 ** np.arange(k_count)
        digits = np.arange(3**k_count)[:, None] // place % 3
        stack = np.repeat(system.drift[None], len(digits), axis=0)
        for k, control in enumerate(system.controls):
            for digit, delta in ((1, 1), (2, -1)):
                stack[digits[:, k] == digit] += delta * self.amplitudes[k] * control
        self._lam, self._bases = map(_locked, np.linalg.eigh(stack))
        # slot table[a, k, h] joins code a to the code that adds control k with
        # sign +1 (h = 0) or -1 (h = 1); it is -1 where a holds k
        table = np.full((len(digits), k_count, 2), -1)
        a, k, h = np.nonzero(np.broadcast_to((digits == 0)[..., None], table.shape))
        table[a, k, h] = np.arange(len(a))
        b = a + (h + 1) * place[k]
        self._slots = (*_basis_changes(self._lam, self._bases, a, b), _locked(table))

    def entry(self, prefix) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors for the ``(k, delta)`` pairs of ``prefix``, in any
        order; ``ValueError`` unless each ``k`` in ``0..K-1`` appears once, ``delta = +-1``."""
        code = 0
        for k, delta in prefix:
            k = _check_int(k, "prefix control", 0, self.system.n_controls)
            if delta not in (1, -1):
                raise ValueError(f"prefix sign of control {k} must be +1 or -1, got {delta!r}")
            if code // 3**k % 3:
                raise ValueError(f"prefix names control {k} twice")
            code += (1 if delta == 1 else 2) * 3**k
        return self._lam[code], self._bases[code]

    def factor(self, prefix, theta: float) -> np.ndarray:
        """``exp(-i * theta * G_prefix)`` assembled from the cached entry."""
        return _eigen_exponential(*self.entry(prefix), theta)

    @property
    def size(self) -> int:
        return len(self._lam)


#: Complex entries in :func:`evolve`'s step stacks at once: its blocks of
#: subintervals are sized from it by N and K, so its memory does not grow with M.
_BLOCK_ENTRIES = 1 << 18


def _degree_cap(dim: int) -> int:
    """Largest Chebyshev degree ``J`` of a spectral or table route (the PWM and PWC kernels).

    The spectral fill costs about ``J N^2`` per row and the product route
    ``N^3`` plus elementwise work in ``N^2``.  At 1,000 rows and one BLAS
    thread their fill times cross near ``J = 69`` at N = 4, 82 at N = 10 and
    140 at N = 32 (medians over five processes, README "PWM kernel"), and
    the cap keeps below that.
    """
    return 3 * dim // 2 + 40


# One width array as laid out by _PwmKernel for windows of the signed length:
# order, signs and sorted_abs are (K, rows), dwell is (K + 1, rows), and slots
# (K, rows) names the basis change W between sorted positions j and j + 1 of
# every row.  A split-operator layout holds only dwell, slots and length.
_Layout = namedtuple("_Layout", "order signs sorted_abs dwell slots length")
# One control-value array as laid out by _PwcKernel: a read-only (K, rows) copy and tau.
_PwcPoint = namedtuple("_PwcPoint", "values tau")


def _table_degree(bandwidth: float, rows: int, dim: int) -> int | None:
    """The Chebyshev degree of a ``K = 1`` table fill (either kernel); ``None`` for the other route.

    At ``2N`` rows or more (PWM: ``N`` per sign slot, both counted even when
    all widths have one sign, ``BENCH_22.json`` ``single_signed_k1``) it is
    the smallest ``J`` within :func:`_degree_cap` with ``2 (b/2)^J / J! <=
    2^-53``, ``b = bandwidth``: the Chebyshev coefficients of ``exp(i b t)``
    are ``2 i^k J_k(b)`` and ``|J_k(b)| <= (b/2)^k / k!`` (Bessel).
    """
    if rows < 2 * dim:
        return None
    if bandwidth == 0.0:
        return 1
    log_half = math.log(bandwidth / 2)
    for degree in range(1, _degree_cap(dim) + 1):
        if degree * log_half - math.lgamma(degree + 1) <= -54 * math.log(2):
            return degree
    return None


def _chebyshev_fill(tables: dict, key, sample, basis: np.ndarray, t2: np.ndarray,
                    out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps ``out`` by one real GEMM against a Chebyshev table: every ``K = 1`` table fill.

    ``basis`` is ``(J, H, rows)``, ``J`` the degree and ``H`` the halves of
    the table, with row 0 written by the kernel (each row's weight in its
    half); the recurrence in ``t2 = 2t`` fills ``basis[k] = basis[0]
    T_k(t)``.  On a miss at ``key``, ``sample(nodes)`` gives ``(T, H, J, N,
    N)`` samples at the nodes ``t_j = cos(pi (j + 1/2) / J)``, and their
    cosine transform, ``(2 - delta_k0) / J sum_j f(t_j) cos(k pi (j + 1/2) /
    J)`` for ``T_k``, is stored in ``tables[key]`` as ``T`` real ``(H J,
    2N^2)`` tables whose row ``H k + h`` holds ``T_k`` of half ``h``.
    Returns the ``(rows, H J)`` basis and the tables; table 0 makes ``out``.
    """
    degree, halves, rows = basis.shape
    table = tables.get(key)
    if table is None:
        k = np.arange(degree)
        angles = np.pi * (k + 0.5) / degree
        cosine = np.cos(np.outer(k, angles)) * np.where(k == 0, 1, 2)[:, None] / degree
        samples = sample(np.cos(angles))
        kinds, n = len(samples), samples.shape[-1]
        coefficients = cosine @ samples.reshape(kinds, halves, degree, n * n)
        table = coefficients.transpose(0, 2, 1, 3).reshape(kinds, halves * degree, n * n)
        table = tables[key] = table.view(np.float64)
    if degree > 1:
        np.multiply(basis[0], t2 / 2, out=basis[1])
        for k in range(2, degree):
            np.multiply(basis[k - 1], t2, out=basis[k])
            basis[k] -= basis[k - 2]
    basis = basis.reshape(halves * degree, rows).T
    np.matmul(basis, table[0], out=out.reshape(rows, -1).view(np.float64))
    return basis, table


def _carve(*specs: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """Arrays of the given ``(shape, dtype)`` as views of one fresh allocation.

    glibc takes its trim threshold from the largest block freed, so one block
    for all of a kernel's stacks lets the next kernel of that size reuse the
    heap instead of faulting fresh pages in.
    """
    words = [math.prod(shape) * np.dtype(dtype).itemsize // 8 for shape, dtype in specs]
    block = np.empty(sum(words))
    arrays, start = [], 0
    for (shape, dtype), size in zip(specs, words):
        arrays.append(block[start : start + size].view(dtype).reshape(shape))
        start += size
    return arrays


class _PwmKernel:
    """Batched PWM steps of up to ``rows`` windows of one signed length.

    One stable argsort of ``-|w|`` lays out all rows at once as ``K + 1``
    sorted positions, each with a dwell time ``d_j`` and the base-3 code of
    its signed prefix set (digit 1 for ``+1``, 2 for ``-1`` at control
    ``k``'s place).  Zero-width pulses stay in the order with sign ``+1``,
    so every control has a definite position.  A negative window length
    negates every dwell, which gives the inverse of the forward step.

    The kernel works in the interaction frame of the drift's eigenbasis
    ``V_0``.  With ``H_j = V_j diag(lambda_j) V_j^dagger`` the cached
    eigendecomposition of position ``j``'s cumulative Hamiltonian, the step
    propagator is ``V_0 S V_0^dagger`` with

        S = D_0 W_01 D_1 ... W_{K-1,K} D_K W_{K,K-1} ... D_1 W_10 D_0,

    diagonal phases ``D_j = exp(-i d_j lambda_j)`` and basis changes
    ``W_ab = V_a^dagger V_b``.  ``W_ab``, its adjoint and ``lambda_b`` of
    every pair of adjacent prefix codes -- a slot -- come built from the
    cache (``_slots``), as do ``V_0`` and ``lambda_0`` (row 0), and
    ``_slot_of[code_a, k, h]`` gives a layout all its slots by one index.
    At ``K = 1`` slot 0 is sign ``+1`` and slot 1 sign ``-1``.  A fill takes one of two routes:

    - **Spectral route** (``K = 1``, with at least ``2N`` rows and a
      degree within the cap, :func:`_table_degree`).  A step ``S(u)
      = D_0 W D_1 W^dagger D_0`` depends on the one width ``u = |w|`` in
      ``[0, |L|]`` through ``d_0 = (L - u)/2`` and ``d_1 = u`` (both negated
      when ``L < 0``), and entry ``(a, b)`` is a sum of ``exp(-i u
      (lambda_1c - (lambda_0a + lambda_0b)/2))`` over ``c``.  So its
      Chebyshev series in ``t = 2u/|L| - 1`` converges geometrically: ``J``
      terms suffice at the smallest ``J`` with ``2 (b/2)^J / J! <= 2^-53``,
      ``b = |L|/2 max |lambda_1c - (lambda_0a + lambda_0b)/2|`` over both
      sign slots.  The row's sign half of the basis and its ``t`` go to
      :func:`_chebyshev_fill`, which on the first fill at ``L`` tabulates
      ``S`` and the exact ``dS/dw`` of both sign slots from
      :meth:`_chebyshev_samples` and makes all steps by one real GEMM.
      Above ``J = 3N/2 + 40`` (:func:`_degree_cap`) the fill takes the
      product route.
    - **Product route** (every other fill).  Folding every ``D`` into a
      neighbouring ``W`` leaves ``2K`` dense factors, so a step costs ``2K -
      1`` batched matrix products.

    Every step kernel has the same calls: :meth:`layout` returns the point
    of ``(K, rows)`` parameters, :meth:`fill` builds its steps and holds it
    (``held``), :meth:`overlap_derivative` differentiates the held point,
    and ``v0`` is the frame.  The step-sized arrays are views of one
    allocation for ``rows`` rows, filled in place.

    Built on a :class:`TermCache` the kernel takes Strang split-operator
    steps instead: ``V_j`` is the eigenbasis of the drift (``j = 0``) or of
    control ``j`` alone, slot ``j`` holds ``W_{j,j+1}`` and :meth:`layout`
    takes control values.  Split-operator fills never take the spectral
    route.
    """

    def __init__(self, cache: HamiltonianCache | TermCache, rows: int) -> None:
        self.cache = cache
        k_count, n = cache.system.n_controls, cache.system.dim
        self._place = 3 ** np.arange(k_count)
        self._w, self._w_adjoint, self._lam_b, self._slot_of = cache._slots
        self._lam0, self.v0 = cache._lam[0], cache._bases[0]
        # the largest Chebyshev degree of the spectral route, 0 where it is not taken
        self._cap = _degree_cap(n) if k_count == 1 and self._slot_of is not None else 0
        step, c = (rows, n, n), np.complex128
        (self._forward, self._backward, self.steps, self.scratch, self._lam, self._angle,
         self._phase, self._kets, self._bras, self._brackets, self._basis, self._t2) = _carve(
            ((k_count, *step), c), ((k_count, *step), c), (step, c),
            ((_level_rows(rows), n, n), c),
            ((k_count + 1, rows, n), float), ((k_count + 1, rows, n), float),
            ((k_count + 1, rows, n), c),
            # split-point kets and bras and the brackets of overlap_derivative
            ((2 * k_count - 1, rows, n), c), ((2 * k_count - 1, rows, n), c),
            ((2 * k_count + 1, rows), c),
            # spectral route: the Chebyshev basis in sign halves, and 2t
            ((2 * self._cap * rows,), float), ((rows,), float),
        )
        self._lam[0] = self._lam0
        self.held: _Layout | None = None
        # spectral route: the largest |lambda_1c - lambda_0a| over both sign
        # slots, the (2, 2J, 2N^2) real tables of S and dS/dw by length, and
        # for the held layout its (rows, 2J) basis and tables
        if self._cap:
            lam_b = self._lam_b
            self._spread = max(lam_b.max() - self._lam0.min(), self._lam0.max() - lam_b.min())
        self._chebyshev: dict[float, np.ndarray] = {}
        self._spectral: tuple[np.ndarray, np.ndarray] | None = None

    def layout(self, params: np.ndarray, length: float) -> _Layout:
        """Lay out ``(K, rows)`` widths, ``|w| <= |length|``, in windows of ``length``.

        On a :class:`TermCache` the params are control values of Strang steps
        over ``length``: slot ``j`` sits at position ``j`` of every row, with
        dwells ``length / 2`` on the drift and ``length u_j / 2`` on control
        ``j``, except ``length u_K`` at the centre, where two half-steps merge.
        """
        if self._slot_of is None:  # a TermCache's slots
            k_count, rows = params.shape
            dwell = np.empty((k_count + 1, rows))
            dwell[0] = length / 2
            np.multiply(params, length / 2, out=dwell[1:])
            dwell[-1] *= 2
            slots = np.broadcast_to(np.arange(k_count)[:, None], params.shape)
            return _Layout(None, None, None, dwell, slots, length)
        order = np.argsort(-np.abs(params), axis=0, kind="stable")
        sorted_w = np.take_along_axis(params, order, axis=0)
        sorted_abs = np.abs(sorted_w)
        signs = np.where(sorted_w < 0, -1, 1)
        dwell = np.empty((order.shape[0] + 1, order.shape[1]))
        dwell[0] = (abs(length) - sorted_abs[0]) / 2
        dwell[1:-1] = (sorted_abs[:-1] - sorted_abs[1:]) / 2
        dwell[-1] = sorted_abs[-1]
        if length < 0:
            np.negative(dwell, out=dwell)
        codes = np.zeros(dwell.shape, dtype=np.int64)
        np.cumsum(np.where(signs < 0, 2, 1) * self._place[order], axis=0, out=codes[1:])
        slots = self._slot_of[codes[:-1], order, (1 - signs) // 2]
        return _Layout(order, signs, sorted_abs, dwell, slots, length)

    def to_lab(self, u: np.ndarray) -> np.ndarray:
        """The lab-frame matrix ``V_0 u V_0^dagger`` of a drift-frame product ``u``."""
        return self.v0 @ u @ self.v0.conj().T

    def _factors(self, rows: int) -> list[np.ndarray]:
        """The ``2K`` dense factors of ``S`` in product order, for the first ``rows`` rows."""
        return [*self._forward[:, :rows], *self._backward[::-1, :rows]]

    def fill(self, layout: _Layout) -> np.ndarray:
        """Gather the factors of ``layout`` and multiply out its step stack ``S``.

        At ``K = 1`` the fill first asks :func:`_table_degree`, from the
        rows and the bandwidth at the layout's length.
        """
        rows = layout.dwell.shape[1]
        steps = self.steps[:rows]
        self.held, self._spectral = layout, None
        if self._cap:
            degree = _table_degree(abs(layout.length) / 2 * self._spread, rows, steps.shape[1])
            if degree is not None:
                self._fill_spectral(layout, degree, steps)
                return steps
        lam, angle, phase = self._lam[:, :rows], self._angle[:, :rows], self._phase[:, :rows]
        fwd, bwd = self._forward[:, :rows], self._backward[:, :rows]
        np.take(self._lam_b, layout.slots, axis=0, out=lam[1:], mode="clip")
        np.take(self._w, layout.slots, axis=0, out=fwd, mode="clip")
        np.take(self._w_adjoint, layout.slots, axis=0, out=bwd, mode="clip")
        # exp(-i d lambda) as cos and sin of the real angle: np.exp's values, bit for bit
        np.multiply(-layout.dwell[..., None], lam, out=angle)
        np.cos(angle, out=phase.real)
        np.sin(angle, out=phase.imag)
        # forward factors D_j W_{j,j+1} (D_K joins the last), backward W_{j+1,j} D_j
        fwd *= phase[:-1, :, :, None]
        bwd *= phase[:-1, :, None, :]
        fwd[-1] *= phase[-1, :, None, :]
        factors = self._factors(rows)
        acc = factors[0]
        for i, f in enumerate(factors[1:]):
            out = steps if (len(factors) - i) % 2 == 0 else self.scratch[:rows]
            np.matmul(acc, f, out=out)
            acc = out
        return steps

    def _chebyshev_samples(self, length: float, nodes: np.ndarray) -> np.ndarray:
        """``S`` and ``dS/dw`` of both sign slots at the Chebyshev ``nodes`` in ``t``.

        The ``(2, 2, J, N, N)`` samples of :func:`_chebyshev_fill`, from the
        cached eigensystems: sign half ``h`` is slot ``h``, ``+1`` then
        ``-1``, where ``dS/dw = -dS/du`` with ``u = |w|``.
        """
        sign, u = math.copysign(1.0, length), abs(length) / 2 * (nodes + 1)
        lam0, lam, w = self._lam0, self._lam_b[:, None], self._w[:, None]
        outer = np.exp(-1j * sign * (abs(length) - u)[:, None] / 2 * lam0)
        left = outer[:, :, None] * w * np.exp(-1j * sign * u[:, None] * lam)[:, :, None, :]
        right = self._w_adjoint[:, None] * outer[:, None, :]
        # dS/du = -i sign (D_0 W (lambda_1 - c) D_1 W^dagger D_0
        #                 - ((lambda_0a + lambda_0b)/2 - c) S), centred on c
        # to keep the two terms small
        centre = lam0.mean()
        samples = np.stack([left @ right, (left * (lam[..., None, :] - centre)) @ right])
        samples[1] -= ((lam0[:, None] + lam0) / 2 - centre) * samples[0]
        # times d|w|/dw = -1 in the negative half: the derivative table is dS/dw
        samples[1] *= -1j * sign * np.array([1, -1])[:, None, None, None]
        return samples

    def _fill_spectral(self, layout: _Layout, degree: int, out: np.ndarray) -> None:
        """The ``K = 1`` steps of ``layout`` into ``out``: one GEMM against the tables."""
        rows = len(out)
        # T_k(t) of each row in its sign half, zero in the other
        basis = self._basis[: 2 * degree * rows].reshape(degree, 2, rows)
        np.less(layout.signs[0], 0, out=basis[0, 1])
        np.subtract(1.0, basis[0, 1], out=basis[0, 0])
        t2 = self._t2[:rows]
        np.multiply(layout.sorted_abs[0], 4 / abs(layout.length), out=t2)
        t2 -= 2
        sample = functools.partial(self._chebyshev_samples, layout.length)
        self._spectral = _chebyshev_fill(self._chebyshev, layout.length, sample, basis, t2, out)

    def overlap_derivative(self, phi: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """Exact ``d<chi_0|phi_0>`` with respect to every width of the held layout.

        ``phi`` and ``chi`` hold the kets ``S_m ... S_1 |phi_0>`` and bras
        ``<chi_0| S_r ... S_{m+1}`` at the ``r + 1`` step boundaries.  Split
        point ``p`` (``0 .. 2K``) of the factor list cuts ``S`` into the bra
        ``<l_p| = <chi| F_0 ... F_{p-1}`` and the ket ``|r_p> = F_p ...
        F_{2K-1} |phi>``; it sits at one of the two copies of ``D_j`` with
        ``j = min(p, 2K - p)``, and differentiating that copy's dwell inserts
        ``-i H_j``, giving the bracket ``sum_n l_n lambda_n r_n``.  Width
        ``w`` at sorted position ``r`` with sign ``delta`` feeds dwell ``d_r``
        at rate ``-delta/2`` and ``d_{r+1}`` at ``+delta/2`` (both on two
        palindromic copies), or at ``+delta`` on the single centre factor
        when ``r + 1 = K``.  ``|r_0> = S |phi>`` and ``<l_2K| = <chi| S``
        are the states one boundary later and earlier.  The spectral route
        takes ``<chi_m| dS/dw |phi_{m-1}>`` from the derivative table instead
        (:meth:`_spectral_derivative`).  Warns at an exact sorting tie or a
        zero width, where the derivative is one-sided.
        """
        layout = self.held
        sorted_abs, rows = layout.sorted_abs, layout.dwell.shape[1]
        if np.any(sorted_abs[-1] == 0.0) or np.any(sorted_abs[:-1] == sorted_abs[1:]):
            warnings.warn(
                "widths contain an exact sorting tie or a zero width; "
                "the gradient there is one-sided",
                stacklevel=3,
            )
        if self._spectral is not None:
            return self._spectral_derivative(phi, chi)
        factors, k_count = self._factors(rows), len(self._forward)
        kets = [phi[1:], *self._kets[:, :rows], phi[:-1]]
        bras = [chi[1:], *self._bras[:, :rows], chi[:-1]]
        for p in range(2 * k_count - 1, 0, -1):
            np.matmul(factors[p], kets[p + 1][..., None], out=kets[p][..., None])
        for p in range(1, 2 * k_count):
            np.matmul(bras[p - 1][:, None, :], factors[p - 1], out=bras[p][:, None, :])
        brackets = self._brackets[:, :rows]
        for p in range(2 * k_count + 1):
            np.einsum("mn,mn,mn->m", bras[p], self._lam[min(p, 2 * k_count - p), :rows],
                      kets[p], out=brackets[p])
        # i d<overlap>/d dwell_j times the dwell's rate per unit |w|
        # (1/2 for the doubled outer dwells, 1 at the centre)
        per_dwell = np.concatenate(
            [(brackets[:k_count] + brackets[:k_count:-1]) / 2, brackets[k_count:k_count + 1]]
        )
        dc = np.empty(layout.order.shape, dtype=np.complex128)
        np.put_along_axis(
            dc, layout.order, -1j * layout.signs * (per_dwell[1:] - per_dwell[:-1]), axis=0
        )
        return dc

    def _spectral_derivative(self, phi: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """``<chi_m| dS_m/dw |phi_{m-1}>`` of the held spectral fill, as ``(1, rows)``.

        The derivative table gives every row's ``dS/dw`` in the (unused)
        factor stack, by the fill's one real GEMM; the bras times it, dotted
        with the kets, give the brackets.
        """
        basis, tables = self._spectral
        rows = len(basis)
        derivative, images = self._forward[0, :rows], self._bras[0, :rows]
        np.matmul(basis, tables[1], out=derivative.reshape(rows, -1).view(np.float64))
        np.matmul(chi[1:, None, :], derivative, out=images[:, None, :])
        dc = np.empty((1, rows), dtype=np.complex128)
        np.einsum("mn,mn->m", images, phi[:-1], out=dc[0])
        return dc


#: Degree of :class:`_PwcKernel`'s Taylor polynomial, and the largest 1-norm
#: it takes unscaled: at ``||A|| <= theta`` the first dropped term,
#: ``theta^17 / 17!``, is the unit roundoff 2^-53.
_TAYLOR_DEGREE = 16
_TAYLOR_THETA = (2.0**-53 * math.factorial(_TAYLOR_DEGREE + 1)) ** (1 / (_TAYLOR_DEGREE + 1))
#: Coefficient of ``A^i`` (column ``i <= 4``) in each Paterson-Stockmeyer
#: block of :class:`_PwcKernel`: ``B = A^4``, ``C_3 + B / 16!``, ``C_2``,
#: ``C_1`` and ``C_0``.
_BLOCK_COEFFS = np.array(
    [[0, 0, 0, 0, 1]]
    + [[1 / math.factorial(4 * j + i) if i < 4 or j == 3 else 0 for i in range(5)]
       for j in (3, 2, 1, 0)]
)


#: Most squarings the Taylor route takes: its steps leave unitarity by about
#: ``2^s 1e-16``, and measured fills stayed within 1e-8 of it up to s = 24
#: (README "Invariants").
_MAX_SQUARINGS = 24


def _squarings(norm: float) -> int:
    """Squarings that bring a 1-norm ``norm`` down to ``_TAYLOR_THETA``.

    Raises ``ValueError`` when that takes more than :data:`_MAX_SQUARINGS`,
    or ``norm`` is not finite.
    """
    if not norm <= _TAYLOR_THETA * 2.0**_MAX_SQUARINGS:
        raise ValueError(
            f"tau * ||H - mu||_1 = {norm:.6g} needs more than {_MAX_SQUARINGS} squarings "
            "of the PWC step; use a smaller tau"
        )
    return max(0, math.ceil(math.log2(norm / _TAYLOR_THETA))) if norm > 0 else 0


@functools.lru_cache
def _monomial_plan(k_count: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, tuple]:
    """Read-only index plan of the control monomials of degree at most 4 in ``k_count`` values.

    Monomials are ordered by degree, so the first ``counts[d]`` are those of
    degree at most ``d``; monomial 0 is 1 and monomial ``k`` is ``x_k``.
    Monomial ``j`` of degree 2 or more is ``parent[j] * x_{last[j]}``.
    ``scatter[i - 1]``, ``i = 1, 2, 3``, is the 0/1 matrix that sums the
    products of monomial ``b < counts[i]`` with term ``k`` (``k = 0`` the
    drift, else ``x_k``), at flat position ``b (K + 1) + k``, into the
    ``counts[i + 1]`` monomials of degree at most ``i + 1``.
    """
    monomials = [
        word for d in range(5) for word in itertools.combinations_with_replacement(
            range(1, k_count + 1), d)
    ]
    index = {word: j for j, word in enumerate(monomials)}
    counts = tuple(math.comb(k_count + d, d) for d in range(5))
    parent = np.array([index[word[:-1]] if word else 0 for word in monomials])
    last = np.array([word[-1] if word else 0 for word in monomials])
    scatter = []
    for i in range(1, 4):
        targets = [index[tuple(sorted(word + ((k,) if k else ())))]
                   for word in monomials[: counts[i]] for k in range(k_count + 1)]
        scatter.append(np.zeros((counts[i + 1], len(targets))))
        scatter[-1][targets, np.arange(len(targets))] = 1
    return counts, _locked(parent), _locked(last), tuple(map(_locked, scatter))


class _PwcKernel:
    """Batched PWC steps ``exp(-i tau (H0 + sum_k u_k H_k))`` of up to ``rows`` subintervals.

    At ``K = 1`` a fill of at least ``2N`` rows within the degree cap takes
    the table route (:func:`_table_degree`, :meth:`_fill_table`), whose
    table :func:`_chebyshev_fill` builds from :meth:`_table_samples`.  Every
    other fill scales and squares around a Taylor polynomial (Al-Mohy &
    Higham 2009): each step Hamiltonian is shifted by ``mu = tr H / N``,
    which is exact, as ``exp(-i tau mu)`` is a scalar phase applied at the
    end.  One squaring count ``s`` per call brings the largest 1-norm of
    ``A = -i tau (H - mu) / 2^s`` in the stack to at most ``_TAYLOR_THETA``
    (for Hermitian ``H`` the 1-norm bounds the 2-norm); more than
    :data:`_MAX_SQUARINGS` raise ``ValueError``.  The degree-16
    polynomial is evaluated by Paterson-Stockmeyer in ``B = A^4`` (Paterson
    & Stockmeyer 1973),

        p(A) = C_0 + B (C_1 + B (C_2 + B (C_3 + B / 16!))),
        C_j = sum_{i<4} A^i / (4j + i)!.

    ``A = z (T_0 + sum_k x_k T_k)`` is linear in the control values, with
    ``z = -i tau / 2^s`` and ``T_k`` the shifted terms, so every power
    ``A^i``, ``i <= 4``, is ``z^i sum_alpha x^alpha Q_{i,alpha}`` over the
    ``C(K + 4, 4)`` control monomials ``x^alpha`` of degree at most 4, where
    ``Q_{i,alpha}`` sums the length-``i`` words in the ``T_k`` with that
    monomial.  The ``Q`` are built once per kernel, one batched product per
    degree, and recombined into a table of the five blocks only when
    ``(tau, s)`` changes.  A fill then takes all five blocks of every row
    from one real matrix product of the monomials against that table, three
    batched products in ``B`` and the ``s`` squarings.  The monomial sum
    rounds relative to ``sum_k |x_k| ||T_k||`` rather than ``||H - mu||``,
    which is the same scale unless the terms nearly cancel.  All arrays are
    allocated once for ``rows`` rows and filled in place.  The kernel has
    the calls of :class:`_PwmKernel` (``layout``, ``fill``, ``held``,
    ``overlap_derivative``, first-order on both routes); its steps are
    lab-frame, so ``v0`` is ``None``.
    """

    def __init__(self, system: ControlSystem, rows: int) -> None:
        _check_system(system)
        n, k_count = system.dim, system.n_controls
        terms = np.stack([system.drift, *system.controls]).astype(np.complex128)
        self._mu = np.trace(terms, axis1=1, axis2=2).real / n
        terms -= self._mu[:, None, None] * np.eye(n)
        self._terms = terms.reshape(k_count + 1, n * n).view(np.float64)
        counts, self._parent, self._last, scatter = _monomial_plan(k_count)
        # Q_i of every monomial, degree by degree: the Q_{i-1} stacked above
        # each other times the terms side by side, summed into the monomial
        # of each product
        side_by_side = terms.transpose(1, 0, 2).reshape(n, -1)
        self._q = np.zeros((5, counts[-1], n * n), dtype=np.complex128)
        self._q[0, 0] = np.eye(n).ravel()
        self._q[1, : k_count + 1] = terms.reshape(k_count + 1, n * n)
        for i in range(2, 5):
            lower = self._q[i - 1, : counts[i - 1]].reshape(-1, n)
            words = (lower @ side_by_side).reshape(-1, n, k_count + 1, n).transpose(0, 2, 1, 3)
            np.matmul(scatter[i - 2], words.reshape(-1, n * n).view(np.float64),
                      out=self._q[i, : counts[i]].view(np.float64))
        self._q = self._q.reshape(5, -1)
        self._table = np.empty((5, counts[-1], n * n), dtype=np.complex128)
        self._table_key = None
        self._counts = counts
        # the table route's largest Chebyshev degree, 0 where it is not taken
        self._cap = _degree_cap(n) if k_count == 1 else 0
        # the blocks B, C_3 + B / 16!, C_2, C_1 and C_0 of every row, in one
        # allocation with the other step-sized arrays (see _carve)
        c = np.complex128
        (self._blocks, self.steps, self.scratch, self._monomials, self._images,
         self._brackets, self._basis) = _carve(
            ((5, rows * n * n), c), ((rows, n, n), c), ((_level_rows(rows), n, n), c),
            ((rows, counts[-1]), float), ((k_count, n, rows), c), ((k_count, rows), c),
            ((self._cap * rows,), float),  # the table route's Chebyshev basis
        )
        self._monomials[:, 0] = 1.0
        self.held: _PwcPoint | None = None
        self.v0 = None
        self._controls = np.stack(system.controls)
        # table route: the half-spread r_1 and centre m_1 - mu_1 of H_1's spectrum,
        # and the real tables by (tau, c)
        if self._cap:
            low, high = np.linalg.eigvalsh(terms[1])[[0, -1]]
            self._spread, self._centre = (high - low) / 2, (high + low) / 2
        self._chebyshev: dict[tuple[float, float], np.ndarray] = {}

    def layout(self, values: np.ndarray, tau: float) -> _PwcPoint:
        """The point of ``(K, r)`` control ``values``, ``r <= rows``: a locked copy and ``tau``."""
        return _PwcPoint(_locked(np.array(values, dtype=np.float64)), tau)

    def fill(self, point: _PwcPoint) -> np.ndarray:
        """The step stack of ``point``; ``ValueError`` on a non-finite value or ``tau`` (or norm)."""
        values, tau = point
        _check_finite(tau, "tau")
        _check_finite(values, "control values")
        rows, n = values.shape[1], self.steps.shape[1]
        if self._cap:  # c: the least power of two at or above max |u| (1 if all are 0)
            fraction, exponent = math.frexp(float(np.max(np.abs(values))))
            exponent -= fraction == 0.5
            c = math.ldexp(1.0, exponent) if exponent < 1024 else math.inf  # past the largest float
            degree = _table_degree(abs(tau) * c * self._spread, rows, n)
            if degree is not None:
                self.held = point
                return self._fill_table(values[0], tau, c, degree)
        k_count, counts = len(values), self._counts
        monomials, steps = self._monomials[:rows], self.steps[:rows]
        monomials[:, 1 : k_count + 1] = values.T
        linear = monomials[:, : k_count + 1]
        blocks = self._blocks[:, : rows * n * n]
        # H - mu in the step buffer and |H - mu| in the first block
        np.matmul(linear, self._terms, out=steps.reshape(rows, -1).view(np.float64))
        magnitude = blocks[0].view(np.float64)[: rows * n * n].reshape(rows, n, n)
        norm = float(np.max(np.abs(steps, out=magnitude).sum(axis=1)))
        squarings = _squarings(abs(tau) * norm)
        for d in range(2, 5):
            high = slice(counts[d - 1], counts[d])
            np.multiply(monomials[:, self._parent[high]], monomials[:, self._last[high]],
                        out=monomials[:, high])
        if self._table_key != (tau, squarings):
            z = -1j * tau * 0.5**squarings
            np.matmul(_BLOCK_COEFFS * z ** np.arange(5), self._q,
                      out=self._table.reshape(5, -1))
            self._table_key = (tau, squarings)
        np.matmul(monomials, self._table.view(np.float64),
                  out=blocks.view(np.float64).reshape(5, rows, 2 * n * n))
        b, top, c2, c1, c0 = (block.reshape(rows, n, n) for block in blocks)
        np.matmul(b, top, out=steps)
        c2 += steps
        np.matmul(b, c2, out=steps)
        c1 += steps
        # p(A) goes where the squarings, alternating with the top block, end in steps
        p, spare = (top, steps) if squarings % 2 else (steps, top)
        np.matmul(b, c1, out=p)
        p += c0
        for _ in range(squarings):
            np.matmul(p, p, out=spare)
            p, spare = spare, p
        steps *= np.exp(-1j * tau * (linear @ self._mu))[:, None, None]
        self.held = point
        return steps

    def _fill_table(self, u: np.ndarray, tau: float, c: float, degree: int) -> np.ndarray:
        """The ``K = 1`` steps at values ``|u| <= c`` from one real GEMM against a table.

        ``S = exp(-i tau (H_0 - mu_0 + u (H_1 - m_1)))``, ``m_1`` the centre of
        ``H_1``'s spectrum, is entire in ``u / c`` and needs ``degree``
        Chebyshev terms (Tal-Ezer & Kosloff 1984).  :func:`_chebyshev_fill`
        tabulates ``S - I`` once per ``(tau, c)``; the identity and the phase
        ``exp(-i tau (mu_0 + m_1 u))`` are added per row.
        """
        rows, n = len(u), self.steps.shape[1]
        basis, steps = self._basis[: degree * rows].reshape(degree, 1, rows), self.steps[:rows]
        basis[0] = 1.0
        sample = functools.partial(self._table_samples, tau, c)
        _chebyshev_fill(self._chebyshev, (tau, c), sample, basis, u / c * 2, steps)
        steps.reshape(rows, -1)[:, :: n + 1] += 1.0
        steps *= np.exp(-1j * tau * (self._mu[0] + (self._mu[1] + self._centre) * u))[:, None, None]
        return steps

    def _table_samples(self, tau: float, c: float, nodes: np.ndarray) -> np.ndarray:
        """``S - I`` at the values ``c t`` of the Chebyshev ``nodes``, ``(1, 1, J, N, N)``."""
        n = self.steps.shape[1]
        eye = np.eye(n)
        drift, control = self._terms.view(np.complex128).reshape(2, n, n)
        control = control - self._centre * eye
        s = _eigen_exponential(*np.linalg.eigh(drift + c * nodes[:, None, None] * control), tau)
        # one Newton-Schulz step makes each sample unitary to rounding, and
        # the table holds S - I, which keeps the diagonal exact near I
        return (s @ (1.5 * eye - 0.5 * s.conj().transpose(0, 2, 1) @ s) - eye)[None, None]

    def overlap_derivative(self, phi: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """First-order ``d<chi_0|phi_0>`` with respect to every held control value.

        ``phi`` and ``chi`` hold the kets and bras at the ``r + 1`` step
        boundaries, as for :meth:`_PwmKernel.overlap_derivative`.  The rule
        ``dU_m/du_k ~= -i tau H_k U_m`` gives ``-i tau <chi_m| H_k |phi_m>``
        at the boundary after step ``m``: one (N, N) x (N, r) product per
        control.
        """
        values, tau = self.held
        rows = values.shape[1]
        images, brackets = self._images[..., :rows], self._brackets[:, :rows]
        np.matmul(self._controls, phi[1:].T, out=images)
        np.einsum("mn,knm->km", chi[1:], images, out=brackets)
        return -1j * tau * brackets


def _level_rows(m_count: int) -> int:
    """Rows of :func:`_chain`'s levels above ``m_count`` steps: at most ``M + ceil(log2 M)``."""
    return m_count + (m_count - 1).bit_length()


def _chain(steps: np.ndarray, scratch: np.ndarray) -> list[np.ndarray]:
    """Every level of the pairwise reduction of ``steps``, ``steps`` itself first.

    Node ``j`` of level ``l + 1`` is ``level_l[2j + 1] @ level_l[2j]`` and an
    odd last node is carried up, so the last level's one node is ``steps[-1]
    @ ... @ steps[0]``.  The levels above ``steps`` lie end to end in
    ``scratch`` (``_level_rows(M)`` rows); nothing is allocated.
    """
    levels = [steps]
    row = 0
    while len(steps) > 1:
        pairs = len(steps) // 2
        out = scratch[row : row + len(steps) - pairs]
        np.matmul(steps[1 : 2 * pairs : 2], steps[0 : 2 * pairs : 2], out=out[:pairs])
        if len(out) > pairs:
            out[-1] = steps[-1]
        levels.append(out)
        steps, row = out, row + len(out)
    return levels


class TermCache:
    """Eigendecompositions of the drift and each control Hamiltonian alone.

    Used by the split-operator scheme, whose factors are single-term
    exponentials with a per-step scalar in the exponent: :func:`step_spo`
    builds them one by one, and :func:`evolve` seeds a batched kernel's
    ``K`` basis changes ``V_j^dagger V_{j+1}`` (``_slots``, no table) from
    them.  The constructor builds them, and by one batched ``eigh`` the
    drift's (row 0) and each control's eigensystem, all read-only.  Like
    :class:`HamiltonianCache` it belongs to one system object (it holds no
    amplitudes): the constructor rejects a system that fails
    ``validate_system`` and :func:`step_spo` rejects a cache built for
    another system object.
    """

    def __init__(self, system: ControlSystem) -> None:
        _check_system(system)
        self.system = system
        stack = np.stack([system.drift, *system.controls])
        self._lam, self._bases = map(_locked, np.linalg.eigh(stack))
        j = np.arange(system.n_controls)
        self._slots = (*_basis_changes(self._lam, self._bases, j, j + 1), None)

    def entry(self, index: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the drift (``None``) or control ``index``."""
        row = 0 if index is None else _check_int(index, "index", 0, self.system.n_controls) + 1
        return self._lam[row], self._bases[row]

    def factor(self, index: int | None, theta: float) -> np.ndarray:
        return _eigen_exponential(*self.entry(index), theta)


@dataclass(frozen=True, eq=False)
class PulseFrame:
    """Sorted layout of one subinterval's pulses and the resulting dwell times.

    ``order`` lists the active (nonzero-width) control indices sorted by
    decreasing ``|w|`` (ties broken by ascending index); ``signs[k]`` is
    ``sign(w_k)`` for every control, 0 if inactive.  ``dwell`` has
    ``len(order) + 1`` entries: every entry but the last is applied twice
    (symmetrically), the last entry once at the centre, so

        2 * (dwell[0] + ... + dwell[-2]) + dwell[-1] == tau.

    With no active pulses ``dwell`` is the single entry ``(tau,)``.
    """

    tau: float
    widths: np.ndarray
    order: tuple[int, ...]
    signs: tuple[int, ...]
    dwell: np.ndarray

    def active_durations(self) -> np.ndarray:
        """Total time each control in ``order`` is switched on; equals ``|w|``."""
        d = self.dwell
        out = np.empty(len(self.order))
        for pos in range(len(self.order)):
            out[pos] = 2 * float(np.sum(d[pos + 1 : -1])) + float(d[-1])
        return out

    def prefixes(self) -> list[tuple]:
        """Cache keys of the cumulative Hamiltonians, one per dwell entry."""
        keys: list[tuple] = []
        acc: list[tuple[int, int]] = []
        keys.append(())
        for k in self.order:
            acc.append((k, self.signs[k]))
            keys.append(tuple(sorted(acc)))
        return keys


def frame_from_widths(widths, tau: float) -> PulseFrame:
    """Sort one subinterval's signed widths into a :class:`PulseFrame`.

    Zero widths are left out of the order; ``tau`` must be positive and finite.
    Widths beyond it by at most 1e-9 relative are clipped to it; larger ones raise ``ValueError``.
    """
    w = _as_widths(np.atleast_1d(widths), _check_step(tau, "tau"))
    if w.ndim != 1:
        raise ValueError("widths must be one-dimensional")
    signs = [0 if x == 0.0 else (1 if x > 0 else -1) for x in w]
    active = [k for k in range(w.size) if w[k] != 0.0]
    # descending |w|; ties broken by ascending control index
    order = tuple(sorted(active, key=lambda k: (-abs(w[k]), k)))
    if not order:
        dwell = np.array([tau])
    else:
        sorted_abs = np.abs(w[list(order)])
        dwell = np.empty(len(order) + 1)
        dwell[0] = (tau - sorted_abs[0]) / 2
        dwell[1:-1] = (sorted_abs[:-1] - sorted_abs[1:]) / 2
        dwell[-1] = sorted_abs[-1]
    return PulseFrame(
        tau=tau, widths=_locked(w), order=order, signs=tuple(signs), dwell=_locked(dwell)
    )


def build_frame(seq: PWMSequence, m: int) -> PulseFrame:
    """Frame for subinterval ``m`` (1-based) of a pulse sequence."""
    m = _check_int(m, "subinterval index m", 1, seq.n_pulses + 1)
    return frame_from_widths(seq.widths[:, m - 1], seq.tau)


def _checked_cache(cache, system: ControlSystem, amplitudes=None):
    """``cache`` if it is a :class:`HamiltonianCache` built for this system
    object and ``amplitudes``, or without them a :class:`TermCache` built for it.

    Without a ``cache`` a new one of that class is built; another class,
    system object or amplitudes raise ``ValueError``.
    """
    if cache is None:
        return TermCache(system) if amplitudes is None else HamiltonianCache(system, amplitudes)
    expected = TermCache if amplitudes is None else HamiltonianCache
    if not isinstance(cache, expected):
        raise ValueError(f"cache must be a {expected.__name__}, got {type(cache).__name__}")
    if cache.system is not system:
        raise ValueError("cache was built for another system object")
    if amplitudes is not None and not np.array_equal(
        cache.amplitudes, _as_amplitudes(amplitudes, system.n_controls)
    ):
        raise ValueError("cache was built for other amplitudes")
    return cache


def _pwm_factors(cache: HamiltonianCache, frame: PulseFrame) -> list[np.ndarray]:
    """The full palindromic factor list of one PWM step, left to right."""
    inner = [cache.factor(p, th) for p, th in zip(frame.prefixes(), frame.dwell)]
    return inner[:-1] + [inner[-1]] + inner[-2::-1]


def step_pwm(
    system: ControlSystem,
    amplitudes,
    frame: PulseFrame,
    cache: HamiltonianCache | None = None,
) -> np.ndarray:
    """Second-order PWM propagator for one subinterval.

    Multiplies the factors one by one, the reference for the batched kernel;
    at most four controls.  A ``cache`` must be a :class:`HamiltonianCache`
    for ``system`` and ``amplitudes``; without one each call builds a whole
    cache, so pass one cache when stepping frame by frame.
    """
    _check_controls("frame", frame.widths.size, system.n_controls)
    cache = _checked_cache(cache, system, amplitudes)
    return functools.reduce(np.matmul, _pwm_factors(cache, frame))


def _control_values(system: ControlSystem, control_values, tau: float) -> np.ndarray:
    """One subinterval's ``(K,)`` control values as floats, finite like the signed ``tau``."""
    u_mid = np.atleast_1d(np.asarray(control_values, dtype=np.float64))
    if u_mid.shape != (system.n_controls,):
        raise ValueError(f"expected {system.n_controls} control values")
    _check_finite(tau, "tau")
    return _check_finite(u_mid, "control values")


def step_pwc(system: ControlSystem, control_values, tau: float) -> np.ndarray:
    """Piecewise-constant propagator ``exp(-i tau H(t_mid))`` for one subinterval.

    :func:`expm_hermitian` of ``H0 + sum_k u_k H_k``, the reference for
    :func:`evolve`'s batched PWC steps.  Raises ``ValueError`` on a
    non-finite value or ``tau``.
    """
    _check_system(system)
    u_mid = _control_values(system, control_values, tau)
    return expm_hermitian(system.drift + sum(u * h for u, h in zip(u_mid, system.controls)), tau)


def step_spo(
    system: ControlSystem,
    control_values,
    tau: float,
    cache: TermCache | None = None,
) -> np.ndarray:
    """Symmetric split-operator (Strang) propagator for one subinterval.

    Half-steps of each term are applied in ascending then descending order,
    with the control amplitudes frozen at their subinterval-midpoint values:

        U = prod_{k=0..K} e^{-i (tau/2) u_k H_k} * prod_{k=K..0} e^{-i (tau/2) u_k H_k}

    where ``u_0 = 1`` multiplies the drift.  Multiplies the factors one by
    one, the reference for :func:`evolve`'s batched steps.  A ``cache`` must
    have been built for ``system``.
    """
    u_mid = _control_values(system, control_values, tau)
    cache = _checked_cache(cache, system)
    half = tau / 2
    ascending = [cache.factor(None, half)]
    ascending += [cache.factor(k, half * u_mid[k]) for k in range(u_mid.size)]
    return functools.reduce(np.matmul, ascending + ascending[::-1])


def suzuki_coefficient(n: int) -> float:
    """Composition coefficient ``s`` for raising order 2n-2 to 2n.

    The real odd root gives ``s = 1 / (2 - 2^(1/(2n-1)))``, the unique real
    solution of ``2 s^(2n-1) + (1 - 2s)^(2n-1) = 0`` with ``s > 1``.
    """
    n = _check_int(n, "order index n", 2)
    return 1.0 / (2.0 - 2.0 ** (1.0 / (2 * n - 1)))


def _check_controls(name: str, count: int, n_controls: int) -> None:
    """``ValueError`` unless per-control data ``name`` has the system's ``n_controls`` controls."""
    if count != n_controls:
        raise ValueError(f"{name} has {count} controls, system has {n_controls}")


def _is_sampled(field, n_controls: int) -> bool:
    """Whether ``field`` is a :class:`SampledField`; ``ValueError`` on a wrong control count."""
    if not isinstance(field, SampledField):
        return False
    _check_controls("field", field.n_controls, n_controls)
    return True


def _field_values(field, times, n_controls: int) -> np.ndarray:
    """Field samples at the flattened ``times`` as a ``(K, times.size)`` array.

    A callable field is called once with the flat array of times and must
    return shape ``(K, n)``, or ``(n,)`` when ``K = 1``.
    """
    times = np.asarray(times, dtype=np.float64).ravel()
    if _is_sampled(field, n_controls):
        return np.atleast_2d(field.value(times))
    values = np.asarray(field(times), dtype=np.float64)
    if n_controls == 1 and values.shape == times.shape:
        values = values[None]
    if values.shape != (n_controls, times.size):
        expected = f"({n_controls}, {times.size})"
        if n_controls == 1:
            expected += f" or ({times.size},)"
        raise ValueError(f"field callable returned shape {values.shape}, expected {expected}")
    return values


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, ...]:
    """The 64 read-only Gauss-Legendre nodes and weights of :func:`_field_integral`, built once."""
    return tuple(map(_locked, np.polynomial.legendre.leggauss(64)))


def _field_integral(field, a: np.ndarray, b: np.ndarray, n_controls: int) -> np.ndarray:
    """Signed integral of each control over the windows ``[a, b]``, shape ``(K, len(a))``.

    Exact for :class:`SampledField` (piecewise-constant data, zero outside
    its domain); 64-node Gauss-Legendre for callables, which is effectively
    exact for smooth fields on subinterval-sized windows.
    """
    if _is_sampled(field, n_controls):
        return field.integral(a, b)
    half = (b - a) / 2
    mid = (a + b) / 2
    nodes, weights = _gauss_legendre()
    times = mid[:, None] + half[:, None] * nodes
    values = _field_values(field, times, n_controls).reshape(n_controls, *times.shape)
    return (values @ weights) * half


def _suzuki_steps(
    kernel: _PwmKernel, field, base_widths, tau: float, offset: int, start, length: float,
    level: int,
) -> np.ndarray:
    """Drift-frame steps of order ``2 * level`` over the windows ``[start, start + length]``.

    ``start`` holds one window start per row, row 0 being subinterval
    ``offset + 1``; the rows share the signed ``length``, so each Suzuki
    sub-window position is one kernel call over all rows.  Sub-window widths
    are integrated from ``field``, or without one the ``(K, rows)``
    ``base_widths`` are scaled to the sub-window length; then the two outer
    sub-windows of a level are the same step, built once.
    """
    if level == 1:
        xi = kernel.cache.amplitudes
        if field is None:
            widths = base_widths * (abs(length) / tau)
        else:
            lo, hi = (start, start + length) if length > 0 else (start + length, start)
            widths = _field_integral(field, lo, hi, xi.size) / xi[:, None]
        return kernel.fill(kernel.layout(_as_widths(widths, abs(length), offset), length))
    s = suzuki_coefficient(level)
    args = (kernel, field, base_widths, tau, offset)
    # each call refills the kernel's step stack, so the earlier results are copied
    first = _suzuki_steps(*args, start, s * length, level - 1).copy()
    middle = _suzuki_steps(*args, start + s * length, (1 - 2 * s) * length, level - 1)
    if field is None:
        # scaled widths do not depend on the start: the last sub-window is the first
        return first @ middle @ first
    middle = middle.copy()
    last = _suzuki_steps(*args, start + (1 - s) * length, s * length, level - 1)
    return last @ middle @ first


def _check_sequence(seq: PWMSequence, system: ControlSystem, tau: float | None,
                    amplitudes=None) -> float:
    """``tau``, or ``seq.tau`` when it is ``None``.

    Raises ``ValueError`` when the sequence has another control count than
    ``system``, or a given ``tau`` or ``amplitudes`` disagree with the
    sequence's own (beyond 1e-12 relative).
    """
    _check_controls("sequence", seq.n_controls, system.n_controls)
    if tau is not None and not math.isclose(tau, seq.tau, rel_tol=1e-12):
        raise ValueError("tau disagrees with the sequence subinterval")
    if amplitudes is not None and not np.allclose(
        _as_amplitudes(amplitudes, seq.n_controls), seq.amplitudes, rtol=1e-12, atol=0
    ):
        raise ValueError("amplitudes disagree with the sequence amplitudes")
    return seq.tau if tau is None else tau


def step_pwm_higher(
    system: ControlSystem,
    amplitudes,
    source,
    m: int,
    n: int,
    tau: float | None = None,
    cache: HamiltonianCache | None = None,
) -> np.ndarray:
    """Order-2n PWM propagator for subinterval ``m`` by Suzuki composition.

    Each recursion level splits the window into three sub-windows of signed
    lengths ``s*tau``, ``(1-2s)*tau``, ``s*tau``; since ``s > 1`` the middle
    one runs backwards and the outer ones overshoot the nominal subinterval.
    With a field source (``SampledField`` or callable) the widths of every
    sub-window are re-integrated from the field, which preserves the full
    order; with only a :class:`PWMSequence` the stored widths are scaled
    proportionally to the sub-window length, a cruder variant that no longer
    sees intra-subinterval field variation.  Every sub-window is one call of
    the batched kernel with a signed length; a backward sub-window negates
    all dwells, which gives the exact inverse of the forward step.  A
    ``cache`` must have been built for ``system`` and ``amplitudes``; with a
    sequence, ``amplitudes`` or a ``tau`` that disagree with its own raise
    ``ValueError``, as does a field's ``tau`` that is not positive and finite.
    """
    n = _check_int(n, "order index n", 2)
    sequence = isinstance(source, PWMSequence)
    m = _check_int(m, "subinterval index m", 1, source.n_pulses + 1 if sequence else None)
    if sequence:
        tau = _check_sequence(source, system, tau, amplitudes)
        base_widths = source.widths[:, m - 1 : m]
        field = None
    else:
        if tau is None:
            raise ValueError("tau is required with a field source")
        _check_step(tau, "tau")
        base_widths = None
        field = source
    kernel = _PwmKernel(_checked_cache(cache, system, amplitudes), 1)
    start = np.array([(m - 1) * tau])
    return kernel.to_lab(_suzuki_steps(kernel, field, base_widths, tau, m - 1, start, tau, n)[0])


def reference_propagator(
    system: ControlSystem, field, t_start: float, t_end: float, resolution: int = 10_000
) -> np.ndarray:
    """Brute-force reference: ordered product of midpoint-rule exponentials.

    Splits the positive, finite span ``[t_start, t_end]`` into ``resolution``
    (100 to 10**7) equal slices and applies ``exp(-i dt H(t_mid))`` in order.
    Error falls off as ``resolution^-2``; when the field is a
    :class:`SampledField` whose cell boundaries align with the slices, the
    result is the exact propagator of the piecewise-constant field.  A
    callable field is called once with the array of the slice midpoints and
    returns their samples as ``(K, resolution)``, or ``(resolution,)`` for
    one control.  The slice exponentials come from ``eigh``, independent of
    the PWC kernel, and are reduced pairwise in blocks sized like :func:`evolve`'s.
    """
    return _reference(system, field, t_start, t_end - t_start, resolution)


def _reference(system: ControlSystem, field, t_start: float, span: float, resolution: int):
    """:func:`reference_propagator` over ``[t_start, t_start + span]``, given the span itself."""
    _check_system(system)
    resolution = _check_int(resolution, "resolution", 100, _MAX_SAMPLES + 1)
    dt = _check_step(span, "t_end - t_start") / resolution
    mids = t_start + (np.arange(resolution) + 0.5) * dt
    u_vals = _field_values(field, mids, system.n_controls)
    controls, n = np.stack(system.controls), system.dim
    rows = _block_rows(system, resolution)

    def steps(block: slice) -> np.ndarray:
        h = np.einsum("kr,kab->rab", u_vals[:, block], controls)
        h += system.drift
        return _eigen_exponential(*np.linalg.eigh(h), dt)

    scratch = np.empty((_level_rows(rows), n, n), dtype=np.complex128)
    return _block_product(steps, resolution, rows, scratch)


def _parse_scheme(scheme: str) -> tuple[str, int | None]:
    """Scheme kind and, for PWM schemes, the Suzuki level (1 for plain ``pwm``)."""
    name = scheme.lower().strip()
    if name in ("pwc", "spo", "pwm"):
        return name, 1 if name == "pwm" else None
    if name.startswith("pwm"):
        try:
            order = int(name[3:])
        except ValueError:
            raise ValueError(f"unknown scheme {scheme!r}") from None
        if order < 4 or order % 2:
            raise ValueError(f"scheme {scheme!r}: order must be an even integer >= 4")
        return "pwm2n", order // 2
    raise ValueError(f"unknown scheme {scheme!r}")


def _block_rows(system: ControlSystem, m_count: int) -> int:
    """Subintervals (or reference slices) per block: ``_BLOCK_ENTRIES`` over ``2K + 4`` stacks."""
    per_row = (2 * system.n_controls + 4) * system.dim**2
    return max(1, min(m_count, _BLOCK_ENTRIES // per_row))


def _block_product(steps, m_count: int, rows: int, scratch: np.ndarray) -> np.ndarray:
    """``U_M ... U_1`` of ``m_count`` steps built ``rows`` at a time.

    ``steps(block)`` returns the step stack of the subintervals in the slice
    ``block``; each stack is reduced pairwise by :func:`_chain` in ``scratch``.
    """
    u = np.eye(scratch.shape[-1], dtype=np.complex128)
    for first in range(0, m_count, rows):
        # a stack freed before the next one is built lets the allocator return
        # the heap top to the system, and every block faults it in again
        # (about 100x the minor faults of the reference at N = 32)
        block = steps(slice(first, first + rows))
        u = _chain(block, scratch)[-1][0] @ u
    return u


def evolve(
    system: ControlSystem,
    scheme: str,
    source,
    tau: float | None = None,
    amplitudes=None,
) -> np.ndarray:
    """Propagator over the full duration of ``source`` under one scheme.

    ``scheme`` is ``"pwc"``, ``"spo"``, ``"pwm"``, or ``"pwm4"``, ``"pwm6"``,
    ... for the Suzuki-composed higher orders.  PWM schemes take a
    :class:`PWMSequence`, or a :class:`SampledField` plus ``amplitudes`` and
    ``tau`` (converted internally); with a sequence, a ``tau`` or
    ``amplitudes`` that disagree with its own raise ``ValueError`` (equal
    ones are accepted).  PWC and split-operator take a
    :class:`SampledField` plus ``tau``; amplitudes are read at subinterval
    midpoints.

    Steps are built batched over blocks of subintervals sized from N and
    K, and each block is reduced pairwise.  PWM blocks make one call of the
    batched kernel per Suzuki sub-window position, with its signed length;
    from a sequence the two outer sub-windows of a level are one call.
    A split-operator or PWC block is one ``fill(layout(values, tau))`` of the
    PWM kernel seeded with the eigenbases of the drift and of each control
    alone, or of the PWC kernel.  The step-by-step references are
    :func:`step_pwm` and :func:`step_spo`, which multiply cached factors one
    by one, and :func:`step_pwc`, one :func:`expm_hermitian`.  A ``tau`` that is
    not positive and finite, or a field duration that is not a whole number
    of it, raises :class:`~pwmctrl.pwm.GridError`.  A callable source
    raises ``ValueError`` for PWM schemes, which need a sampled duration.
    """
    kind, level = _parse_scheme(scheme)
    if kind in ("pwc", "spo"):
        if not isinstance(source, SampledField):
            raise ValueError(f"scheme {scheme!r} requires a SampledField input")
        if tau is None:
            raise ValueError(f"scheme {scheme!r} requires tau")
        m_count = _step_count(source.duration, tau, ("field duration", "tau"))
        mids = (np.arange(m_count) + 0.5) * tau
        u_vals = _field_values(source, mids, system.n_controls)
        rows = _block_rows(system, m_count)
        kernel = _PwmKernel(TermCache(system), rows) if kind == "spo" else _PwcKernel(system, rows)
        u = _block_product(
            lambda block: kernel.fill(kernel.layout(u_vals[:, block], tau)),
            m_count, rows, kernel.scratch,
        )
        return u if kernel.v0 is None else kernel.to_lab(u)

    if isinstance(source, PWMSequence):
        seq, field = source, None
        _check_sequence(seq, system, tau, amplitudes)
    elif not _is_sampled(source, system.n_controls):
        raise ValueError(
            f"scheme {scheme!r} takes a PWMSequence, or a SampledField with amplitudes and tau"
        )
    else:
        if amplitudes is None or tau is None:
            raise ValueError(f"scheme {scheme!r} with a field input requires amplitudes and tau")
        seq = pwm_approximate(source, amplitudes, tau)
        field = source if kind == "pwm2n" else None
    tau, rows = seq.tau, _block_rows(system, seq.n_pulses)
    kernel = _PwmKernel(HamiltonianCache(system, seq.amplitudes), rows)
    starts = np.arange(seq.n_pulses) * tau

    def steps(block: slice) -> np.ndarray:
        widths = seq.widths[:, block]
        return _suzuki_steps(kernel, field, widths, tau, block.start, starts[block], tau, level)

    return kernel.to_lab(_block_product(steps, seq.n_pulses, rows, kernel.scratch))


@dataclass(frozen=True)
class ErrorOrderFit:
    """Log-log least-squares fit of single-step error against ``tau``.

    ``saturated`` flags a degenerate fit where every error was at rounding
    level (below 1e-13), in which case ``slope`` is meaningless (NaN).
    """

    scheme: str
    taus: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    saturated: bool


def error_order(
    scheme: str,
    system: ControlSystem,
    field,
    tau_list,
    amplitudes=None,
    resolution: int = 10_000,
    t_start: float = 0.0,
) -> ErrorOrderFit:
    """Measure the local (single-step) error order of a scheme.

    For each ``tau`` the scheme's one-subinterval propagator over
    ``[t_start, t_start + tau]`` is compared in Frobenius norm against
    :func:`reference_propagator`, and a line is fitted to the log-log points.
    PWM schemes require ``amplitudes``.  A smooth callable field is
    recommended: the higher-order scheme integrates sub-windows slightly
    outside the step and a zero-extended sampled field would degrade there.
    A callable receives an array of ``n`` times per use (the reference's
    slice midpoints, the step's midpoint or its quadrature nodes) and returns
    ``(K, n)``, or ``(n,)`` for one control.  Before any propagator is
    built, each ``tau`` that is not positive and finite raises
    :class:`~pwmctrl.pwm.GridError`, and a non-finite ``t_start`` raises
    ``ValueError``, as do fewer than two distinct ``tau``, a ``resolution``
    not an integer in ``100..10**7``, and a ``t_start`` whose float spacing
    exceeds the slice width ``min(tau) / resolution``, where midpoints collapse.
    """
    kind, level = _parse_scheme(scheme)
    if kind in ("pwm", "pwm2n") and amplitudes is None:
        raise ValueError(f"scheme {scheme!r} requires amplitudes")
    _check_finite(t_start, "t_start")
    taus = [_check_step(float(t), "tau") for t in tau_list]
    if len(set(taus)) < 2:
        raise ValueError(f"need at least two tau values to fit a slope, got {sorted(set(taus))}")
    resolution = _check_int(resolution, "resolution", 100, _MAX_SAMPLES + 1)
    _check_start(t_start, taus, resolution)
    kernel = _PwmKernel(HamiltonianCache(system, amplitudes), 1) if level else None
    errors = []
    for tau in taus:
        ref = _reference(system, field, t_start, tau, resolution)
        if kind in ("pwc", "spo"):
            u_mid = _field_values(field, [t_start + tau / 2], system.n_controls)[:, 0]
            step = (step_pwc if kind == "pwc" else step_spo)(system, u_mid, tau)
        else:
            start = np.array([t_start])
            step = kernel.to_lab(_suzuki_steps(kernel, field, None, tau, 0, start, tau, level)[0])
        errors.append(frobenius_distance(step, ref))
    saturated = max(errors) <= 1e-13
    slope = intercept = math.nan
    if not saturated:
        slope, intercept = np.polyfit(np.log(taus), np.log(errors), 1)
    return ErrorOrderFit(
        scheme=scheme,
        taus=tuple(taus),
        errors=tuple(errors),
        slope=float(slope),
        intercept=float(intercept),
        saturated=saturated,
    )
