"""Analytic multiplication counts for the propagation schemes.

The model charges an order-``p`` Taylor exponential ``p - 1`` matrix-matrix
products and charges the cached-eigenbasis product form one matrix-matrix
product per factor plus the diagonal phase work; it counts scalar
multiplications per time step.  These are closed-form estimates for
comparing scheme cost across Hilbert-space dimension ``N``, Taylor order
``p``, and control count ``K`` — not measured FLOPs of the kernels.
The PWC side is now the code's own kernel too: a degree-16 Taylor
polynomial by Paterson-Stockmeyer, whose blocks in ``A``, ``A^2``, ``A^3``
and ``A^4`` come from one product of the control monomials against a
precomputed table, then three matrix products per step plus one per
squaring, where this model's plain Horner form charges ``p - 1 = 15``.
The PWM kernel may take a step's inner congruence from one GEMM per inner
basis change instead of one batched product.  That GEMM does the same
``N^3`` multiplications per step.  At ``K = 1`` a step may instead be one
row of a ``(rows, 2J) @ (2J, 2N^2)`` real GEMM against a Chebyshev table in
the pulse width, which does ``4 J N^2`` real multiplications per step for a
degree ``J`` set by ``tau`` times the spectral spread.  This analytic model
counts the product form and is unchanged, and so is criterion 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GammaGrid",
    "boundary_order",
    "cost_pwc",
    "cost_pwm",
    "default_dims",
    "default_orders",
    "gamma",
    "gamma_grid",
]


def _check(dim: int, order: int, n_controls: int) -> None:
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if order < 2:
        raise ValueError("order must be at least 2")
    if n_controls < 1:
        raise ValueError("n_controls must be at least 1")


def cost_pwc(dim: int, order: int, n_controls: int) -> int:
    """Multiplications per step for the frozen-Hamiltonian scheme.

    Assembling the step Hamiltonian costs ``K N^2`` scalar products; the
    order-``p`` Taylor exponential costs ``p - 1`` matrix products of
    ``N^3`` multiplications each.
    """
    _check(dim, order, n_controls)
    return (order - 1) * dim**3 + n_controls * dim**2


def cost_pwm(dim: int, order: int, n_controls: int) -> int:
    """Multiplications per step for the cached-eigenbasis pulse scheme.

    A step is a palindromic product of ``2K + 1`` cached factors: ``2K - 1``
    matrix products of ``N^3``, diagonal phase application at ``N^2`` per
    product, and ``(p - 1) K N`` scalar work for the phase exponentials.
    """
    _check(dim, order, n_controls)
    return (
        (2 * n_controls - 1) * dim**3
        + (2 * n_controls - 1) * dim**2
        + (order - 1) * n_controls * dim
    )


def gamma(dim: int, order: int, n_controls: int) -> float:
    """Cost ratio ``cost_pwm / cost_pwc``; below 1 the pulse scheme is cheaper."""
    return cost_pwm(dim, order, n_controls) / cost_pwc(dim, order, n_controls)


def boundary_order(dim: int, n_controls: int) -> float:
    """Taylor order at which the two schemes cost the same, for fixed ``N, K``.

    Solving ``cost_pwm = cost_pwc`` for ``p`` gives

        p = 1 + ((2K - 1) N^2 + (K - 1) N) / (N^2 - K).

    Returns ``nan`` when ``N^2 <= K`` (no crossing: the ratio cannot reach 1).
    """
    if dim < 2 or n_controls < 1:
        raise ValueError("dim must be >= 2 and n_controls >= 1")
    n, k = float(dim), float(n_controls)
    if n**2 <= k:
        return float("nan")
    return 1.0 + ((2 * k - 1) * n**2 + (k - 1) * n) / (n**2 - k)


def default_dims(count: int = 40, low: int = 2, high: int = 200) -> np.ndarray:
    """Log-spaced unique integer dimensions in ``[low, high]``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 2 <= low <= high:
        raise ValueError("need 2 <= low <= high")
    raw = np.geomspace(low, high, num=count)
    return np.unique(np.rint(raw).astype(int))


def default_orders(low: int = 2, high: int = 30) -> np.ndarray:
    """All integer Taylor orders in ``[low, high]``."""
    if not 2 <= low <= high:
        raise ValueError("need 2 <= low <= high")
    return np.arange(low, high + 1)


@dataclass(frozen=True, eq=False)
class GammaGrid:
    """Cost-ratio surface over a (dimension, order) grid at fixed ``K``.

    ``values[i, j] = gamma(dims[i], orders[j], n_controls)``; ``boundary[i]``
    is the equal-cost order for ``dims[i]`` (``nan`` where no crossing).
    """

    n_controls: int
    dims: np.ndarray
    orders: np.ndarray
    values: np.ndarray
    boundary: np.ndarray


def gamma_grid(
    n_controls: int,
    dims: np.ndarray | None = None,
    orders: np.ndarray | None = None,
) -> GammaGrid:
    """Evaluate the cost ratio on a grid, with the equal-cost boundary."""
    dims = default_dims() if dims is None else np.asarray(dims, dtype=int)
    orders = default_orders() if orders is None else np.asarray(orders, dtype=int)
    if dims.ndim != 1 or orders.ndim != 1 or dims.size == 0 or orders.size == 0:
        raise ValueError("dims and orders must be non-empty 1-d arrays")
    values = np.empty((dims.size, orders.size))
    for i, n in enumerate(dims):
        for j, p in enumerate(orders):
            values[i, j] = gamma(int(n), int(p), n_controls)
    boundary = np.array([boundary_order(int(n), n_controls) for n in dims])
    return GammaGrid(
        n_controls=n_controls, dims=dims, orders=orders, values=values, boundary=boundary
    )
