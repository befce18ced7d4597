"""Bilinear quantum control systems and the ten-level benchmark molecule.

A control system is a drift Hamiltonian ``H0`` plus ``K`` control
Hamiltonians ``H_k``, each coupled through a real scalar field ``u_k(t)``:

    H(t) = H0 + sum_k u_k(t) * H_k

All Hamiltonians are Hermitian ``N x N`` complex matrices with ``hbar = 1``;
energies and times are dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ControlSystem",
    "SystemValidation",
    "basis_state",
    "build_ten_level_system",
    "validate_system",
]

#: Elementwise tolerance on |H - H^dag| for a matrix to count as Hermitian.
HERMITICITY_TOL = 1e-12


def _locked(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ControlSystem:
    """Drift plus control Hamiltonians defining a bilinear control problem.

    The constructor only checks shape consistency so that broken systems can
    still be built and inspected; use :func:`validate_system` to check the
    full set of invariants (finite entries, hermiticity, N >= 2, K >= 1).
    """

    drift: np.ndarray
    controls: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        drift = _locked(np.array(self.drift, dtype=np.complex128))
        if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
            raise ValueError(f"drift must be a square matrix, got shape {drift.shape}")
        n = drift.shape[0]
        controls = tuple(_locked(np.array(h, dtype=np.complex128)) for h in self.controls)
        for k, h in enumerate(controls):
            if h.shape != (n, n):
                raise ValueError(
                    f"control {k} has shape {h.shape}, expected {(n, n)}"
                )
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "controls", controls)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension N."""
        return self.drift.shape[0]

    @property
    def n_controls(self) -> int:
        """Number of control Hamiltonians K."""
        return len(self.controls)


@dataclass(frozen=True)
class SystemValidation:
    """Outcome of :func:`validate_system`.

    ``residuals`` maps each matrix name (``"drift"``, ``"control 0"``, ...)
    to its max elementwise hermiticity defect ``max |H - H^dag|`` (NaN for a
    matrix with a non-finite entry).
    """

    ok: bool
    issues: tuple[str, ...] = ()
    residuals: dict[str, float] = field(default_factory=dict)


def validate_system(system: ControlSystem) -> SystemValidation:
    """Check dimension and hermiticity invariants of a control system.

    Succeeds iff N >= 2, K >= 1, all matrices are N x N, every entry is
    finite, and every matrix is Hermitian to within ``HERMITICITY_TOL``
    elementwise.
    """
    issues: list[str] = []
    residuals: dict[str, float] = {}
    if system.dim < 2:
        issues.append(f"dimension must be at least 2, got N={system.dim}")
    if system.n_controls < 1:
        issues.append("at least one control Hamiltonian is required")
    named = [("drift", system.drift)]
    named += [(f"control {k}", h) for k, h in enumerate(system.controls)]
    for name, h in named:
        if not np.isfinite(h).all():
            issues.append(f"{name} has non-finite entries")
            residuals[name] = float("nan")
            continue
        residual = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
        residuals[name] = residual
        if residual > HERMITICITY_TOL:
            issues.append(
                f"{name} is not Hermitian: max |H - H^dag| = {residual:.3e}"
            )
    return SystemValidation(ok=not issues, issues=tuple(issues), residuals=residuals)


def _check_system(system: ControlSystem) -> None:
    """Raise ``ValueError`` unless :func:`validate_system` passes.

    Called where a system enters the numerics: ``eigh`` reads only one
    triangle, so a non-Hermitian matrix would give a silently wrong propagator.
    """
    report = validate_system(system)
    if not report.ok:
        raise ValueError("; ".join(report.issues))


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> of an N-level system (0-based)."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    state = np.zeros(dim, dtype=np.complex128)
    state[index] = 1.0
    return state


def build_ten_level_system() -> ControlSystem:
    """Ten-level molecular benchmark with a single dipole-type control.

    The drift is diagonal with energies
    ``1, 5, 7, 8, 9, 10, 11, 11.8, 12.1, 12.4`` and the control Hamiltonian
    is ``-mu`` for a symmetric dipole matrix ``mu`` with zero diagonal.  The
    strong transition moments sit on the lowest four levels; every remaining
    off-diagonal element is a weak background coupling of 0.001.  Deliberately
    included: the 1-4 moment is exactly zero, so direct population transfer
    from level 1 to level 4 must route through intermediate levels.
    """
    energies = [1.0, 5.0, 7.0, 8.0, 9.0, 10.0, 11.0, 11.8, 12.1, 12.4]
    drift = np.diag(energies).astype(np.complex128)

    n = len(energies)
    mu = np.full((n, n), 0.001)
    np.fill_diagonal(mu, 0.0)
    # 0-based pairs; values are symmetric transition moments.
    moments = {
        (0, 1): 0.3,
        (0, 2): 0.15,
        (0, 3): 0.0,
        (0, 6): 0.003,
        (1, 2): 0.2,
        (1, 3): 0.25,
        (2, 3): 0.1,
    }
    for (i, j), value in moments.items():
        mu[i, j] = value
        mu[j, i] = value
    return ControlSystem(drift=drift, controls=(-mu.astype(np.complex128),))
