"""Moment-functional ground-state energy estimate and its parameter gradient.

For a trial state with moments ``m_n = <H^n>`` and a chosen order K, the
K x K Hankel system ``M X = -Y`` with ``M[i, j] = m_{2K-i-j}`` and
``Y[i] = m_{2K-i}`` (1-based) defines a monic polynomial

    P(E) = E^K + X_1 E^(K-1) + ... + X_K,

whose smallest real root is a variational upper bound on the ground energy:
in exact arithmetic it lies between the ground energy and ``<H>``.  The root
is differentiable in the circuit parameters through the implicit-function
rule, which is what drives the optimizer.

M is a Gram matrix of Krylov vectors and becomes singular exactly when the
trial state is supported on fewer than K eigenvectors, e.g. close to
convergence.  The regularization policies control what happens there: the
strict policy surfaces the singularity, an eigenvalue shift or a
singular-value truncation keeps the solve defined, and the adaptive policy
only shifts once the condition number crosses a threshold so that
well-conditioned solves stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import MomentTable

__all__ = [
    "SingularMoments",
    "ComplexRoots",
    "VanishingDenominator",
    "RegPolicy",
    "PdsResult",
    "pds_solve",
    "pds_gradient",
]

# Relative spread below which a root's imaginary part counts as roundoff.
_IMAG_TOL = 1e-8
# Singular-value ratio at which even the strict policy declares M singular.
_HARD_SINGULAR = 1e-14


class SingularMoments(RuntimeError):
    """The moment matrix is numerically singular; the trial state is
    (close to) an eigenstate or spans fewer than K eigenvectors."""


class ComplexRoots(RuntimeError):
    """No real root survived; the energy estimate is undefined here."""


class VanishingDenominator(RuntimeError):
    """The polynomial derivative vanishes at the selected root (repeated
    root), so the implicit gradient is undefined."""


@dataclass(frozen=True)
class RegPolicy:
    """How to solve linear systems in the moment matrix.

    kind:
        ``"none"``    solve directly, raise ``SingularMoments`` when M is
                      rank-deficient at machine precision;
        ``"shift"``   add ``shift_eps`` to every eigenvalue (M is positive
                      semidefinite), which can bias the root and thereby
                      weaken the variational bound;
        ``"truncate"`` minimum-norm solve with singular values below
                      ``rcond`` (relative) discarded;
        ``"auto"``    direct solve while the condition number stays below
                      ``cond_threshold``, shifted solve beyond it.
    """

    kind: str = "none"
    shift_eps: float = 1e-6
    rcond: float = 1e-10
    # Past cond ~ 1/shift_eps a direct solve carries at least as much noise as
    # the shift introduces bias, so that is where the adaptive policy switches.
    cond_threshold: float = 1e6

    def __post_init__(self) -> None:
        if self.kind not in ("none", "shift", "truncate", "auto"):
            raise ValueError(f"unknown regularization kind {self.kind!r}")

    @classmethod
    def none(cls) -> "RegPolicy":
        return cls(kind="none")

    @classmethod
    def shift(cls, eps: float = 1e-6) -> "RegPolicy":
        return cls(kind="shift", shift_eps=eps)

    @classmethod
    def truncate(cls, rcond: float = 1e-10) -> "RegPolicy":
        return cls(kind="truncate", rcond=rcond)

    @classmethod
    def auto(cls, cond_threshold: float = 1e6, shift_eps: float = 1e-6) -> "RegPolicy":
        return cls(kind="auto", cond_threshold=cond_threshold, shift_eps=shift_eps)


@dataclass
class PdsResult:
    """Outcome of one functional evaluation.

    ``roots`` holds the real roots in ascending order; complex pairs are
    excluded and their largest imaginary magnitude is kept in
    ``imag_residue``.  ``energy`` is the smallest real root.  When a policy
    modified the solve, ``regularization_applied`` is set together with the
    mechanism and magnitude actually used, and the gradient replays the same
    mechanism for consistency.
    """

    order: int
    x: np.ndarray
    roots: np.ndarray
    energy: float
    cond_m: float
    imag_residue: float
    regularization_applied: bool
    applied_kind: str | None
    applied_magnitude: float


def _hankel_system(table: MomentTable, order: int) -> tuple[np.ndarray, np.ndarray]:
    if order < 1:
        raise ValueError("order must be at least 1")
    if table.max_order < 2 * order - 1:
        raise ValueError(
            f"order {order} needs moments up to {2 * order - 1}, "
            f"table holds {table.max_order}"
        )
    m = table.values
    k = order
    rows = np.arange(1, k + 1)
    matrix = m[2 * k - rows[:, None] - rows[None, :]]
    rhs = m[2 * k - rows]
    return matrix, rhs


def _regularized_solve(
    matrix: np.ndarray, rhs: np.ndarray, kind: str | None, magnitude: float
) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` directly (``kind`` None), with every
    eigenvalue shifted by ``magnitude``, or by a singular-value truncation
    at relative ``magnitude``."""
    if kind is None:
        return np.linalg.solve(matrix, rhs)
    if kind == "shift":
        return np.linalg.solve(matrix + magnitude * np.eye(matrix.shape[0]), rhs)
    u, s, vt = np.linalg.svd(matrix)
    keep = s > magnitude * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return vt.T @ (inv * (u.T @ rhs))


def _solve(
    matrix: np.ndarray, rhs: np.ndarray, policy: RegPolicy
) -> tuple[np.ndarray, float, str | None, float]:
    """Solve ``matrix @ x = rhs`` under the policy.

    Returns (x, cond, applied_kind, applied_magnitude) where applied_kind is
    None for an unregularized solve.
    """
    svals = np.linalg.svd(matrix, compute_uv=False)
    smax = svals[0]
    smin = svals[-1]
    cond = float("inf") if smin == 0.0 else float(smax / smin)
    direct = policy.kind == "none" or (
        policy.kind == "auto" and np.isfinite(cond) and cond <= policy.cond_threshold
    )
    if direct:
        if smax == 0.0 or smin <= smax * _HARD_SINGULAR:
            raise SingularMoments(
                f"moment matrix is rank-deficient (cond ~ {cond:.3g}); "
                "the trial state spans too few eigenvectors"
            )
        kind, magnitude = None, 0.0
    elif policy.kind == "truncate":
        kind, magnitude = "truncate", policy.rcond
    else:
        kind, magnitude = "shift", policy.shift_eps
    return _regularized_solve(matrix, rhs, kind, magnitude), cond, kind, magnitude


def pds_solve(
    table: MomentTable, order: int, policy: RegPolicy = RegPolicy()
) -> PdsResult:
    """Evaluate the order-K functional from a moment table.

    Solves the Hankel system, finds the roots of the monic polynomial via the
    companion matrix, truncates roundoff-sized imaginary parts and returns the
    smallest real root as the energy.

    Raises:
        SingularMoments: M is rank-deficient under the strict policy.
        ComplexRoots: every root kept a large imaginary part.
    """
    matrix, rhs = _hankel_system(table, order)
    x, cond, applied_kind, applied_magnitude = _solve(matrix, -rhs, policy)
    if not np.all(np.isfinite(x)):
        raise SingularMoments("moment solve produced non-finite coefficients")
    raw_roots = np.roots(np.concatenate(([1.0], x)))
    imag_residue = float(np.max(np.abs(raw_roots.imag))) if raw_roots.size else 0.0
    keep = np.abs(raw_roots.imag) <= _IMAG_TOL * np.maximum(
        1.0, np.abs(raw_roots.real)
    )
    real_roots = np.sort(raw_roots.real[keep])
    if real_roots.size == 0:
        raise ComplexRoots(
            f"all roots kept imaginary parts up to {imag_residue:.3g}"
        )
    return PdsResult(
        order=order,
        x=x,
        roots=real_roots,
        energy=float(real_roots[0]),
        cond_m=cond,
        imag_residue=imag_residue,
        regularization_applied=applied_kind is not None,
        applied_kind=applied_kind,
        applied_magnitude=applied_magnitude,
    )


def _poly_derivative_at(x: np.ndarray, energy: float) -> float:
    k = x.size
    value = k * energy ** (k - 1)
    for i in range(1, k):
        value += (k - i) * x[i - 1] * energy ** (k - i - 1)
    return float(value)


def pds_gradient(
    table: MomentTable, order: int, result: PdsResult
) -> np.ndarray:
    """Gradient of the energy root with respect to the circuit parameters.

    Differentiating ``M X = -Y`` gives ``M dX = -dY - dM X`` per parameter,
    and the implicit-function rule turns dX into the root derivative

        dE = -(E^(K-1), ..., 1) . dX / P'(E).

    The linear solves reuse the exact regularization mechanism recorded in
    ``result`` so energy and gradient describe the same functional.

    Raises:
        VanishingDenominator: P'(E) is zero at the root (repeated root).
    """
    if table.gradients is None:
        raise ValueError("moment table carries no gradient rows")
    matrix, _ = _hankel_system(table, order)
    k = order
    denom = _poly_derivative_at(result.x, result.energy)
    if abs(denom) < 1e-12:
        raise VanishingDenominator(
            f"polynomial derivative {denom:.3g} at the root; gradient undefined"
        )
    powers_vec = result.energy ** np.arange(k - 1, -1, -1)
    rows = np.arange(1, k + 1)
    grad = np.zeros(table.gradients.shape[0])
    for p in range(table.gradients.shape[0]):
        g = table.gradients[p]
        d_matrix = g[2 * k - rows[:, None] - rows[None, :]]
        d_rhs = g[2 * k - rows]
        rhs = -d_rhs - d_matrix @ result.x
        dx = _regularized_solve(
            matrix, rhs, result.applied_kind, result.applied_magnitude
        )
        grad[p] = -float(powers_vec @ dx) / denom
    return grad
