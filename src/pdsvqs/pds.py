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

The solve and the gradient each act on a stack of moment rows at once and
record a failing row's error in place of raising it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularMoments",
    "ComplexRoots",
    "VanishingDenominator",
    "RegPolicy",
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
        for name in ("shift_eps", "rcond", "cond_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

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
class _SolvedRows:
    """The functional at a stack of moment rows, one entry per row.

    Row b failed when ``errors[b]`` holds its solver error, an exception
    object, not raised; its other entries are then NaN.  ``roots[b]`` holds that row's real roots
    in ascending order, NaN-padded to the order.  ``applied[b]`` tells whether
    row b was solved with the policy's regularization, ``kind`` at
    ``magnitude``, rather than directly.
    """

    order: int
    x: np.ndarray
    roots: np.ndarray
    energy: np.ndarray
    cond_m: np.ndarray
    imag_residue: np.ndarray
    applied: np.ndarray
    kind: str
    magnitude: float
    errors: np.ndarray


def _no_error(errors: np.ndarray) -> np.ndarray:
    """Mask of the rows whose error entry is None."""
    return np.array([e is None for e in errors], dtype=bool)


@functools.cache
def _hankel_index(order: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(1, order + 1)
    return 2 * order - rows[:, None] - rows[None, :], 2 * order - rows


def _hankel(m: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """``M`` (..., K, K) and ``Y`` (..., K) of moment rows ``m`` (..., 2K)."""
    matrix_index, rhs_index = _hankel_index(order)
    # Contiguous, so every product with M is one BLAS call per matrix.
    return np.ascontiguousarray(m[..., matrix_index]), m[..., rhs_index]


def _where(mask: np.ndarray):
    """Index of the rows in ``mask``: a plain slice when it holds them all."""
    return slice(None) if mask.all() else mask


def _regularized_solve(
    matrix: np.ndarray, rhs: np.ndarray, applied: np.ndarray, kind: str, magnitude: float
) -> np.ndarray:
    """Solve ``matrix[b] @ x = rhs[b, p]`` for every row b and right side p.

    ``matrix`` is (B, K, K) and ``rhs`` (B, P, K).  A row is solved directly
    unless ``applied``: then with every eigenvalue shifted by ``magnitude``
    (kind ``"shift"``), or by a singular-value truncation at relative
    ``magnitude`` (kind ``"truncate"``).  Each right side is its own
    single-vector solve.
    """
    eye = np.eye(matrix.shape[-1])
    if kind != "truncate":
        shifted = matrix + np.where(applied, magnitude, 0.0)[:, None, None] * eye
        return np.linalg.solve(shifted[:, None], rhs[..., None])[..., 0]
    x = np.empty(rhs.shape)
    direct = ~applied
    if direct.any():
        x[direct] = np.linalg.solve(matrix[direct][:, None], rhs[direct][..., None])[..., 0]
    if applied.any():
        u, s, vt = np.linalg.svd(matrix[applied])
        keep = s > magnitude * s[:, :1]
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        proj = np.swapaxes(u, -1, -2)[:, None] @ rhs[applied][..., None]
        x[applied] = (np.swapaxes(vt, -1, -2)[:, None] @ (inv[:, None, :, None] * proj))[..., 0]
    return x


def _solve_rows(values: np.ndarray, order: int, policy: RegPolicy) -> _SolvedRows:
    """Evaluate the order-K functional at each row of ``values`` (B, >= 2K).

    Per row: the Hankel system is solved under the policy, the monic
    polynomial's roots are the eigenvalues of its companion matrix,
    roundoff-sized imaginary parts are truncated and the smallest real root
    is the energy.  A row whose M is rank-deficient under a direct solve, whose
    coefficients are not finite, or whose roots are all complex records
    ``SingularMoments`` or ``ComplexRoots`` instead.
    """
    b, k = len(values), order
    matrix, rhs = _hankel(values, k)
    svals = np.linalg.svd(matrix, compute_uv=False)
    smax, smin = svals[:, 0], svals[:, -1]
    cond = np.divide(smax, smin, out=np.full(b, np.inf), where=smin != 0.0)
    if policy.kind == "auto":
        applied = ~(cond <= policy.cond_threshold)  # an infinite cond is applied
    else:
        applied = np.full(b, policy.kind != "none")
    if policy.kind == "truncate":
        kind, magnitude = "truncate", policy.rcond
    else:
        kind, magnitude = "shift", policy.shift_eps
    errors = np.full(b, None, dtype=object)
    singular = ~applied & (smin <= smax * _HARD_SINGULAR)  # also when smax is 0
    for i in np.flatnonzero(singular):
        errors[i] = SingularMoments(
            f"moment matrix is rank-deficient (cond ~ {cond[i]:.3g}); "
            "the trial state spans too few eigenvectors"
        )
    x = np.full((b, k), np.nan)
    rows = _where(~singular)
    x[rows] = _regularized_solve(
        matrix[rows], -rhs[rows][:, None], applied[rows], kind, magnitude
    )[:, 0]
    ok = np.isfinite(x).all(axis=1)
    for i in np.flatnonzero(~ok & ~singular):
        errors[i] = SingularMoments("moment solve produced non-finite coefficients")

    rows = _where(ok)
    companion = np.zeros((b, k, k))[rows]
    companion[:, 0] = -x[rows]
    companion[:, 1:, :-1] = np.eye(k - 1)
    raw = np.linalg.eigvals(companion)
    imag = np.abs(raw.imag)
    keep = imag <= _IMAG_TOL * np.maximum(1.0, np.abs(raw.real))
    real = np.sort(np.where(keep, raw.real, np.inf), axis=1)
    roots = np.full((b, k), np.nan)
    roots[rows] = np.where(real == np.inf, np.nan, real)
    imag_residue = np.full(b, np.nan)
    imag_residue[rows] = imag.max(axis=1)
    for i in np.flatnonzero(ok & np.isnan(roots[:, 0])):
        errors[i] = ComplexRoots(
            f"all roots kept imaginary parts up to {imag_residue[i]:.3g}"
        )
    return _SolvedRows(
        order=k,
        x=x,
        roots=roots,
        energy=roots[:, 0].copy(),
        cond_m=cond,
        imag_residue=imag_residue,
        applied=applied,
        kind=kind,
        magnitude=magnitude,
        errors=errors,
    )


def _gradient_rows(
    values: np.ndarray, grads: np.ndarray, solved: _SolvedRows
) -> tuple[np.ndarray, np.ndarray]:
    """Root gradients (B, P) of solved moment rows, plus each row's error.

    ``values`` (B, m) and ``grads`` (B, P, m) are the moment rows and their
    derivatives, ``solved`` their solve.  Every parameter's
    ``M dX = -dY - dM X`` is one solve of one stack, under the regularization
    the row was solved with, and ``dE = -(E^(K-1), ..., 1) . dX / P'(E)``
    is the implicit-function rule.  A row that failed its
    solve keeps its error, a row whose ``P'(E)`` vanishes records
    ``VanishingDenominator``; both get a NaN gradient.
    """
    errors = solved.errors.copy()
    k = solved.order
    rows = _where(_no_error(errors))
    x, energy = solved.x[rows], solved.energy[rows]
    # P'(E) = sum_i (K - i) X_i E^(K-i-1) with X_0 = 1; float_power is the C
    # library's pow, the one Python's float power uses.
    powers = np.float_power(energy[:, None], np.arange(k))
    denom = k * powers[:, k - 1]
    for i in range(1, k):
        denom = denom + (k - i) * x[:, i - 1] * powers[:, k - i - 1]
    vanishing = np.abs(denom) < 1e-12
    if vanishing.any():
        index = np.arange(len(errors))[rows]
        for i in np.flatnonzero(vanishing):
            errors[index[i]] = VanishingDenominator(
                f"polynomial derivative {denom[i]:.3g} at the root; gradient undefined"
            )
        keep = ~vanishing
        rows, x, energy, denom = index[keep], x[keep], energy[keep], denom[keep]
    matrix, _ = _hankel(values[rows], k)
    d_matrix, d_rhs = _hankel(grads[rows], k)
    rhs = -d_rhs - (d_matrix @ x[:, None, :, None])[..., 0]
    dx = _regularized_solve(matrix, rhs, solved.applied[rows], solved.kind, solved.magnitude)
    powers_vec = energy[:, None] ** np.arange(k - 1, -1, -1)
    grad = np.full(grads.shape[:2], np.nan)
    grad[rows] = -(powers_vec[:, None, None, :] @ dx[..., None])[..., 0, 0] / denom[:, None]
    return grad, errors
