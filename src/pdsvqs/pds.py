"""Moment-functional ground-state energy estimate and its parameter gradient.

For a trial state with moments ``m_n = <H^n>`` and a chosen order K, the
K x K Hankel system ``M X = -Y`` with ``M[i, j] = m_{2K-i-j}`` and
``Y[i] = m_{2K-i}`` (1-based) defines a monic polynomial

    P(E) = E^K + X_1 E^(K-1) + ... + X_K,

whose smallest real root is a variational upper bound on the ground energy:
in exact arithmetic it lies between the ground energy and ``<H>``.  The root
depends on the circuit parameters only through the moments, so its gradient,
which drives the optimizer, is ``sum_n g_n dm_n/dtheta`` with the weights
``g = dE/dm`` of the implicit-function rule: one solve in M per row.

M is a Gram matrix of Krylov vectors and becomes singular exactly when the
trial state is supported on fewer than K eigenvectors, e.g. close to
convergence.  The regularization policies control what happens there: the
strict policy records the singularity as the row's error, an eigenvalue
shift keeps the solve defined, and the adaptive policy only shifts once the
condition number crosses a threshold so that well-conditioned solves stay
exact.  A policy is its kind and its shift; the adaptive threshold is a
module constant.  At K = 1 the functional is ``<H>`` itself: M is exactly
``[[1.0]]``, which no policy but an explicit shift touches.

The solve and the weights each act on a stack of moment rows at once and
record a failing row's error in place of raising it; a row's weights solve
in the matrix its energy was solved with.  M is symmetric, so its condition
number is the ratio of its extreme eigenvalue magnitudes.  A row whose
moments are not all finite (H^n overflowed) records ``SingularMoments``
without reaching LAPACK.
"""

from __future__ import annotations

import contextlib
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
# Ratio of M's smallest to largest eigenvalue magnitude (its singular values)
# at which even the strict policy declares M singular.
_HARD_SINGULAR = 1e-14
# Condition number beyond which the ``auto`` policy shifts.  Past
# cond ~ 1/shift_eps (1e-6 by default) a direct solve carries at least as
# much noise as the shift introduces bias, so that is where it switches.
_COND_THRESHOLD = 1e6


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
        ``"none"``  solve directly, record ``SingularMoments`` as the row's
                    error when M is rank-deficient at machine precision;
        ``"shift"`` add ``shift_eps`` to every eigenvalue (M is positive
                    semidefinite), which can bias the root and thereby
                    weaken the variational bound;
        ``"auto"``  direct solve while the condition number stays below
                    ``_COND_THRESHOLD``, shifted solve beyond it.
    """

    kind: str = "none"
    shift_eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in ("none", "shift", "auto"):
            raise ValueError(f"unknown regularization kind {self.kind!r}")
        if not (math.isfinite(self.shift_eps) and self.shift_eps > 0):
            raise ValueError(f"shift_eps must be finite and positive, got {self.shift_eps!r}")


@dataclass
class _SolvedRows:
    """The functional at a stack of moment rows, one entry per row.

    Row b failed when ``errors[b]`` holds its solver error, an exception
    object, not raised; its other entries are then NaN.  ``roots[b]`` holds
    that row's real roots in ascending order, NaN-padded to the order.
    ``applied[b]`` tells whether row b's eigenvalues were shifted by
    ``magnitude`` rather than solved directly, and ``matrix[b]`` is the M it
    was solved with, the shift included.
    """

    order: int
    x: np.ndarray
    roots: np.ndarray
    energy: np.ndarray
    cond_m: np.ndarray
    imag_residue: np.ndarray
    applied: np.ndarray
    magnitude: float
    matrix: np.ndarray
    errors: np.ndarray


def _no_error(errors: np.ndarray) -> np.ndarray:
    """Mask of the rows whose error entry is None."""
    return np.equal(errors, None)


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


def _spread(part: np.ndarray, rows, fill) -> np.ndarray:
    """``part`` of the rows ``_where`` picked, on every row: ``fill`` on the others."""
    if isinstance(rows, slice):
        return part
    out = np.full((len(rows),) + part.shape[1:], fill)
    out[rows] = part
    return out


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix[b] @ x = rhs[b]`` for every row b of the (B, K, K) and
    (B, K) stacks.  A row whose matrix is exactly singular reads NaN, found
    row by row once the stacked solve has raised.
    """
    try:
        return np.linalg.solve(matrix, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape, np.nan)
        for b in range(len(x)):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[b] = np.linalg.solve(matrix[b], rhs[b, :, None])[:, 0]
        return x


def _solve_rows(values: np.ndarray, order: int, policy: RegPolicy) -> _SolvedRows:
    """Evaluate the order-K functional at each row of ``values`` (B, >= 2K).

    Per row: the Hankel system is solved under the policy, the monic
    polynomial's roots are the eigenvalues of its companion matrix,
    roundoff-sized imaginary parts are truncated and the smallest real root
    is the energy.  A row whose moments are not all finite, whose M is
    rank-deficient under a direct solve, whose coefficients are not finite (a
    shifted M still exactly singular), or whose roots are all complex records
    ``SingularMoments`` or ``ComplexRoots``.
    """
    b, k = len(values), order
    matrix, rhs = _hankel(values, k)
    finite = np.isfinite(values[:, : 2 * k]).all(axis=1)  # LAPACK sees no other row
    rows = _where(finite)
    # M is symmetric, so its singular values are its eigenvalues' magnitudes.
    svals = np.sort(np.abs(np.linalg.eigvalsh(matrix[rows])), axis=1)
    smax, smin = svals[:, -1], svals[:, 0]
    cond = np.divide(smax, smin, out=np.full(len(smin), np.inf), where=smin != 0.0)
    if policy.kind == "auto":
        applied = ~(cond <= _COND_THRESHOLD)  # an infinite cond is applied
    else:
        applied = np.full(len(cond), policy.kind != "none")
    singular = ~applied & (smin <= smax * _HARD_SINGULAR)  # also when smax is 0
    # A non-finite row is neither shifted nor solved.
    cond, applied, singular = (_spread(cond, rows, np.nan), _spread(applied, rows, False),
                               _spread(singular, rows, True))
    if applied.any():  # every eigenvalue of an applied row shifted
        matrix[_where(applied)] += policy.shift_eps * np.eye(k)
    rows = _where(~singular)
    x = _spread(_solve(matrix[rows], -rhs[rows]), rows, np.nan)
    ok = np.isfinite(x).all(axis=1)

    rows = _where(ok)
    companion = np.zeros((np.count_nonzero(ok), k, k))
    companion[:, 0] = -x[rows]
    companion[:, 1:, :-1] = np.eye(k - 1)
    raw = np.linalg.eigvals(companion)
    imag = np.abs(raw.imag)
    keep = imag <= _IMAG_TOL * np.maximum(1.0, np.abs(raw.real))
    roots = _spread(np.sort(np.where(keep, raw.real, np.nan), axis=1), rows, np.nan)  # NaN last
    imag_residue = _spread(imag.max(axis=1), rows, np.nan)
    errors = np.full(b, None, dtype=object)
    if np.isnan(roots[:, 0]).any():  # some row failed; a row that did not has a root
        for i in np.flatnonzero(~finite):
            bad = ", ".join(f"m_{n}" for n in np.flatnonzero(~np.isfinite(values[i, : 2 * k])))
            errors[i] = SingularMoments(f"moments {bad} are not finite")
        for i in np.flatnonzero(singular & finite):
            errors[i] = SingularMoments(f"moment matrix is rank-deficient (cond ~ {cond[i]:.3g}); "
                                        "the trial state spans too few eigenvectors")
        for i in np.flatnonzero(~ok & ~singular):
            errors[i] = SingularMoments(f"moment matrix is singular (cond ~ {cond[i]:.3g})")
        for i in np.flatnonzero(ok & np.isnan(roots[:, 0])):
            errors[i] = ComplexRoots(f"all roots kept imaginary parts up to {imag_residue[i]:.3g}")
    return _SolvedRows(order=k, x=x, roots=roots, energy=roots[:, 0].copy(), cond_m=cond,
                       imag_residue=imag_residue, applied=applied, magnitude=policy.shift_eps,
                       matrix=matrix, errors=errors)


def _weights(solved: _SolvedRows) -> tuple[np.ndarray, np.ndarray]:
    """Energy weights ``g = dE/dm`` (B, 2K) of solved moment rows, plus each
    row's error.

    The implicit-function rule gives ``dE = lambda . (dY + dM X) / P'(E)``
    with ``lambda = M^-1 (E^(K-1), .., 1)``, one solve per row in the matrix
    the row was solved with, ``solved.matrix`` (M is symmetric).  With
    ``c = (1, X_1 .. X_K)`` that is ``g_(2K-s) = sum_(i+j=s) lambda_i c_j / P'(E)``.
    A row that failed its solve keeps its error, a row whose ``P'(E)``
    vanishes records ``VanishingDenominator`` and one whose ``lambda`` is not
    finite ``SingularMoments``; the weights of all of them read 0.
    """
    errors, k = solved.errors, solved.order
    rows = _where(_no_error(errors))
    x, energy = solved.x[rows], solved.energy[rows]
    # P'(E) = sum_i (K - i) X_i E^(K-i-1) with X_0 = 1; float_power is the C
    # library's pow, the one Python's float power uses.
    powers = np.float_power(energy[:, None], np.arange(k))
    denom = k * powers[:, k - 1]
    for i in range(1, k):
        denom = denom + (k - i) * x[:, i - 1] * powers[:, k - i - 1]
    lam = _solve(solved.matrix[rows], powers[:, ::-1])
    vanishing = np.abs(denom) < 1e-12
    singular = ~vanishing & ~np.isfinite(lam).all(axis=1)
    failed = vanishing | singular
    if failed.any():
        errors, index = errors.copy(), np.flatnonzero(_no_error(errors))
        for i, d in zip(index[vanishing], denom[vanishing]):
            errors[i] = VanishingDenominator(f"polynomial derivative {d:.3g} at the root; "
                                             "gradient undefined")
        for i in index[singular]:
            errors[i] = SingularMoments("moment matrix is singular in the gradient solve")
        lam[failed], denom[failed] = 0.0, 1.0  # their weights read 0
    # lambda_i c_j adds to moment 2K - i - j: c reversed onto moments K - i .. 2K - i.
    c = np.concatenate([np.ones((len(x), 1)), x], axis=1)[:, ::-1]
    part = np.zeros((len(x), 2 * k))
    for i in range(1, k + 1):
        part[:, k - i : 2 * k - i + 1] += lam[:, i - 1 : i] * c
    return _spread(part / denom[:, None], rows, 0.0), errors
