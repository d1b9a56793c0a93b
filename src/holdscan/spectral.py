"""Whitened spectral analysis of ownership overlap.

Scaling rows by inverse square-root investor mass and columns by inverse
square-root stock mass turns the share matrix into a contraction whose
top singular value is exactly one, with the square-root marginal vectors
as the fixed singular pair. Subtracting that rank-one mode leaves a
residual operator carrying every nonproportional feature: its squared
singular values sum to the dependence index, and its largest singular
value is the dominant overlap mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OwnershipMatrix, _freeze, _scaled_tol, require_active
from .errors import InternalConsistencyError

#: Slack on identities that are exact in real arithmetic; the residual's
#: norm against the spectrum tail is relative once the tail exceeds one.
_SPECTRAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralResidual:
    """Whitened matrix, rank-one market mode, residual, and spectrum.

    ``whitened`` is the rescaled share matrix; ``row_unit``/``col_unit``
    are the square-root marginal unit vectors forming its top singular
    pair; ``residual`` is the whitened matrix minus that rank-one mode.
    ``singular_values`` lists all singular values of the whitened matrix
    in descending order, and ``rho`` is the second one (zero when the
    matrix has a single row or column).
    """

    whitened: np.ndarray
    residual: np.ndarray
    row_unit: np.ndarray
    col_unit: np.ndarray
    singular_values: tuple[float, ...]
    rho: float

    def __post_init__(self) -> None:
        for name in ("whitened", "residual", "row_unit", "col_unit"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def whiten(matrix: OwnershipMatrix) -> SpectralResidual:
    """Whiten an active share matrix and extract its singular structure.

    Validates the defining identities before returning: the square-root
    marginals are a unit singular pair at value one, the residual
    annihilates them, and the residual's squared Frobenius norm matches
    the tail of the squared spectrum.
    """
    marg = require_active(matrix)
    u = np.sqrt(marg.p)
    v = np.sqrt(marg.s)
    k = matrix.entries / np.outer(u, v)
    ell = k - np.outer(u, v)
    sigma = np.linalg.svd(k, compute_uv=False)

    if abs(float(u @ u) - 1.0) > 2e-12 or abs(float(v @ v) - 1.0) > 2e-12:
        raise InternalConsistencyError("square-root marginals are not unit vectors")
    if abs(sigma[0] - 1.0) > _SPECTRAL_TOL:
        raise InternalConsistencyError(
            f"top singular value {sigma[0]!r} is not 1 within {_SPECTRAL_TOL:g}"
        )
    if sigma[-1] < -_SPECTRAL_TOL or sigma[0] > 1.0 + _SPECTRAL_TOL:
        raise InternalConsistencyError("singular values escape [0, 1]")
    if np.max(np.abs(k @ v - u)) > _SPECTRAL_TOL or np.max(np.abs(k.T @ u - v)) > _SPECTRAL_TOL:
        raise InternalConsistencyError("square-root marginals are not a singular pair")
    if np.max(np.abs(ell @ v)) > _SPECTRAL_TOL or np.max(np.abs(ell.T @ u)) > _SPECTRAL_TOL:
        raise InternalConsistencyError("residual does not annihilate the market mode")
    tail = float(np.sum(np.square(sigma[1:])))
    frobenius = float(np.sum(ell * ell))
    if abs(frobenius - tail) > _scaled_tol(_SPECTRAL_TOL, frobenius, tail):
        raise InternalConsistencyError("residual norm disagrees with spectrum tail")

    rho_val = float(sigma[1]) if len(sigma) > 1 else 0.0
    return SpectralResidual(
        whitened=k,
        residual=ell,
        row_unit=u,
        col_unit=v,
        singular_values=tuple(float(x) for x in sigma),
        rho=rho_val,
    )


def rho(matrix: OwnershipMatrix) -> float:
    """Dominant overlap mode: second singular value of the whitened matrix."""
    return whiten(matrix).rho
