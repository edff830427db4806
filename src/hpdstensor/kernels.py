"""Shared numerical linear algebra: compact SVD, rank, singular bases.

Every rank decision in the package goes through :class:`RankTolerance`, which
always carries its value, so the threshold is overridable in one place; a
tolerance of None asks for the default, which :func:`_tol_at` states at a
shape: the matrix's own, or that of a larger matrix it stands in for.  The
compact SVD fixes a deterministic sign convention (largest-magnitude entry of
each left singular vector is positive), which makes identification and
controllability outputs reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RankTolerance:
    """Threshold policy for discarding singular values.

    mode "relative" discards sigma <= value * sigma_max; mode "absolute"
    discards sigma <= value.  Both need a value: a tolerance of None, not a
    RankTolerance, asks for the default threshold at the matrix's shape
    (:func:`_tol_at`).
    """

    mode: str = "relative"
    value: float | None = None

    def __post_init__(self):
        if self.mode not in ("relative", "absolute"):
            raise ArgumentError(f"unknown tolerance mode {self.mode!r}")
        if self.value is None or not self.value > 0:
            raise ArgumentError("a tolerance needs a positive value; None "
                                "asks for the default")

    def threshold(self, sigma_max: float) -> float:
        if self.mode == "absolute":
            return float(self.value)
        return float(self.value) * sigma_max


def _tol_at(tol: RankTolerance | None, shape) -> RankTolerance:
    """``tol``, or when it is None the default threshold at ``shape``,
    max(shape) eps sigma_max.

    A smaller matrix that shares the singular values of one of ``shape``
    (a triangular factor, or distinct rows weighted by their counts) reaches
    that matrix's verdicts at this tolerance.
    """
    if tol is None:
        return RankTolerance(value=max(shape) * _EPS)
    return tol


@dataclass(frozen=True)
class CompactSvd:
    """Compact SVD with factors U (m x r), S (r,), V (n x r)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return self.S.shape[0]


def compact_svd(matrix: np.ndarray, tol: RankTolerance | None = None) -> CompactSvd:
    """Compact SVD keeping singular values above the tolerance threshold."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.all(np.isfinite(matrix)):
        raise NumericError("matrix has non-finite entries")
    m, n = matrix.shape
    if m == 0 or n == 0 or not np.any(matrix):
        return CompactSvd(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    thr = _tol_at(tol, matrix.shape).threshold(s[0])
    r = int(np.count_nonzero(s > thr))
    u, s, v = u[:, :r].copy(), s[:r].copy(), vt[:r].T.copy()
    _sign_rule(u, v)
    return CompactSvd(u, s, v)


def _sign_rule(lead: np.ndarray, other: np.ndarray) -> None:
    """Flip columns in place so each column of ``lead`` has its
    largest-magnitude entry (the first, on ties) positive, flipping the
    matching columns of ``other`` alongside.

    A flip multiplies by -1.0, which is exact, so the result is bitwise that
    of negating the column."""
    cols = np.arange(lead.shape[1])
    picked = lead[np.argmax(np.abs(lead), axis=0), cols]
    sign = np.where(picked < 0, -1.0, 1.0)
    lead *= sign
    other *= sign


def left_basis(matrix: np.ndarray,
               tol: RankTolerance | None = None) -> np.ndarray:
    """U of :func:`compact_svd`, without forming V.

    A wide matrix A (m < n columns) is R^T Q^T for the QR factorization of
    A^T, so it has the singular values and left singular vectors of the
    m x m factor R^T; only that factor reaches the SVD.  The default
    threshold (``tol`` None) stays at A's shape.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    m, n = matrix.shape
    if not 0 < m < n:
        return compact_svd(matrix, tol).U
    return compact_svd(np.linalg.qr(matrix.T, mode="r").T,
                       _tol_at(tol, matrix.shape)).U


def right_basis(matrix: np.ndarray, tol: RankTolerance | None = None,
                root: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """V and U S of :func:`compact_svd`, without forming U.

    A tall matrix A (m > n rows) is Q R, so it has the singular values and
    right singular vectors of the n x n factor R; only that factor reaches
    the SVD, and U S is A V.  The default threshold stays at A's shape, as
    in :func:`left_basis`, and each column of A V has its largest-magnitude
    entry positive, the sign rule of :func:`compact_svd`, with V's columns
    flipped alongside.

    With ``root``, V is that of diag(root) A, and the unweighted A V is
    returned, signed by the same rule.  When row i of A stands for root_i^2
    equal rows of a larger matrix, these are that matrix's V and the
    distinct rows of its U S.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    m, n = matrix.shape
    weighted = matrix if root is None else root[:, None] * matrix
    if not m > n > 0:
        svd = compact_svd(weighted, tol)
        if root is None:
            return svd.V, svd.U * svd.S
        v = svd.V
    else:
        v = compact_svd(np.linalg.qr(weighted, mode="r"),
                        _tol_at(tol, matrix.shape)).V
    us = matrix @ v
    _sign_rule(us, v)
    return v, us


def numerical_rank(matrix: np.ndarray, tol: RankTolerance | None = None) -> int:
    return compact_svd(matrix, tol).rank


def orthonormal_deviation(u: np.ndarray) -> float:
    u = np.atleast_2d(np.asarray(u, dtype=float))
    r = u.shape[1]
    if r == 0:
        return 0.0
    return float(np.max(np.abs(u.T @ u - np.eye(r))))


def subspace_angle(u1: np.ndarray, u2: np.ndarray) -> float:
    """Largest principal angle (radians) between equal-rank orthonormal bases.

    Computed from the sine, ||(I - U1 U1^T) U2||_2, which stays accurate for
    angles near zero where the cosine saturates.
    """
    resid = u2 - u1 @ (u1.T @ u2)
    s = np.linalg.svd(resid, compute_uv=False)
    return float(np.arcsin(min(1.0, s[0]))) if s.size else 0.0


def subspace_equal(u1: np.ndarray, u2: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the two orthonormal bases span the same subspace.

    Requires orthonormal columns on both sides; equality means equal ranks
    and largest principal angle at most ``tol`` radians.
    """
    u1 = np.atleast_2d(np.asarray(u1, dtype=float))
    u2 = np.atleast_2d(np.asarray(u2, dtype=float))
    for u in (u1, u2):
        if orthonormal_deviation(u) > 1e-8:
            raise ArgumentError("inputs must have orthonormal columns")
    if u1.shape != u2.shape:
        return False
    if u1.shape[1] == 0:
        return True
    return max(subspace_angle(u1, u2), subspace_angle(u2, u1)) <= tol
