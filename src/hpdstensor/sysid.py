"""Data-driven identification of homogeneous polynomial systems.

The autonomous path recovers the k-mode unfolding A_(k) from state and
derivative samples through the Khatri-Rao power KR of the states; the
input-output path reconstructs states from the output SVD once and solves
the finite-difference relation.  Neither forms KR (n^(k-1) x T): both work
on its C(n+k-2, k-1) distinct monomial rows, weighted by the square roots of
their multiplicities, which have KR's singular values, and gather the
unfolding's columns from one coefficient per monomial.  Rank conditions are
decided on singular values alone.  The autonomous regression is one QR
factorization of the monomials stacked beside the derivatives, which gives
both the data's singular values and a triangular solve for the
coefficients, so no singular vectors are computed.  The tensor-train
result is the full recovery converted through the model's ``FORMATS``
table; the hierarchical Tucker pipeline builds its tree from the same data
with one leaf SVD shared by the almost symmetric modes 1..k-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ArgumentError, AssumptionError, IdentifiabilityError,
                     NumericError, ShapeError)
from .hier_tucker import DimensionTree, HTucker, _climb, build_tree
from .kernels import RankTolerance, compact_svd, least_squares, left_basis
from .model import FORMATS, HpdsModel, SampleSet
from .tensor_core import fold, multisets, unfold

__all__ = [
    "IdentifiabilityReport", "required_rank", "check_identifiability_autonomous",
    "identify_full", "identify_tt", "identify_ht", "check_identifiability_io",
    "identify_io", "identify_io_noisy",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Outcome of a rank condition check.

    ``margin`` is the smallest retained singular value of the data matrix;
    ``ill_conditioned`` flags a satisfied condition whose margin sits within
    1e3 machine epsilons of the largest singular value, where recovery
    accuracy degrades.
    """

    observed_rank: int
    required_rank: int
    satisfied: bool
    margin: float
    ill_conditioned: bool = False


def required_rank(n: int, k: int) -> int:
    """Rank of the Khatri-Rao state power needed for unique identification.

    Equals the number of independent entries per row of the unfolding of an
    almost symmetric tensor, the multiset count C(n+k-2, k-1).
    """
    if n < 1 or k < 2:
        raise ArgumentError("need n >= 1 and k >= 2")
    total = math.comb(n + k - 2, k - 1)
    if total >= 2 ** 63:
        raise ArgumentError(f"required rank for n={n}, k={k} overflows 64 bits")
    return total


def _finite(matrix: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(matrix)):
        raise NumericError("sample data has non-finite entries")
    return matrix


def _report(matrix: np.ndarray, shape: tuple[int, int], tol: RankTolerance,
            required: int) -> tuple[IdentifiabilityReport, np.ndarray]:
    """The rank report, and the singular values, of a data matrix of
    ``shape`` whose singular values ``matrix`` shares.

    Only the values are computed.  Those above ``tol``'s threshold at
    ``shape`` count toward the rank, the cut :func:`compact_svd` makes.
    """
    s = np.linalg.svd(matrix, compute_uv=False)
    kept = s[s > tol.threshold(shape, s[0])] if s.size else s
    observed = kept.size
    margin = float(kept[-1]) if observed else 0.0
    satisfied = observed == required
    ill = bool(satisfied and margin < 1e3 * _EPS * float(kept[0]))
    return (IdentifiabilityReport(observed, required, satisfied, margin, ill),
            s)


def _weighted_monomials(x: np.ndarray, k: int):
    """W^{1/2} R, the weights W^{1/2} and the multiset of every column.

    R holds the M = C(n+k-2, k-1) distinct rows of KR, the (k-1)-fold
    Khatri-Rao power of x (n^(k-1) x T), one per monomial of degree k-1,
    and W how often each occurs in KR.  Row j of KR is row ``columns[j]`` of R, so
    KR^T KR = (W^{1/2} R)^T (W^{1/2} R): the two matrices share their
    singular values and right singular vectors, and the Khatri-Rao
    regression X1 pinv(KR) is (X1 pinv(W^{1/2} R) W^{-1/2})[:, columns].
    KR itself is never formed.
    """
    members, columns, counts = multisets(x.shape[0], k - 1)
    rows = x[members[:, 0]]
    for p in range(1, k - 1):
        rows = rows * x[members[:, p]]
    root = np.sqrt(counts)
    return root[:, None] * rows, root, columns


def _khatri_rao_tol(tol: RankTolerance | None, rows: int,
                    cols: int) -> RankTolerance:
    """``tol``, or the default threshold at the shape of the Khatri-Rao data
    matrix, so that the smaller monomial matrix reaches the same verdicts."""
    return RankTolerance(value=max(rows, cols) * _EPS) if tol is None else tol


def _autonomous_qr(x0: np.ndarray, k: int, tol: RankTolerance | None,
                   x1: np.ndarray | None = None):
    """The rank report of W^{1/2} R from the QR factorization of
    [(W^{1/2} R)^T | X1^T], with the triangular factor, the singular
    values, the weights and the column multisets.

    The factor's leading block R11, M x M once T >= M, is the triangular
    factor of (W^{1/2} R)^T, so it has the data's singular values; the block
    R12 beside it is Q^T X1^T.  Without ``x1`` only the monomials are
    factored.
    """
    n, t = x0.shape
    weighted, root, columns = _weighted_monomials(x0, k)
    stack = weighted.T if x1 is None else np.hstack([weighted.T, x1.T])
    tri = np.linalg.qr(_finite(stack), mode="r")
    count = weighted.shape[0]
    report, s = _report(tri[:count, :count], weighted.shape,
                        _khatri_rao_tol(tol, n ** (k - 1), t),
                        required_rank(n, k))
    return report, tri, s, root, columns


def check_identifiability_autonomous(samples: SampleSet, k: int,
                                     tol: RankTolerance | None = None
                                     ) -> IdentifiabilityReport:
    """Check rank(X0_hat) against the unique-identification count."""
    if samples.X0 is None:
        raise ArgumentError("sample set has no state matrix X0")
    return _autonomous_qr(samples.X0, k, tol)[0]


def _recover_unfolding(samples: SampleSet, k: int, tol: RankTolerance | None
                       ) -> tuple[np.ndarray, RankTolerance]:
    """A_(k) = X1 pinv(X0_hat), and the tolerance to convert it at.

    One QR factorization of [(W^{1/2} R)^T | X1^T] serves both the rank
    condition and the regression.  The condition holds only when the
    M x T matrix W^{1/2} R has full row rank M, and then X1 pinv(W^{1/2} R)
    is the least-squares solution (R11^{-1} R12)^T, with no singular
    vectors.  The unfolding gathers one column per monomial, so the tensor
    it folds to is exactly almost symmetric.  The recovered entries carry an
    error of about kappa eps, kappa the condition number of the data
    matrix; unless ``tol`` is given, the conversion tolerance
    max(n^(k-1), T) eps kappa drops ranks at that level.
    """
    if samples.X0 is None or samples.X1 is None:
        raise ArgumentError("autonomous identification needs X0 and X1")
    if samples.x1_kind != "derivative":
        raise ArgumentError("autonomous identification needs derivative data; "
                            "use the io path for discrete samples")
    n, t = samples.X0.shape
    report, tri, s, root, columns = _autonomous_qr(samples.X0, k, tol,
                                                   samples.X1)
    if not report.satisfied:
        raise IdentifiabilityError(report)
    count = root.size
    coeffs = np.linalg.solve(tri[:count, :count], tri[:count, count:]).T / root
    if tol is None:
        kappa = float(s[0] / s[-1])
        tol = RankTolerance(value=max(n ** (k - 1), t) * _EPS * kappa)
    return coeffs[:, columns], tol


def identify_full(samples: SampleSet, k: int,
                  tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dense dynamic tensor from exact autonomous data.

    The recovered tensor is almost symmetric by construction: permuted
    multi-indices of modes 1..k-1 read the same monomial coefficient.
    """
    ak, _ = _recover_unfolding(samples, k, tol)
    n = samples.X0.shape[0]
    return HpdsModel(k, n, fold(ak, {k}, [n] * k))


def identify_tt(samples: SampleSet, k: int,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dynamics in tensor-train form.

    The :func:`identify_full` tensor converted to "tt" at the recovery's
    conversion tolerance: sequential SVDs peeling mode k first, so the
    factor ordering matches the train-based evaluation formula.
    """
    ak, conversion = _recover_unfolding(samples, k, tol)
    n = samples.X0.shape[0]
    tensor = fold(ak, {k}, [n] * k)
    return HpdsModel(k, n, FORMATS["tt"].from_dense(tensor, conversion))


def identify_ht(samples: SampleSet, k: int,
                tree: DimensionTree | None = None,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dynamics in hierarchical Tucker form.

    The recovered unfolding is first folded into the dense n^k tensor;
    building the tree from the monomial coefficients without it is ROADMAP
    item 3.  Uses the almost-symmetry shortcut: the leaf factors of modes
    1..k-1 are all taken from the 1-mode unfolding of that tensor, so they
    are identical arrays.  The transfers come from the
    leaves-to-root climb of :func:`htd_decompose` above those leaves, all at
    the recovery's conversion tolerance.
    """
    ak, conversion = _recover_unfolding(samples, k, tol)
    n = samples.X0.shape[0]
    tensor = fold(ak, {k}, [n] * k)
    if tree is None:
        tree = build_tree(k)
    if tree.order != k:
        raise ShapeError(f"tree order {tree.order} != k={k}")

    u_first = left_basis(unfold(tensor, {1}), conversion)  # modes < k
    leaf_factors = {p: u_first for p in range(1, k)}
    leaf_factors[k] = left_basis(ak, conversion)
    ht = HTucker(tree, tensor.shape, leaf_factors,
                 _climb(tensor, tree, leaf_factors, conversion))
    return HpdsModel(k, n, ht)


def _states_from_output(samples: SampleSet, n: int,
                        tol: RankTolerance | None):
    """Output matrix estimate and state trajectory from the SVD of Y0.

    At most n singular triplets are retained so the noisy path stays at the
    model dimension; with exact rank-n data this is the compact SVD.
    """
    svd = compact_svd(samples.Y0, tol)
    r = min(n, svd.rank)
    c_est = svd.U[:, :r]
    states = svd.S[:r, None] * svd.V[:, :r].T
    return c_est, states, svd.rank


def _resolve_n(samples: SampleSet, n: int | None) -> int:
    if n is not None:
        return int(n)
    if samples.X0 is None:
        raise ArgumentError("state dimension n unknown: pass n or provide X0")
    return samples.X0.shape[0]


def _io_check(samples: SampleSet, k: int, n: int | None,
              tol: RankTolerance | None):
    """The io rank report, with the pieces of the regression it built.

    Returns ``(report, n, c_est, states, monomials)``: the states are
    reconstructed from Y0 once, and ``monomials`` is
    :func:`_weighted_monomials` of all but the last state column.
    """
    if samples.U0 is None or samples.Y0 is None:
        raise ArgumentError("io identification needs U0 and Y0")
    n = _resolve_n(samples, n)
    if samples.Y0.shape[0] < n:
        raise AssumptionError(f"need l >= n outputs, got l={samples.Y0.shape[0]}")
    m = samples.U0.shape[0]
    required = required_rank(n, k) + m

    c_est, states, y_rank = _states_from_output(samples, n, tol)
    t = states.shape[1]
    if t < 2:
        raise ArgumentError("need at least two samples")
    monomials = _weighted_monomials(states[:, :t - 1], k)
    stack = _finite(np.vstack([monomials[0], samples.U0[:, :t - 1]]))
    report, _ = _report(stack, stack.shape,
                        _khatri_rao_tol(tol, n ** (k - 1) + m, t - 1),
                        required)
    # exact data from an n-state system has rank(Y0) <= n, so demanding
    # >= n is the same condition there while tolerating noise-inflated rank
    if y_rank < n:
        report = replace(report, satisfied=False)
    return report, n, c_est, states, monomials


def check_identifiability_io(samples: SampleSet, k: int,
                             n: int | None = None,
                             tol: RankTolerance | None = None
                             ) -> IdentifiabilityReport:
    """Check the input-output rank condition of the discrete-time data.

    Both parts must hold: rank(Y0) = n, and the stack of the Khatri-Rao
    state power over the inputs must reach the unique-identification count
    plus m.  States are reconstructed from Y0's singular value
    decomposition, so a rank-deficient output matrix surfaces as a deficient
    stacked rank.  The Khatri-Rao power enters through its weighted distinct
    monomial rows, which give the stack the same singular values.
    """
    return _io_check(samples, k, n, tol)[0]


def _solve_io(samples: SampleSet, k: int, n: int | None,
              tol: RankTolerance | None):
    """(n, A_(k), B, C estimate, X0) of the finite-difference regression
    over [tau X0_hat; U0], once the io rank condition holds."""
    report, n, c_est, states, (weighted, root, columns) = _io_check(
        samples, k, n, tol)
    if not report.satisfied:
        raise IdentifiabilityError(report)
    t = states.shape[1]
    x0, x1 = states[:, :t - 1], states[:, 1:]
    u0 = samples.U0[:, :t - 1]
    d = np.vstack([samples.tau * weighted, u0])
    combined = least_squares(
        d.T, (x1 - x0).T,
        _khatri_rao_tol(tol, n ** (k - 1) + u0.shape[0], t - 1)).T
    count = weighted.shape[0]
    ak = (combined[:, :count] / root)[:, columns]
    return n, ak, combined[:, count:], c_est, x0


def identify_io(samples: SampleSet, k: int, n: int | None = None,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Identify (A, B, C) from exact input-output data.

    C is the left singular basis of Y0, the states are its co-factor, and
    the dynamics solve the finite-difference relation
    X1 = X0 + tau A_(k) X0_hat + B U0 in that state basis.  The realization
    is unique up to the basis, so accuracy is asserted on reproduced
    outputs, not raw parameters.
    """
    n, ak, b, c_est, _ = _solve_io(samples, k, n, tol)
    return HpdsModel(k, n, fold(ak, {k}, [n] * k), B=b, C=c_est)


def identify_io_noisy(samples: SampleSet, k: int, n: int | None = None,
                      tol: RankTolerance | None = None) -> HpdsModel:
    """Least-squares identification for noisy input-output data.

    Solves the two decoupled regressions (dynamics over [tau X0_hat; U0],
    output matrix over X0).  The recovered tensor is almost symmetric by
    construction, as on the autonomous path; with sigma = 0 this coincides
    with :func:`identify_io` up to roundoff.
    """
    n, ak, b, _, x0 = _solve_io(samples, k, n, tol)
    # output regression against the reconstructed states
    t = x0.shape[1]
    c_est = least_squares(x0.T, samples.Y0[:, :t].T, tol).T
    return HpdsModel(k, n, fold(ak, {k}, [n] * k), B=b, C=c_est)
