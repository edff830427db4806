"""Data-driven identification of homogeneous polynomial systems.

The autonomous path recovers the k-mode unfolding A_(k) from state and
derivative samples through the Khatri-Rao power KR of the states; the
input-output path reconstructs states from the output SVD once and solves
the finite-difference relation.  Neither forms KR (n^(k-1) x T): both work
on its C(n+k-2, k-1) distinct monomial rows, weighted by the square roots of
their multiplicities, which have KR's singular values, and gather the
unfolding's columns from one coefficient per monomial.  Rank conditions are
decided on singular values alone.  Every regression (autonomous, io
dynamics, io output map) is one QR factorization of its design stacked
beside its target, :func:`_qr_fit`, which gives both the design's singular
values and a triangular solve for the coefficients, so no singular vectors
are computed.

Every result, autonomous or io, is built from the n x M coefficients and
their multiset tables by ``from_coefficients`` of :data:`model.FORMATS`
(:func:`identify_ht` by :func:`hier_tucker._symmetric_tree` on its tree),
and only the full form gathers the n^k tensor.  Every unfolding of an
almost symmetric tensor repeats a row once per ordering of its symmetric
modes, so the train and the tree are decomposed on the distinct rows and
columns, weighted by the square roots of their multiplicities, which have
the dense unfolding's singular values and singular vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ArgumentError, AssumptionError, IdentifiabilityError,
                     NumericError, ShapeError)
from .hier_tucker import DimensionTree, _symmetric_tree, build_tree
from .kernels import RankTolerance, _tol_at, compact_svd
from .model import FORMATS, HpdsModel, SampleSet
from .tensor_core import multiset_tables

__all__ = [
    "IdentifiabilityReport", "required_rank", "check_identifiability_autonomous",
    "identify_full", "identify_tt", "identify_ht", "check_identifiability_io",
    "identify_io", "identify_io_noisy",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Outcome of a rank condition check.

    ``margin`` is the smallest retained singular value of the data matrix,
    and ``condition`` the largest over it, sigma_1 / sigma_r with r the
    observed rank (inf when no value is retained); recovered coefficients
    err by about ``condition`` machine epsilons.  ``ill_conditioned`` flags
    a satisfied condition whose margin sits within 1e3 machine epsilons of
    the largest singular value, where recovery accuracy degrades.
    """

    observed_rank: int
    required_rank: int
    satisfied: bool
    margin: float
    condition: float
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


def _report(matrix: np.ndarray, tol: RankTolerance,
            required: int) -> IdentifiabilityReport:
    """The rank report of a data matrix whose singular values ``matrix``
    shares.

    Only the values are computed.  Those above ``tol``'s threshold count
    toward the rank, the cut :func:`compact_svd` makes.
    """
    s = np.linalg.svd(matrix, compute_uv=False)
    kept = s[s > tol.threshold(s[0])] if s.size else s
    observed = kept.size
    margin = float(kept[-1]) if observed else 0.0
    condition = float(kept[0]) / margin if observed else math.inf
    satisfied = observed == required
    ill = bool(satisfied and margin < 1e3 * _EPS * float(kept[0]))
    return IdentifiabilityReport(observed, required, satisfied, margin,
                                 condition, ill)


def _weighted_monomials(x: np.ndarray, k: int):
    """W^{1/2} R, the weights W^{1/2} and the :func:`multiset_tables` of
    R's rows.

    R holds the M = C(n+k-2, k-1) distinct rows of KR, the (k-1)-fold
    Khatri-Rao power of x (n^(k-1) x T), one per monomial of degree k-1,
    and W how often each occurs in KR.  Row j of KR is row ``columns[j]``
    of R, ``columns`` the multiset ranks of the tables, so
    KR^T KR = (W^{1/2} R)^T (W^{1/2} R): the two matrices share their
    singular values and right singular vectors, and the Khatri-Rao
    regression X1 pinv(KR) is (X1 pinv(W^{1/2} R) W^{-1/2})[:, columns].
    KR itself is never formed.
    """
    tables = multiset_tables(x.shape[0], k - 1)
    members = tables[0][k - 1]
    rows = x[members[:, 0]]
    for p in range(1, k - 1):
        rows = rows * x[members[:, p]]
    root = np.sqrt(tables[2][k - 1])
    return root[:, None] * rows, root, tables


def _qr_fit(design: np.ndarray, target: np.ndarray | None, shape,
            tol: RankTolerance | None, required: int):
    """The rank report of the rows x T ``design`` and the triangular factor
    of the QR factorization of [design^T | target^T].

    The factor's leading block R11, rows x rows once T >= rows, is the
    triangular factor of design^T, so it has the design's singular values;
    the block R12 beside it is Q^T target^T.  The threshold is ``tol``'s;
    when it is None, the default at ``shape``, the data matrix the design
    stands in for.  Without ``target`` only the design is factored.
    """
    stack = design.T if target is None else np.hstack([design.T, target.T])
    tri = np.linalg.qr(_finite(stack), mode="r")
    count = design.shape[0]
    return (_report(tri[:count, :count], _tol_at(tol, shape), required),
            tri)


def _qr_solve(tri: np.ndarray, count: int) -> np.ndarray:
    """The least-squares coefficients (R11^{-1} R12)^T of a :func:`_qr_fit`
    whose design has ``count`` rows and full row rank: target pinv(design),
    with no singular vectors."""
    return np.linalg.solve(tri[:count, :count], tri[:count, count:]).T


def _autonomous_qr(x0: np.ndarray, k: int, tol: RankTolerance | None,
                   x1: np.ndarray | None = None):
    """:func:`_qr_fit` of the weighted monomials W^{1/2} R against X1, with
    the threshold at the Khatri-Rao power's shape, so that the smaller
    monomial matrix reaches the same verdicts; also the weights and the
    multiset tables."""
    n, t = x0.shape
    weighted, root, tables = _weighted_monomials(x0, k)
    report, tri = _qr_fit(weighted, x1, (n ** (k - 1), t), tol,
                          required_rank(n, k))
    return report, tri, root, tables


def check_identifiability_autonomous(samples: SampleSet, k: int,
                                     tol: RankTolerance | None = None
                                     ) -> IdentifiabilityReport:
    """Check rank(X0_hat) against the unique-identification count."""
    if samples.X0 is None:
        raise ArgumentError("sample set has no state matrix X0")
    return _autonomous_qr(samples.X0, k, tol)[0]


def _recover_coefficients(samples: SampleSet, k: int,
                          tol: RankTolerance | None):
    """The n x M monomial coefficients of A_(k) = X1 pinv(X0_hat), the
    tolerance to decompose them at, and the multiset tables.

    One QR factorization of [(W^{1/2} R)^T | X1^T] serves both the rank
    condition and the regression.  The condition holds only when the
    M x T matrix W^{1/2} R has full row rank M, and then X1 pinv(W^{1/2} R)
    is the least-squares solution (R11^{-1} R12)^T, with no singular
    vectors; divided by W^{1/2}, it holds one coefficient per monomial, so
    A_(k) = coeffs[:, columns] is exactly almost symmetric.  The recovered
    entries carry an error of about kappa eps, kappa the report's
    condition number; unless ``tol`` is given, the conversion tolerance
    max(n^(k-1), T) eps kappa drops ranks at that level.
    """
    if samples.X0 is None or samples.X1 is None:
        raise ArgumentError("autonomous identification needs states X0 and "
                            "derivatives X1; use the io path for discrete "
                            "samples")
    n, t = samples.X0.shape
    report, tri, root, tables = _autonomous_qr(samples.X0, k, tol, samples.X1)
    if not report.satisfied:
        raise IdentifiabilityError(report)
    coeffs = _qr_solve(tri, root.size) / root
    if tol is None:
        tol = RankTolerance(value=max(n ** (k - 1), t) * _EPS *
                            report.condition)
    return coeffs, tol, tables


def _identify(samples: SampleSet, k: int, tol: RankTolerance | None,
              name: str) -> HpdsModel:
    """The ``name`` form of the recovered coefficients, at their tolerance."""
    coeffs, conversion, tables = _recover_coefficients(samples, k, tol)
    return HpdsModel(k, samples.X0.shape[0], FORMATS[name].from_coefficients(
        coeffs, tables, conversion))


def identify_full(samples: SampleSet, k: int,
                  tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dense dynamic tensor from exact autonomous data.

    The recovered tensor is almost symmetric by construction: permuted
    multi-indices of modes 1..k-1 read the same monomial coefficient.
    """
    return _identify(samples, k, tol, "full")


def identify_tt(samples: SampleSet, k: int,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dynamics in tensor-train form: the TT-SVD of the
    :func:`identify_full` tensor at the recovery's conversion tolerance, run
    on the monomial coefficients, one row per multiset of the modes not yet
    peeled, without the n^k tensor."""
    return _identify(samples, k, tol, "tt")


def identify_ht(samples: SampleSet, k: int,
                tree: DimensionTree | None = None,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dynamics in hierarchical Tucker form, built from the
    monomial coefficients without the n^k tensor at the recovery's
    conversion tolerance, one basis per kind of node, with the ranks of the
    dense unfoldings.  The tree (default balanced) is checked before any
    data is factored."""
    tree = build_tree(k) if tree is None else tree
    if tree.order != k:
        raise ShapeError(f"tree order {tree.order} != k={k}")
    coeffs, conversion, tables = _recover_coefficients(samples, k, tol)
    return HpdsModel(k, samples.X0.shape[0],
                     _symmetric_tree(coeffs, tables, tree, conversion))


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


def _io_fit(samples: SampleSet, k: int, n: int | None,
            tol: RankTolerance | None, fit: bool = False,
            form: str = "full"):
    """``(report, model, X0)``: the io rank report, the model that solves
    the finite-difference regression (None without ``fit``) and the states
    it is solved over.

    The states are reconstructed from Y0 once.  The regression of the steps
    x[t+1] - x[t] over [W^{1/2} R; U0], the weighted monomials of x[t] over
    the inputs, is one :func:`_qr_fit`, which also gives the report.  tau is
    divided out of the monomial coefficients instead of scaling the design
    by it, which changes neither the rank nor the fitted dynamics.  The
    dynamics are the ``form`` built from the fitted monomial coefficients
    at ``tol``; the model's C is the output basis.
    """
    if samples.U0 is None or samples.Y0 is None:
        raise ArgumentError("io identification needs U0 and Y0")
    n = _resolve_n(samples, n)
    if samples.Y0.shape[0] < n:
        raise AssumptionError(f"need l >= n outputs, got l={samples.Y0.shape[0]}")
    m = samples.U0.shape[0]
    c_est, states, y_rank = _states_from_output(samples, n, tol)
    t = states.shape[1]
    if t < 2:
        raise ArgumentError("need at least two samples")
    x0 = states[:, :t - 1]
    # rank(Y0) = 0 leaves no state, so no monomial: the design is U0 alone
    weighted, root, tables = (_weighted_monomials(x0, k) if y_rank
                              else (x0, None, None))
    design = np.vstack([weighted, samples.U0[:, :t - 1]])
    report, tri = _qr_fit(design, states[:, 1:] - x0 if fit else None,
                          (n ** (k - 1) + m, t - 1), tol,
                          required_rank(n, k) + m)
    # exact data from an n-state system has rank(Y0) <= n, so demanding
    # >= n is the same condition there while tolerating noise-inflated rank
    if y_rank < n:
        report = replace(report, satisfied=False)
    if not fit:
        return report, None, x0
    if not report.satisfied:
        raise IdentifiabilityError(report)
    coeffs = _qr_solve(tri, design.shape[0])
    count = root.size
    dynamics = FORMATS[form].from_coefficients(
        coeffs[:, :count] / (samples.tau * root), tables, tol)
    return report, HpdsModel(k, n, dynamics, B=coeffs[:, count:],
                             C=c_est), x0


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
    return _io_fit(samples, k, n, tol)[0]


def identify_io(samples: SampleSet, k: int, n: int | None = None,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Identify (A, B, C) from exact input-output data.

    C is the left singular basis of Y0, the states are its co-factor, and
    the dynamics solve x[t+1] = x[t] + tau A_(k) x[t]^[k-1] + B u[t] in
    that state basis.  The realization is unique up to the basis, so
    accuracy is asserted on reproduced outputs, not raw parameters.
    """
    return _io_fit(samples, k, n, tol, fit=True)[1]


def identify_io_noisy(samples: SampleSet, k: int, n: int | None = None,
                      tol: RankTolerance | None = None,
                      form: str = "full") -> HpdsModel:
    """Least-squares identification for noisy input-output data.

    Solves the two decoupled regressions (dynamics over [tau X0_hat; U0],
    output matrix over X0), each one QR factorization.  The output
    regression needs X0 of rank n, or :class:`IdentifiabilityError` is
    raised.  The recovered tensor is almost symmetric by construction, as
    on the autonomous path; with sigma = 0 this coincides with
    :func:`identify_io` up to roundoff.  ``form`` (a :data:`FORMATS` key)
    is built from the monomial coefficients alone.
    """
    _, model, x0 = _io_fit(samples, k, n, tol, fit=True, form=form)
    report, tri = _qr_fit(x0, samples.Y0[:, :x0.shape[1]], x0.shape, tol,
                          model.n)
    if not report.satisfied:
        raise IdentifiabilityError(report)
    return replace(model, C=_qr_solve(tri, model.n))
