"""Data-driven identification of homogeneous polynomial systems.

The autonomous path recovers the k-mode unfolding A_(k) from state and
derivative samples through the Khatri-Rao power of the states; the
input-output path reconstructs states from the output SVD and solves the
finite-difference relation.  The tensor-train result is the full recovery
converted through the model's ``FORMATS`` table; the hierarchical Tucker
pipeline builds its tree from the same data with one leaf SVD shared by the
almost symmetric modes 1..k-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ArgumentError, AssumptionError, IdentifiabilityError,
                     ShapeError)
from .hier_tucker import (DimensionTree, HTucker, _project_on_children,
                          _unfold_ordered, build_tree)
from .kernels import CompactSvd, RankTolerance, compact_svd, least_squares
from .model import FORMATS, HpdsModel, SampleSet
from .tensor_core import almost_symmetrize, fold, khatri_rao_power, unfold

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


def _report(svd: CompactSvd, required: int) -> IdentifiabilityReport:
    observed = svd.rank
    margin = float(svd.S[-1]) if observed else 0.0
    satisfied = observed == required
    ill = bool(satisfied and observed
               and margin < 1e3 * _EPS * float(svd.S[0]))
    return IdentifiabilityReport(observed, required, satisfied, margin, ill)


def check_identifiability_autonomous(samples: SampleSet, k: int,
                                     tol: RankTolerance | None = None
                                     ) -> IdentifiabilityReport:
    """Check rank(X0_hat) against the unique-identification count."""
    if samples.X0 is None:
        raise ArgumentError("sample set has no state matrix X0")
    n = samples.X0.shape[0]
    svd = compact_svd(khatri_rao_power(samples.X0, k - 1), tol)
    return _report(svd, required_rank(n, k))


def _recover_unfolding(samples: SampleSet, k: int,
                       tol: RankTolerance | None) -> np.ndarray:
    """A_(k) = X1 V0 S0^+ U0^T from the compact SVD of the Khatri-Rao power.

    One SVD serves both the rank condition and the pseudo-inverse.
    """
    if samples.X0 is None or samples.X1 is None:
        raise ArgumentError("autonomous identification needs X0 and X1")
    if samples.x1_kind != "derivative":
        raise ArgumentError("autonomous identification needs derivative data; "
                            "use the io path for discrete samples")
    n = samples.X0.shape[0]
    svd = compact_svd(khatri_rao_power(samples.X0, k - 1), tol)
    report = _report(svd, required_rank(n, k))
    if not report.satisfied:
        raise IdentifiabilityError(report)
    return samples.X1 @ ((svd.V / svd.S) @ svd.U.T)


def identify_full(samples: SampleSet, k: int,
                  tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dense dynamic tensor from exact autonomous data.

    The recovered unfolding folds to an almost symmetric tensor because the
    duplicated rows of the Khatri-Rao power force equal columns in the
    projector.
    """
    ak = _recover_unfolding(samples, k, tol)
    n = samples.X0.shape[0]
    tensor = fold(ak, {k}, [n] * k)
    return HpdsModel(k, n, tensor)


def identify_tt(samples: SampleSet, k: int,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dynamics in tensor-train form.

    The :func:`identify_full` tensor converted to "tt": sequential SVDs
    peeling mode k first, so the factor ordering matches the train-based
    evaluation formula.
    """
    model = identify_full(samples, k, tol)
    return replace(model, dynamics=FORMATS["tt"].from_dense(model.dynamics,
                                                            tol))


def identify_ht(samples: SampleSet, k: int,
                tree: DimensionTree | None = None,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Recover the dynamics directly in hierarchical Tucker form.

    Uses the almost-symmetry shortcut: the leaf factors of modes 1..k-1 are
    all taken from the 1-mode unfolding of the recovered tensor, so they are
    identical arrays; internal transfers come from per-node unfolding SVDs.
    """
    ak = _recover_unfolding(samples, k, tol)
    n = samples.X0.shape[0]
    tensor = fold(ak, {k}, [n] * k)
    if tree is None:
        tree = build_tree(k)
    if tree.order != k:
        raise ShapeError(f"tree order {tree.order} != k={k}")

    u_last = compact_svd(ak, tol).U                      # mode-k factor
    u_first = compact_svd(unfold(tensor, {1}), tol).U    # shared by modes < k
    leaf_factors = {p: u_first for p in range(1, k)}
    leaf_factors[k] = u_last

    bases = {(p,): leaf_factors[p] for p in range(1, k + 1)}
    transfer = {}
    internals = sorted(tree.internal_nodes(), key=lambda q: len(q.modes))
    for node in internals:
        if node is tree.root:
            target = _unfold_ordered(tensor, node.ordered_modes())
        else:
            target = compact_svd(
                _unfold_ordered(tensor, node.ordered_modes()), tol).U
            bases[node.modes] = target
        transfer[node.modes] = _project_on_children(
            bases[node.left.modes], bases[node.right.modes], target)
    ht = HTucker(tree, tensor.shape, leaf_factors, transfer)
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


def check_identifiability_io(samples: SampleSet, k: int,
                             n: int | None = None,
                             tol: RankTolerance | None = None
                             ) -> IdentifiabilityReport:
    """Check the input-output rank condition of the discrete-time data.

    Both parts must hold: rank(Y0) = n, and the stack of the Khatri-Rao
    state power over the inputs must reach the unique-identification count
    plus m.  States are reconstructed from Y0's singular value
    decomposition, so a rank-deficient output matrix surfaces as a deficient
    stacked rank.
    """
    if samples.U0 is None or samples.Y0 is None:
        raise ArgumentError("io identification needs U0 and Y0")
    n = _resolve_n(samples, n)
    if samples.Y0.shape[0] < n:
        raise AssumptionError(f"need l >= n outputs, got l={samples.Y0.shape[0]}")
    m = samples.U0.shape[0]
    required = required_rank(n, k) + m

    _, states, y_rank = _states_from_output(samples, n, tol)
    t = states.shape[1]
    if t < 2:
        raise ArgumentError("need at least two samples")
    x0 = states[:, :t - 1]
    xhat = khatri_rao_power(x0, k - 1)
    stack = np.vstack([xhat, samples.U0[:, :t - 1]])
    report = _report(compact_svd(stack, tol), required)
    # exact data from an n-state system has rank(Y0) <= n, so demanding
    # >= n is the same condition there while tolerating noise-inflated rank
    if y_rank < n:
        report = IdentifiabilityReport(report.observed_rank, required, False,
                                       report.margin, report.ill_conditioned)
    return report


def _solve_io(samples: SampleSet, k: int, n: int,
              tol: RankTolerance | None):
    c_est, states, _ = _states_from_output(samples, n, tol)
    t = states.shape[1]
    x0, x1 = states[:, :t - 1], states[:, 1:]
    u0 = samples.U0[:, :t - 1]
    xhat = khatri_rao_power(x0, k - 1)
    d = np.vstack([samples.tau * xhat, u0])
    combined = least_squares(d.T, (x1 - x0).T, tol).T
    ak = combined[:, :xhat.shape[0]]
    b = combined[:, xhat.shape[0]:]
    return ak, b, c_est, x0


def identify_io(samples: SampleSet, k: int, n: int | None = None,
                tol: RankTolerance | None = None) -> HpdsModel:
    """Identify (A, B, C) from exact input-output data.

    C is the left singular basis of Y0, the states are its co-factor, and
    the dynamics solve the finite-difference relation
    X1 = X0 + tau A_(k) X0_hat + B U0 in that state basis.  The realization
    is unique up to the basis, so accuracy is asserted on reproduced
    outputs, not raw parameters.
    """
    report = check_identifiability_io(samples, k, n, tol)
    if not report.satisfied:
        raise IdentifiabilityError(report)
    n = _resolve_n(samples, n)
    ak, b, c_est, _ = _solve_io(samples, k, n, tol)
    tensor = fold(ak, {k}, [n] * k)
    return HpdsModel(k, n, tensor, B=b, C=c_est)


def identify_io_noisy(samples: SampleSet, k: int, n: int | None = None,
                      tol: RankTolerance | None = None) -> HpdsModel:
    """Least-squares identification for noisy input-output data.

    Solves the two decoupled regressions (dynamics over [tau X0_hat; U0],
    output matrix over X0) and projects the recovered tensor onto the
    almost symmetric set; with sigma = 0 this coincides with
    :func:`identify_io` up to roundoff.
    """
    report = check_identifiability_io(samples, k, n, tol)
    if not report.satisfied:
        raise IdentifiabilityError(report)
    n = _resolve_n(samples, n)
    ak, b, _, x0 = _solve_io(samples, k, n, tol)
    # output regression against the reconstructed states
    t = x0.shape[1]
    c_est = least_squares(x0.T, samples.Y0[:, :t].T, tol).T
    tensor = almost_symmetrize(fold(ak, {k}, [n] * k))
    return HpdsModel(k, n, tensor, B=b, C=c_est)
