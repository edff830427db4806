"""Tensor-train representation: construction, evaluation, contraction.

A train over dims (n_1, ..., n_k) is a list of order-3 cores, core p shaped
(r_{p-1}, n_p, r_p) with r_0 = r_k = 1.  Entry (j_1, ..., j_k) of the
represented tensor is the chained product of core slices

    V1[:, j_1, :] @ V2[:, j_2, :] @ ... @ Vk[:, j_k, :]   (1x1).

Construction peels modes from mode k backwards with sequential compact SVDs,
so the cores come out in the paper ordering of the homogeneous-polynomial
evaluation formula: the output mode k is separated first.  A given train is
brought to those ranks by TT-rounding, on its cores alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .kernels import RankTolerance, _tol_at, right_basis
from .tensor_core import _keep_every_row, _require_cubical, _sweep_matrices

__all__ = [
    "TensorTrain", "tt_decompose", "tt_reconstruct", "tt_evaluator",
    "tt_contract", "tt_sweep", "tt_param_count", "tt_zero",
]


@dataclass(frozen=True)
class TensorTrain:
    """Sequence of order-3 cores with chained ranks."""

    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.cores:
            raise ArgumentError("a tensor train needs at least one core")
        object.__setattr__(self, "cores", tuple(np.asarray(c, dtype=float)
                                                for c in self.cores))
        if any(core.ndim != 3 for core in self.cores):
            raise ShapeError("cores must be order-3 arrays")
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
            raise ShapeError("boundary ranks r_0 and r_k must be 1")
        for left, right in zip(self.cores, self.cores[1:]):
            if left.shape[2] != right.shape[0]:
                raise ShapeError(
                    f"rank chain broken: {left.shape} -> {right.shape}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    @property
    def order(self) -> int:
        return len(self.cores)


def tt_zero(dims) -> TensorTrain:
    """All-zero train with interior ranks 1 (the zero-tensor convention)."""
    return TensorTrain(tuple(np.zeros((1, int(n), 1)) for n in dims))


def _tt_svd(rows: np.ndarray, dims, tol: RankTolerance | None,
            tables=None, left=None) -> TensorTrain:
    """The right-to-left TT-SVD of a tensor with dims ``dims`` whose
    sequential unfolding A_({1..k-1}) is ``rows``.

    Step p factors a matrix whose rows merge modes 1..p-1 and whose columns
    merge (i_p, alpha_p), i_p fastest: V^T is core p, and A V gives the next
    step's rows.  A zero matrix keeps no rank, which gives the zero train.

    With ``tables = (grows, counts)`` of :func:`tensor_core.multiset_tables`,
    the tensor is almost symmetric and ``rows`` holds one row per multiset
    of modes 1..k-1.  Each step's distinct rows, weighted by the square
    root of their counts, have the dense matrix's V and singular values
    (:func:`kernels.right_basis`), and the next step's row for the
    (p-2)-multiset s and column (j, alpha) is row grows[p-2][s, j] of A V.

    With ``left``, the left-orthonormal cores 1..k-1 of a train, each step's
    matrix is L_{p-1} M for the orthonormal columns L_{p-1} of their product
    over modes 1..p-1, and ``rows`` holds M, which has its singular values
    and V: TT-rounding (Oseledets, SIAM J. Sci. Comput. 2011).  The next
    step's M is left core p-1 contracted with M V.

    The default threshold (``tol`` None) is resolved at step p's dense
    matrix, (n_1 ... n_{p-1}) x (n_p r_p), which is the shape of ``rows``
    when neither tables nor left cores are given; a given ``tol`` is used as
    it is.  So ranks are those of the dense TT-SVD at ``tol``, and so are
    the cores, up to the signs the rule picks on M V with left cores.
    """
    k = len(dims)
    cores: list[np.ndarray] = [None] * k
    r_right = 1
    for p in range(k, 1, -1):
        root = None if tables is None else np.sqrt(tables[1][p - 1])
        dense = (math.prod(dims[:p - 1]), dims[p - 1] * r_right)
        v, rows = right_basis(rows, _tol_at(tol, dense), root)
        r_left = v.shape[1]
        if r_left == 0:
            return tt_zero(dims)
        cores[p - 1] = v.T.reshape(r_left, dims[p - 1], r_right, order="F")
        if tables is not None:
            rows = rows[tables[0][p - 2]]
        elif left is not None:
            rows = left[p - 2] @ rows
        rows = rows.reshape(-1, dims[p - 2] * r_left, order="F")
        r_right = r_left
    cores[0] = rows.reshape(1, dims[0], r_right, order="F")
    return TensorTrain(tuple(cores))


def _left_orthogonalize(cores):
    """Left-orthogonalize a train's ``cores`` 1..m by QR, each absorbing
    the triangular factor its predecessor leaves.

    Returns the left-orthonormal cores Q_1..Q_m and the gauges G_0 = 1,
    G_1..G_m: the product of cores 1..p over modes 1..p is that of
    Q_1..Q_p times G_p, so it has the singular values and right singular
    vectors of G_p.  Every matrix factored has at most n r^2 entries for
    the largest rank r of ``cores``.
    """
    orthonormal, gauges = [], [np.ones((1, 1))]
    for core in cores:
        rows = gauges[-1].shape[0]
        q, gauge = np.linalg.qr(
            (gauges[-1] @ core.reshape(core.shape[0], -1))
            .reshape(rows * core.shape[1], core.shape[2]))
        orthonormal.append(q.reshape(rows, core.shape[1], q.shape[1]))
        gauges.append(gauge)
    return orthonormal, gauges


def _tt_round(train: TensorTrain) -> TensorTrain:
    """The train of :func:`tt_decompose` of the tensor ``train``
    represents, without forming that tensor.

    Cores 1..k-1 are left-orthogonalized (:func:`_left_orthogonalize`), and
    :func:`_tt_svd` then sweeps right to left on the gauged last core, with
    every threshold the default one at its dense step's shape.  A rank above
    what its unfolding can hold is cut by the QRs' shapes.  Cores 2..k of
    the result are right-orthonormal.
    """
    left, gauges = _left_orthogonalize(train.cores[:-1])
    return _tt_svd(gauges[-1] @ train.cores[-1][:, :, 0], train.dims, None,
                   left=left)


def tt_decompose(source: np.ndarray,
                 tol: RankTolerance | None = None) -> TensorTrain:
    """Build a tensor train of the order-k array ``source`` by sequential
    compact SVDs, mode k first: one :func:`_tt_svd` of its psi-ordered
    unfolding A_({1..k-1}).

    Interior ranks equal the numerical ranks of the sequential unfoldings
    A_({1..p}), and reconstruction matches the input up to the tolerance.
    A tall step matrix reaches its SVD as the triangular factor of its QR
    (:func:`kernels.right_basis`), so no SVD has more than n * max rank rows.
    """
    source = np.asarray(source, dtype=float)
    if source.ndim < 1:
        raise ShapeError("source must have order >= 1")
    dims = source.shape
    return _tt_svd(source.reshape(math.prod(dims[:-1]), dims[-1], order="F"),
                   dims, tol)


def tt_reconstruct(train: TensorTrain) -> np.ndarray:
    """Contract the train back into a dense order-k tensor."""
    acc = train.cores[0][0]  # (n_1, r_1)
    for core in train.cores[1:]:
        acc = np.tensordot(acc, core, axes=(acc.ndim - 1, 0))
    return acc[..., 0]


def tt_evaluator(train: TensorTrain):
    """``x -> A_(k) x^[k-1]`` on the cores, laid out once.

    Core p < k is kept as the n x (r_{p-1} r_p) matrix that
    ``np.tensordot(x, core, axes=(0, 1))`` would build on every call (not
    made contiguous: its layout decides the bits of the BLAS product), so
    each step is one (1 x n) product and one rank-space product.  Core 1's
    (1 x r_1) product is the first message itself: the rank-space product
    with the unit r_0 = 1 message is a one-term sum, exact, so it is
    skipped.  The returned function takes a float n-vector and checks
    nothing; the train has order k >= 2, as a model's has.
    """
    n, _ = _require_cubical(train.dims)
    first, *middle = train.cores[:-1]
    first = first[0]  # n x r_1, as r_0 = 1
    steps = [(core.transpose(1, 0, 2).reshape(n, -1),
              (core.shape[0], core.shape[2])) for core in middle]
    last = train.cores[-1][:, :, 0]

    def evaluate(x: np.ndarray) -> np.ndarray:
        row = x.reshape(1, n)
        msg = np.dot(row, first)[0]
        for mat, shape in steps:
            msg = msg @ np.dot(row, mat).reshape(shape)
        return msg @ last

    return evaluate


def tt_sweep(train: TensorTrain, mats, merge) -> np.ndarray:
    """Contract modes 1..k-1 with n x c_p matrices, merging as they meet.

    The running message is an (a, r_p) array over an argument index and the
    chain rank, starting from (1, 1).  Core p contracted with
    ``mats[p - 1]`` extends it to an (a, c_p, r_p) array, which ``merge``
    maps to the (a', r_p) array the sweep continues with.  The last core
    closes the chain: returns the n x a' matrix with rows indexed by mode k.

    Each core meets the message in one ``np.dot`` of the message and the
    core unfolded r_{p-1} x (n r_p): the operands ``np.tensordot`` would
    form, without its per-call axis bookkeeping, so the bits are its bits.
    """
    n, k = _require_cubical(train.dims)
    msg = np.ones((1, 1))
    for core, mat in zip(train.cores[:-1], _sweep_matrices(mats, n, k)):
        r, _, r_next = core.shape
        # explicit sizes: a -1 is ambiguous once a rank is 0
        msg = np.dot(msg, core.reshape(r, n * r_next)).reshape(
            msg.shape[0], n, r_next)
        msg = merge(mat.T @ msg)
    return (msg @ train.cores[-1][:, :, 0]).T


def tt_contract(train: TensorTrain, args) -> np.ndarray:
    """Contract modes 1..k-1 with k-1 n-vectors or n x c_p matrices.

    Slot p addresses tensor mode p (the middle mode of core p).  Returns
    the n x (prod c_p) matrix with rows indexed by mode k and columns
    psi-merged over the arguments, as :func:`contract_leading` does on the
    dense tensor: one :func:`tt_sweep` that keeps every row.
    """
    return tt_sweep(train, args, _keep_every_row)


def tt_param_count(train: TensorTrain) -> int:
    """Total stored entries, sum of r_{p-1} * n_p * r_p over the cores."""
    return int(sum(core.size for core in train.cores))
