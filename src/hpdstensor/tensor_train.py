"""Tensor-train representation: construction, evaluation, contraction.

A train over dims (n_1, ..., n_k) is a list of order-3 cores, core p shaped
(r_{p-1}, n_p, r_p) with r_0 = r_k = 1.  Entry (j_1, ..., j_k) of the
represented tensor is the chained product of core slices

    V1[:, j_1, :] @ V2[:, j_2, :] @ ... @ Vk[:, j_k, :]   (1x1).

Construction peels modes from mode k backwards with sequential compact SVDs,
so the cores come out in the paper ordering of the homogeneous-polynomial
evaluation formula: the output mode k is separated first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError, UnsupportedError
from .kernels import RankTolerance, compact_svd
from .tensor_core import _as_columns, _require_cubical, unfold

__all__ = [
    "TensorTrain", "tt_decompose", "tt_reconstruct", "tt_eval_hpds",
    "tt_contract", "tt_param_count", "tt_zero",
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
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
            raise ShapeError("boundary ranks r_0 and r_k must be 1")
        for left, right in zip(self.cores, self.cores[1:]):
            if left.ndim != 3 or right.ndim != 3:
                raise ShapeError("cores must be order-3 arrays")
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


def tt_decompose(source: np.ndarray, dims=None,
                 tol: RankTolerance | None = None) -> TensorTrain:
    """Build a tensor train by sequential compact SVDs, mode k first.

    ``source`` is either an order-k array, or the k-mode unfolding
    (n_k x n_1 ... n_{k-1}, psi column order) together with ``dims``.
    Interior ranks equal the numerical ranks of the sequential unfoldings
    A_({1..p}), and reconstruction matches the input up to the tolerance.
    """
    source = np.asarray(source, dtype=float)
    if dims is None:
        if source.ndim < 1:
            raise ShapeError("source must have order >= 1")
        dims = source.shape
        c = (unfold(source, range(1, source.ndim)) if source.ndim > 1
             else source.reshape(-1, 1))
    else:
        dims = tuple(int(n) for n in dims)
        rows = int(np.prod(dims[:-1]))
        if source.shape != (dims[-1], rows):
            raise ShapeError(
                f"k-mode unfolding must be {(dims[-1], rows)}, got {source.shape}")
        c = source.T.copy()
    dims = tuple(int(n) for n in dims)
    k = len(dims)
    if k == 1:
        return TensorTrain((c.reshape(1, dims[0], 1, order="F"),))
    if not np.any(c):
        return tt_zero(dims)

    cores: list[np.ndarray] = [None] * k
    r_right = 1
    for p in range(k, 1, -1):
        # c rows merge modes 1..p-1, columns merge (i_p, alpha_p), i_p fastest
        svd = compact_svd(c, tol)
        if svd.rank == 0:
            return tt_zero(dims)
        r_left = svd.rank
        cores[p - 1] = svd.V.T.reshape(r_left, dims[p - 1], r_right, order="F")
        c = svd.U * svd.S
        if p > 2:
            c = c.reshape(-1, dims[p - 2] * r_left, order="F")
        r_right = r_left
    cores[0] = c.reshape(1, dims[0], r_right, order="F")
    return TensorTrain(tuple(cores))


def tt_reconstruct(train: TensorTrain) -> np.ndarray:
    """Contract the train back into a dense order-k tensor."""
    acc = train.cores[0][0]  # (n_1, r_1)
    for core in train.cores[1:]:
        acc = np.tensordot(acc, core, axes=(acc.ndim - 1, 0))
    return acc[..., 0]


def tt_eval_hpds(train: TensorTrain, x: np.ndarray) -> np.ndarray:
    """Evaluate A_(k) x^[k-1] directly on the cores.

    Each of the first k-1 cores is contracted with x on its middle mode,
    the resulting rank-space matrices are chained, and the last core closes
    the chain as its (r_{k-1} x n) matrix slice.
    """
    n, k = _require_cubical(train.dims)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != n:
        raise ShapeError(f"state length {x.shape[0]} != dimension {n}")
    msg = np.ones(1)
    for core in train.cores[:-1]:
        msg = msg @ np.tensordot(x, core, axes=(0, 1))
    return msg @ train.cores[-1][:, :, 0]


def tt_contract(train: TensorTrain, args) -> np.ndarray:
    """Contract modes 1..k-1 against vectors, at most one being a matrix.

    Slot p (an n-vector or n x c matrix) is contracted with the middle mode
    of core p, so it addresses tensor mode p.  Returns the n x (prod c_p)
    matrix whose rows are indexed by mode k; with all-vector arguments this
    is the n x 1 column A v_1 v_2 ... v_{k-1}.
    """
    n, k = _require_cubical(train.dims)
    args = list(args)
    if len(args) != k - 1:
        raise ArgumentError(f"expected {k - 1} arguments, got {len(args)}")
    mats = [_as_columns(a, n) for a in args]
    if sum(1 for m in mats if m.shape[1] > 1) > 1:
        raise UnsupportedError("at most one matrix argument is supported")
    acc = np.ones((1, 1))  # (merged column count, chain rank)
    for core, z in zip(train.cores[:-1], mats):
        contracted = np.einsum("rns,nc->rcs", core, z)
        acc = np.einsum("ar,rcs->acs", acc, contracted)
        acc = acc.reshape(-1, acc.shape[2])
    return (acc @ train.cores[-1][:, :, 0]).T


def tt_param_count(train: TensorTrain) -> int:
    """Total stored entries, sum of r_{p-1} * n_p * r_p over the cores."""
    return int(sum(core.size for core in train.cores))
