"""Dense tensor storage conventions, index arithmetic, and Kronecker algebra.

Tensors are numpy arrays of order k >= 1.  The flat storage order used by
every serialization and every reshape in this package is column-major
("first index fastest"): the entry at 1-based multi-index (j_1, ..., j_k)
lives at flat position

    psi(j, n) = j_1 + sum_{i=2}^{k} (j_i - 1) * n_1 * ... * n_{i-1}.

Matrices are 2-D arrays; where a flat layout matters they are column-major
as well, which is the psi order of an order-2 tensor.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, ShapeError, UnsupportedError


def psi_index(indices, dims) -> int:
    """Map a 1-based multi-index to its 1-based flat position.

    Parameters
    ----------
    indices : sequence of int
        1-based index j_p per mode.
    dims : sequence of int
        Mode sizes n_p; must have the same length as ``indices``.
    """
    indices = tuple(int(j) for j in indices)
    dims = tuple(int(n) for n in dims)
    if len(indices) != len(dims) or not dims:
        raise ArgumentError("indices and dims must be nonempty and equal length")
    flat = 0
    stride = 1
    for j, n in zip(indices, dims):
        if not 1 <= j <= n:
            raise IndexError(f"index {j} out of range 1..{n}")
        flat += (j - 1) * stride
        stride *= n
    return flat + 1


def multi_indices(dims):
    """Yield all 1-based multi-indices of ``dims`` in psi (flat) order."""
    dims = tuple(int(n) for n in dims)
    idx = [1] * len(dims)
    total = int(np.prod(dims)) if dims else 0
    for _ in range(total):
        yield tuple(idx)
        for p in range(len(dims)):
            if idx[p] < dims[p]:
                idx[p] += 1
                break
            idx[p] = 1


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with blocks a_ij * b."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product of two matrices with equal column count."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"column mismatch: {a.shape[1]} vs {b.shape[1]}")
    n, m, s = a.shape[0], b.shape[0], a.shape[1]
    # row index of column j is i_a * m + i_b, i.e. kron of the two columns
    return (a[:, None, :] * b[None, :, :]).reshape(n * m, s)


def khatri_rao_power(x: np.ndarray, m: int) -> np.ndarray:
    """m-fold Khatri-Rao power of a matrix; m = 1 returns the input."""
    if m < 1:
        raise ArgumentError(f"power must be >= 1, got {m}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = x
    for _ in range(m - 1):
        out = khatri_rao(x, out)
    return out


def kron_power(v: np.ndarray, m: int) -> np.ndarray:
    """m-fold Kronecker power of a vector; m = 0 gives the scalar [1]."""
    if m < 0:
        raise ArgumentError("power must be >= 0")
    v = np.asarray(v, dtype=float).ravel()
    out = np.ones(1)
    for _ in range(m):
        out = np.kron(out, v)
    return out


def _mode_partition(k: int, row_modes):
    given = [int(p) for p in row_modes]
    rm = sorted(set(given))
    if not rm:
        raise ArgumentError("row_modes must be nonempty")
    if rm[0] < 1 or rm[-1] > k:
        raise ArgumentError(f"row_modes must lie in 1..{k}")
    if len(rm) != len(given):
        raise ArgumentError("row_modes must not repeat")
    cm = [p for p in range(1, k + 1) if p not in rm]
    return rm, cm


def unfold(tensor: np.ndarray, row_modes) -> np.ndarray:
    """Matricize ``tensor`` with ``row_modes`` merged into rows.

    Both the row and column index are psi-merged over their mode sets taken
    in increasing order, so ``unfold(T, {p})`` is the p-mode matricization
    and ``unfold(T, {1..k})`` is vec(T) as a one-column matrix.
    """
    tensor = np.asarray(tensor, dtype=float)
    k = tensor.ndim
    rm, cm = _mode_partition(k, row_modes)
    perm = [p - 1 for p in rm + cm]
    rows = int(np.prod([tensor.shape[p - 1] for p in rm]))
    return np.transpose(tensor, perm).reshape(rows, -1, order="F")


def fold(matrix: np.ndarray, row_modes, dims) -> np.ndarray:
    """Inverse of :func:`unfold` for the same mode partition and dims."""
    matrix = np.asarray(matrix, dtype=float)
    dims = tuple(int(n) for n in dims)
    k = len(dims)
    rm, cm = _mode_partition(k, row_modes)
    rows = int(np.prod([dims[p - 1] for p in rm]))
    cols = int(np.prod([dims[p - 1] for p in cm])) if cm else 1
    if matrix.shape != (rows, cols):
        raise ShapeError(f"expected shape {(rows, cols)}, got {matrix.shape}")
    perm = [p - 1 for p in rm + cm]
    shaped = matrix.reshape([dims[p - 1] for p in rm + cm], order="F")
    return np.transpose(shaped, np.argsort(perm))


def mode_vec_product(tensor: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Contract mode ``p`` (1-based) of ``tensor`` with the vector ``v``."""
    tensor = np.asarray(tensor, dtype=float)
    v = np.asarray(v, dtype=float).ravel()
    if not 1 <= p <= tensor.ndim:
        raise ArgumentError(f"mode {p} out of range 1..{tensor.ndim}")
    if v.shape[0] != tensor.shape[p - 1]:
        raise ShapeError(
            f"vector length {v.shape[0]} != mode-{p} size {tensor.shape[p - 1]}")
    return np.tensordot(tensor, v, axes=([p - 1], [0]))


def _require_cubical(dims) -> tuple[int, int]:
    """(n, k) of a cubical shape; raises ShapeError for any other shape."""
    dims = tuple(dims)
    if len(set(dims)) != 1:
        raise ShapeError(f"dynamics is not cubical: dims {dims}")
    return dims[0], len(dims)


def _as_columns(arg: np.ndarray, n: int) -> np.ndarray:
    """An n-vector as an n x 1 matrix, an n x c matrix unchanged."""
    arg = np.asarray(arg, dtype=float)
    if arg.ndim == 1:
        arg = arg.reshape(-1, 1)
    if arg.ndim != 2 or arg.shape[0] != n:
        raise ShapeError(f"argument must have {n} rows, got shape {arg.shape}")
    return arg


def hpds_eval_full(tensor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial map A_(k) x^[k-1] of a cubical order-k tensor.

    Modes 1..k-1 are each contracted with ``x``; the remaining mode k indexes
    the output.  For k = 2 this is the 2-mode matricization times x.
    """
    tensor = np.asarray(tensor, dtype=float)
    n, k = _require_cubical(tensor.shape)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != n:
        raise ShapeError(f"state length {x.shape[0]} != dimension {n}")
    out = tensor
    for _ in range(k - 1):
        out = np.tensordot(x, out, axes=(0, 0))
    return out


def contract_leading(tensor: np.ndarray, args) -> np.ndarray:
    """Contract modes 1..len(args) of ``tensor``, at most one arg a matrix.

    Vectors (or n x 1 columns) remove their mode.  An n x c matrix with
    c > 1 replaces its mode by a column index placed last, so contracting
    modes 1..k-1 of an order-k tensor gives an n-vector, or the n x c
    matrix with rows indexed by mode k, as :func:`tt_contract` does.
    """
    out = np.asarray(tensor, dtype=float)
    wide = False
    for arg in args:
        arg = _as_columns(arg, out.shape[0] if out.ndim else 0)
        if arg.shape[1] == 1:
            out = np.tensordot(arg[:, 0], out, axes=(0, 0))
            continue
        if wide:
            raise UnsupportedError("at most one matrix argument is supported")
        wide = True
        out = np.moveaxis(np.tensordot(arg, out, axes=(0, 0)), 0, -1)
    return out


def almost_symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Average a cubical tensor over all permutations of its first k-1 modes.

    The average is applied in factored form: the symmetrizer of modes
    1..m equals the product over j = 2..m of (1/j)(e + sum_{i<j} (i j)),
    which costs O(k^2) transposes instead of (k-1)!.  The result evaluates
    to the same polynomial under :func:`hpds_eval_full` and is the
    canonical almost-symmetric representative of that polynomial.
    """
    tensor = np.asarray(tensor, dtype=float)
    _, k = _require_cubical(tensor.shape)
    out = tensor.copy()
    for j in range(1, k - 1):
        acc = out.copy()
        for i in range(j):
            acc += np.swapaxes(out, i, j)
        out = acc / (j + 1)
    return out


def is_almost_symmetric(tensor: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff ``max |T - almost_symmetrize(T)| <= tol``.

    This accepts every tensor whose entries deviate by at most ``tol``
    under each permutation of the first k-1 indices (the average of those
    deviations is the distance to the symmetrization), and a tensor it
    accepts deviates by at most 2 tol under every such permutation, since
    |T - P(T)| <= |T - S| + |P(S - T)| for the symmetrization S = P(S).
    """
    tensor = np.asarray(tensor, dtype=float)
    return bool(np.max(np.abs(tensor - almost_symmetrize(tensor)),
                       initial=0.0) <= tol)
