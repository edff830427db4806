"""Dense tensor storage conventions, unfoldings, and contraction kernels.

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

from .errors import ArgumentError, ShapeError


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


def multiset_tables(n: int, m: int):
    """The multisets of sizes 0..m over range(n), level by level.

    Returns ``(members, grows, counts)``, lists indexed by the size p.
    ``members[p]`` is the M_p x p array of the M_p = C(n+p-1, p) multisets
    as sorted indices, in ``combinations_with_replacement(range(n), p)``
    order, which is the ascending order of the codes of the sorted
    multi-indices.  ``grows[p]``, for p < m, is the M_p x n table of the
    rank at size p + 1 of a multiset with one digit d added.  ``counts[p]``
    holds how many of the n^p multi-indices share each multiset, the
    multinomial coefficients: counts[p + 1][grows[p][s, d]] sums
    counts[p][s].

    No table is sorted.  In order, the multisets of size p + 1 are each
    multiset of size p followed by every digit from its largest one, l, up.
    So grows[p][s, d] is d appended when d >= l, and else l appended to
    grows[p - 1][s', d], s' the multiset without l.
    """
    if n < 1 or m < 1:
        raise ArgumentError("need n >= 1 and m >= 1")
    digits = np.arange(n)
    members = [np.zeros((1, 0), dtype=np.intp), digits[:, None]]
    grows = [digits[None, :]]  # from the empty multiset
    parent = np.zeros(n, dtype=np.intp)
    for _ in range(1, m):
        last = members[-1][:, -1]
        start = np.cumsum(n - last) - (n - last) - last  # rank of (s, 0)
        append = start[:, None] + digits  # valid where digit >= last
        inserted = start[grows[-1][parent]] + last[:, None]
        grows.append(np.where(digits >= last[:, None], append, inserted))
        owner = np.repeat(np.arange(last.size), n - last)
        members.append(np.column_stack(
            [members[-1][owner], np.arange(owner.size) - start[owner]]))
        parent = owner
    counts = [np.ones(1, dtype=np.intp)]
    for p, grow in enumerate(grows):
        # exact: a count is at most n^p, far below 2^53
        counts.append(np.bincount(grow.ravel(), np.repeat(counts[p], n),
                                  members[p + 1].shape[0]).astype(np.intp))
    return members, grows, counts


def _multiset_ranks(grows) -> np.ndarray:
    """The multiset rank of each of the n^m multi-indices, from the
    :func:`multiset_tables` grow tables: one digit added at a time."""
    ranks = grows[0].ravel()
    for grow in grows[1:]:
        ranks = grow[ranks].ravel()
    return ranks


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


def hpds_evaluator(tensor: np.ndarray):
    """``x -> A_(k) x^[k-1]`` on a cubical order-k tensor, laid out once.

    Each contraction of the leading mode with x is the one BLAS product
    ``np.tensordot(x, out, axes=(0, 0))`` makes, (1 x n) times
    (n x n^(p-1)), without its per-call transposes and shape bookkeeping;
    the tensor's n x n^(k-1) matrix is made here.  The returned function
    takes a float n-vector and checks nothing.
    """
    tensor = np.asarray(tensor, dtype=float)
    n, k = _require_cubical(tensor.shape)
    first = tensor.reshape(n, -1)

    def evaluate(x: np.ndarray) -> np.ndarray:
        row = x.reshape(1, n)
        out = first
        for _ in range(k - 1):
            out = np.dot(row, out.reshape(n, -1))
        return out.reshape(n)

    return evaluate


def _sweep_matrices(mats, n: int, k: int) -> list[np.ndarray]:
    """The k-1 sweep arguments as n x c_p matrices."""
    mats = [_as_columns(mat, n) for mat in mats]
    if len(mats) != k - 1:
        raise ArgumentError(f"expected {k - 1} matrices, got {len(mats)}")
    return mats


def sweep_leading(tensor: np.ndarray, mats, merge) -> np.ndarray:
    """Contract modes 1..k-1 with n x c_p matrices, merging as they meet.

    The running message is an (a, rest) array over an argument index and
    the modes not yet contracted, starting from a = 1.  Contracting mode p
    with ``mats[p - 1]`` gives an (a, c_p, rest') array, which ``merge``
    maps to the (a', rest') array the sweep continues with.  Returns the
    n x a' matrix with rows indexed by mode k.
    """
    tensor = np.asarray(tensor, dtype=float)
    n, k = _require_cubical(tensor.shape)
    msg = tensor.reshape(1, -1)
    for mat in _sweep_matrices(mats, n, k):
        msg = merge(mat.T @ msg.reshape(msg.shape[0], n, -1))
    return msg.T


def _keep_every_row(met: np.ndarray) -> np.ndarray:
    """Sweep merge that keeps every row of the (a1, a2, m) message, the
    earlier argument's index fastest (psi order over the argument modes)."""
    a1, a2, m = met.shape
    return met.transpose(1, 0, 2).reshape(a1 * a2, m)


def contract_leading(tensor: np.ndarray, args) -> np.ndarray:
    """Contract modes 1..k-1 with k-1 n-vectors or n x c_p matrices.

    Returns the n x (prod c_p) matrix with rows indexed by mode k and
    columns psi-merged over the arguments (slot 1 fastest), which is
    A_(k) (args[k-2] kron ... kron args[0]); all-vector arguments give the
    n x 1 column A v_1 ... v_{k-1}.  One :func:`sweep_leading` that keeps
    every row.
    """
    return sweep_leading(tensor, args, _keep_every_row)


def almost_symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Average a cubical tensor over all permutations of its first k-1 modes.

    The average is applied in factored form: the symmetrizer of modes
    1..m equals the product over j = 2..m of (1/j)(e + sum_{i<j} (i j)),
    which costs O(k^2) transposes instead of (k-1)!.  The result evaluates
    to the same polynomial under :func:`hpds_evaluator` and is the
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
