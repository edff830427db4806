"""Hierarchical Tucker representation over a binary dimension tree.

Each tree node carries a sorted mode set; the root holds all modes, leaves
are singletons, and every parent is the disjoint union of its children.  A
leaf p stores a factor matrix U_p (n_p x r_p); an internal node Q stores a
transfer matrix G_Q relating it to its children.

Kronecker ordering convention: with psi (first-index-fastest) vectorization,
a node's row index merges the left child's modes fastest, so the nesting
relation that reconstructs exactly is

    U_Q = (U_Qr  kron  U_Ql) @ G_Q,

with the left-child rank index fastest in G_Q's merged row index.  The
reconstruction round-trip tests are the arbiter for this choice.  The root
"factor" is vec(A) itself, absorbed into the root transfer by projection.

A dense tensor is decomposed in one leaves-to-root climb: k leaf QRs, each
of the core the earlier leaves left, so that only the first reads all n^k
entries, then one SVD per internal node of a matrix with r_left * r_right
rows.  An almost symmetric tensor given by its monomial coefficients is
decomposed on distinct rows instead, one basis per kind of node
(:func:`_symmetric_tree`), and a tensor train on its gauged cores
(:func:`_train_tree`).  With no tolerance given, each node's threshold is
the default one at the shape of its dense unfolding, so every node rank is
that unfolding's numerical rank.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ShapeError
from .kernels import (RankTolerance, _sign_rule, _tol_at, compact_svd,
                      left_basis)
from .tensor_core import _keep_every_row, _require_cubical, _sweep_matrices
from .tensor_train import _left_orthogonalize

__all__ = [
    "TreeNode", "DimensionTree", "build_tree", "HTucker", "htd_decompose",
    "htd_reconstruct", "htd_evaluator", "htd_contract", "htd_sweep",
    "htd_param_count",
]


@dataclass(frozen=True)
class TreeNode:
    modes: tuple[int, ...]
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(int(p) for p in self.modes))
        if (self.left is None) != (self.right is None):
            raise ArgumentError("internal nodes need both children")
        if self.left is not None:
            merged = sorted(self.left.modes + self.right.modes)
            if merged != sorted(self.modes):
                raise ArgumentError(
                    f"node {self.modes} is not the disjoint union of its children")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def ordered_modes(self) -> tuple[int, ...]:
        """Modes in tree concatenation order (left subtree first)."""
        if self.is_leaf:
            return self.modes
        return self.left.ordered_modes() + self.right.ordered_modes()


@dataclass(frozen=True)
class DimensionTree:
    """Binary dimension tree with root modes {1..k} and singleton leaves."""

    root: TreeNode

    def __post_init__(self):
        k = len(self.root.modes)
        if k < 2:
            raise ArgumentError("dimension trees need order k >= 2")
        if sorted(self.root.modes) != list(range(1, k + 1)):
            raise ArgumentError("root must carry modes 1..k")
        for leaf in self.leaves():
            if len(leaf.modes) != 1:
                raise ArgumentError("leaves must be singletons")

    @property
    def order(self) -> int:
        return len(self.root.modes)

    def leaves(self):
        return [node for node, _ in self.walk() if node.is_leaf]

    def internal_nodes(self):
        return [node for node, _ in self.walk() if not node.is_leaf]

    def walk(self):
        """(node, level) pairs in depth-first left-to-right order."""
        out = []
        stack = [(self.root, 0)]
        while stack:
            node, level = stack.pop()
            out.append((node, level))
            if not node.is_leaf:
                stack.append((node.right, level + 1))
                stack.append((node.left, level + 1))
        return out

    @property
    def depth(self) -> int:
        return max(level for _, level in self.walk())


def build_tree(k: int) -> DimensionTree:
    """Canonical balanced tree: split off the first ceil(s/2) modes at each
    internal node.  Its depth is ceil(log2 k)."""
    def split(modes: tuple[int, ...]) -> TreeNode:
        if len(modes) < 2:  # a leaf, or k < 2, which DimensionTree refuses
            return TreeNode(modes)
        half = (len(modes) + 1) // 2
        return TreeNode(modes, split(modes[:half]), split(modes[half:]))

    return DimensionTree(split(tuple(range(1, k + 1))))


@dataclass(frozen=True)
class HTucker:
    """Hierarchical Tucker value: tree, leaf factors, transfer matrices.

    ``leaf_factors[p]`` is the n_p x r_p factor of mode p; ``transfer`` maps
    an internal node's mode tuple to its (r_left * r_right) x r_Q matrix,
    left-child rank fastest.  The root transfer has one column and absorbs
    the overall scale.  Both are stored as float arrays; a float64 array is
    kept as it is, so factors given as one array stay one array.
    """

    tree: DimensionTree
    dims: tuple[int, ...]
    leaf_factors: dict = field(default_factory=dict)
    transfer: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        for name in ("leaf_factors", "transfer"):
            object.__setattr__(self, name, {
                key: np.asarray(value, dtype=float)
                for key, value in getattr(self, name).items()})
        if len(self.dims) != self.tree.order:
            raise ShapeError("dims length must match tree order")
        for node in self.tree.leaves():
            p = node.modes[0]
            if p not in self.leaf_factors:
                raise ShapeError(f"no leaf factor for mode {p}")
            u = self.leaf_factors[p]
            if u.ndim != 2 or u.shape[0] != self.dims[p - 1]:
                raise ShapeError(f"leaf {p} factor must be "
                                 f"{self.dims[p - 1]} x r, got {u.shape}")
        # children before parents, so that their ranks are known to exist
        for node in reversed(self.tree.internal_nodes()):
            if node.modes not in self.transfer:
                raise ShapeError(f"no transfer matrix at node {node.modes}")
            g = self.transfer[node.modes]
            rl = self._rank(node.left)
            rr = self._rank(node.right)
            if g.ndim != 2 or g.shape[0] != rl * rr:
                raise ShapeError(f"transfer at {node.modes} must have "
                                 f"{rl} * {rr} rows, got {g.shape}")
        if self.transfer[self.tree.root.modes].shape[1] != 1:
            raise ShapeError("root rank must be 1")

    def _rank(self, node: TreeNode) -> int:
        if node.is_leaf:
            return self.leaf_factors[node.modes[0]].shape[1]
        return self.transfer[node.modes].shape[1]

    def rank_of(self, modes) -> int:
        """Rank of the tree node that carries the given mode set."""
        key = tuple(sorted(int(p) for p in modes))
        for node, _ in self.tree.walk():
            if tuple(sorted(node.modes)) == key:
                return self._rank(node)
        raise ArgumentError(f"mode set {key} is not a node of the tree")

    def max_rank(self) -> int:
        ranks = [u.shape[1] for u in self.leaf_factors.values()]
        ranks += [g.shape[1] for g in self.transfer.values()]
        return max(ranks) if ranks else 0

    @functools.cached_property
    def _program(self) -> list:
        """The tree's :func:`_post_order` program, built on first use and
        kept: the value is frozen, so every sweep, evaluator and
        reconstruction of it runs the same program."""
        return _post_order(self)


def _node_tol(tol: RankTolerance | None, dims, modes) -> RankTolerance:
    """``tol``, or when it is None the default threshold at the shape of
    the node's dense unfolding, so that the smaller projected matrix keeps
    the same ranks."""
    rows = math.prod(dims[p - 1] for p in modes)
    return _tol_at(tol, (rows, math.prod(dims) // rows))


def _climb(core: np.ndarray, tree: DimensionTree, dims,
           tol: RankTolerance | None) -> dict:
    """Transfer matrices above the leaves of a tensor of ``dims``, given as
    ``core``, the tensor projected onto every leaf factor, with the leaf
    rank axes in mode order.

    The core's axes are put in tree order, so that each node's children are
    adjacent axes.  Internal nodes are then visited from small to large:
    the node's transfer is the left singular basis of its children's
    (r_left * r_right)-row merged axes against the rest of the core, which
    is projected onto it in turn; its threshold is :func:`_node_tol`'s, at
    the node's dense unfolding.  The root's transfer is what remains of
    vec(A), keeping the overall scale.
    """
    order = tree.root.ordered_modes()
    core = core.transpose([p - 1 for p in order])
    axes = [(p,) for p in order]
    transfer: dict[tuple[int, ...], np.ndarray] = {}
    for node in sorted(tree.internal_nodes(), key=lambda q: len(q.modes)):
        i = axes.index(node.left.modes)
        rest = core.shape[:i] + core.shape[i + 2:]
        # children's axes as rows, the left child's fastest
        merged = np.moveaxis(core, (i + 1, i), (0, 1)).reshape(
            core.shape[i] * core.shape[i + 1], math.prod(rest))
        if node is tree.root:
            transfer[node.modes] = merged
            break
        g = left_basis(merged, _node_tol(tol, dims, node.modes))
        core = np.moveaxis((g.T @ merged).reshape((g.shape[1],) + rest), 0, i)
        axes[i:i + 2] = [node.modes]
        transfer[node.modes] = g
    return transfer


def _train_tree(train) -> HTucker:
    """The tree of :func:`build_tree` of the tensor a train represents,
    without forming that tensor.

    Every node of the balanced tree is a mode interval a..b, and its dense
    unfolding is L S R: L the product of cores 1..a-1, S the segment of
    cores a..b, R that of cores b+1..k.  One QR pass from the left gives
    L = Q_L G_L for every prefix (:func:`tensor_train._left_orthogonalize`),
    one from the right R = G_R Q_R for every suffix, with orthonormal Q_L
    and Q_R, so the unfolding has the singular values and left singular
    vectors of G_L S G_R.  Leaf p is the left
    singular basis of that matrix, unfolded n x (rho rho'), and passes up
    its projected segment U_p^T core_p.  An internal node contracts its
    children's projected segments over their shared train rank; its
    transfer is the left singular basis of that contraction gauged on both
    sides, with the (r_left * r_right) children's ranks as rows, the left
    child's fastest (the hierarchical SVD of Grasedyck, SIAM J. Matrix
    Anal. Appl. 2010), and it projects the contraction in turn.  The root's
    transfer is the contraction itself.  Each threshold is the default one
    at the node's dense unfolding (:func:`_node_tol`), so node ranks are
    :func:`htd_decompose`'s, and no matrix has more than n r^2 or
    r_left r_right r^2 entries for the largest train rank r.
    """
    dims, k = train.dims, train.order
    tree = build_tree(k)
    # left[p]: G_L of cores 1..p; right[p]: G_R of cores p+1..k
    _, left = _left_orthogonalize(train.cores[:-1])
    right = [np.ones((1, 1))] * (k + 1)
    for p in range(k, 1, -1):
        core = train.cores[p - 1]
        gauged = core.reshape(-1, core.shape[2]) @ right[p]
        right[p - 1] = np.linalg.qr(gauged.reshape(core.shape[0], -1).T,
                                    mode="r").T
    segments, leaf_factors, transfer = {}, {}, {}
    for leaf in tree.leaves():
        p = leaf.modes[0]
        core = train.cores[p - 1]
        gauged = (left[p - 1] @ core.reshape(core.shape[0], -1)).reshape(
            -1, core.shape[2]) @ right[p]
        gauged = gauged.reshape(left[p - 1].shape[0], dims[p - 1], -1)
        u = leaf_factors[p] = left_basis(
            gauged.transpose(1, 0, 2).reshape(dims[p - 1], -1),
            _node_tol(None, dims, leaf.modes))
        segments[leaf.modes] = u.T @ core  # (alpha, u, beta)
    for node in sorted(tree.internal_nodes(), key=lambda t: len(t.modes)):
        y_l, y_r = segments[node.left.modes], segments[node.right.modes]
        (alpha, r_l, mid), (_, r_r, beta) = y_l.shape, y_r.shape
        # (alpha, u_right, u_left, beta): the left child's rank fastest;
        # explicit sizes, as a -1 is ambiguous once a rank is 0
        met = (y_l.reshape(alpha * r_l, mid) @ y_r.reshape(mid, r_r * beta))
        met = met.reshape(alpha, r_l, r_r, beta).transpose(0, 2, 1, 3)
        met = met.reshape(alpha, r_r * r_l, beta)
        g_left, g_right = left[node.modes[0] - 1], right[node.modes[-1]]
        gauged = (g_left @ met.reshape(alpha, r_r * r_l * beta)).reshape(
            g_left.shape[0], r_r * r_l, beta) @ g_right
        merged = gauged.transpose(1, 0, 2).reshape(
            r_r * r_l, g_left.shape[0] * g_right.shape[1])
        if node is tree.root:
            transfer[node.modes] = merged
            break
        g = transfer[node.modes] = left_basis(
            merged, _node_tol(None, dims, node.modes))
        segments[node.modes] = g.T @ met
    return HTucker(tree, dims, leaf_factors, transfer)


def _symmetric_tree(coeffs: np.ndarray, tables, tree: DimensionTree,
                    tol: RankTolerance | None) -> HTucker:
    """A hierarchical Tucker tree of the almost symmetric tensor with k-mode
    unfolding coeffs[:, columns], on distinct rows.

    A node's unfolding depends only on its kind (q, has_k): q of its modes
    are among the symmetric modes 1..k-1, and has_k says whether it holds
    mode k.  Its distinct rows are the q-multisets, times i_k when has_k
    (multiset fastest), and its distinct columns those of the complement;
    entry (m, m_c) reads coefficient union(m, m_c).  Weighted by the square
    roots of their counts on both sides, they have the dense unfolding's
    singular values, and its left singular vectors once divided by the row
    weights.  So one basis per kind, at ``tol`` resolved as
    :func:`_node_tol` resolves it, at the dense unfolding's shape
    n^(q+has_k) x n^(k-q-has_k), serves every node of that kind: the
    leaves 1..k-1 share one array.  The complement's kind has the
    transposed unfolding, so the same SVD gives its basis from V; the
    root's two children are such a pair.

    The transfer of node t with children l and r is (U_r kron U_l)^T U_t, a
    sum over the children's multi-indices that depends only on their
    multisets, so it runs over the children's distinct rows with the
    counts as weights.  Its columns are signed by the rule of
    :func:`kernels.compact_svd`, the node's basis flipped alongside.  The
    root's basis is vec(A) itself, one coefficient per (multiset, i_k).
    """
    members, grows, counts = tables
    n, k = coeffs.shape[0], tree.order
    unions: dict = {}

    def union(a: int, b: int) -> np.ndarray:
        # M_a x M_b ranks of the (a + b)-multiset m_a + m_b
        if (a, b) not in unions:
            table = np.arange(counts[a].size)[:, None]
            for j, digit in enumerate(members[b].T):
                table = grows[a + j][table, digit]
            unions[a, b] = np.broadcast_to(table, (counts[a].size,
                                                   counts[b].size))
        return unions[a, b]

    weights: dict = {}

    def weight(kind) -> np.ndarray:
        if kind not in weights:
            weights[kind] = np.tile(counts[kind[0]].astype(float),
                                    n if kind[1] else 1)
        return weights[kind]

    def kind_of(node) -> tuple[int, bool]:
        return len(node.modes) - (k in node.modes), k in node.modes

    def merge(left, right) -> np.ndarray:
        # parent row of each pair of child rows; i_k is the slowest index
        table = union(left[0], right[0])
        stride = counts[left[0] + right[0]].size * np.arange(n)
        if left[1]:
            return (table + stride[:, None, None]).reshape(-1, table.shape[1])
        if right[1]:
            return (table[:, None] + stride[:, None]).reshape(table.shape[0],
                                                              -1)
        return table

    bases = {(k - 1, True): coeffs.reshape(-1, 1)}

    def basis(kind) -> np.ndarray:
        if kind not in bases:
            q, has_k = kind
            other = (k - 1 - q, not has_k)
            block = coeffs[:, union(q, k - 1 - q)]  # (i_k, m, m_c)
            block = (block.reshape(-1, block.shape[2]) if has_k else
                     block.transpose(1, 0, 2).reshape(block.shape[1], -1))
            rows, cols = np.sqrt(weight(kind)), np.sqrt(weight(other))
            size = q + has_k
            svd = compact_svd(rows[:, None] * block * cols,
                              _tol_at(tol, (n ** size, n ** (k - size))))
            bases[kind] = svd.U / rows[:, None]
            bases[other] = svd.V / cols[:, None]
        return bases[kind]

    values, leaf_factors, transfer = {}, {}, {}
    for leaf in tree.leaves():
        values[leaf.modes] = leaf_factors[leaf.modes[0]] = basis(
            kind_of(leaf))
    for node in sorted(tree.internal_nodes(), key=lambda t: len(t.modes)):
        left, right = kind_of(node.left), kind_of(node.right)
        u = basis(kind_of(node)).copy()
        u_left = values[node.left.modes] * weight(left)[:, None]
        u_right = values[node.right.modes] * weight(right)[:, None]
        # explicit sizes: a -1 is ambiguous once a rank is 0
        (rows_l, r_l), (rows_r, r_r), r_t = (u_left.shape, u_right.shape,
                                             u.shape[1])
        block = u[merge(left, right)].reshape(rows_l, rows_r * r_t)
        g = u_right.T @ (u_left.T @ block).reshape(r_l, rows_r, r_t)
        g = g.reshape(r_l * r_r, r_t, order="F")  # left child's rank fastest
        if node is not tree.root and g.shape[0]:
            _sign_rule(g, u)
        values[node.modes], transfer[node.modes] = u, g
    return HTucker(tree, (n,) * k, leaf_factors, transfer)


def _kron_apply(left_val: np.ndarray, right_val: np.ndarray,
                g3: np.ndarray) -> np.ndarray:
    """The tree's one node product, once per internal node of every
    :func:`_run`: (right_val kron left_val) @ G, the left value's rows
    fastest, G's rows split as the C-contiguous ``g3`` (r_left, r_right,
    r); two ``np.dot`` products, the left value by G as an r_left x
    (r_right r) matrix, then the right value by that, r_right axis first."""
    # explicit sizes: a -1 is ambiguous once a rank is 0
    (a, r_l), (e, r_r), q = left_val.shape, right_val.shape, g3.shape[2]
    half = np.dot(left_val, g3.reshape(r_l, r_r * q))
    if a > 1:
        half = half.reshape(a, r_r, q).transpose(1, 0, 2)
    return np.dot(right_val, half.reshape(r_r, a * q)).reshape(e * a, q)


def _post_order(h: HTucker) -> list:
    """The tree as a program: leaves as their mode p and internal nodes as
    their transfer split (r_left, r_right, r), left child's rank fastest,
    and stored C-contiguous, so that the r_left x (r_right r) matrix the
    node product multiplies by is a view; children first."""
    program = []

    def visit(node: TreeNode):
        if node.is_leaf:
            program.append(node.modes[0])
            return
        visit(node.left)
        visit(node.right)
        g = h.transfer[node.modes]
        program.append(np.ascontiguousarray(g.reshape(
            h._rank(node.left), h._rank(node.right), g.shape[1], order="F")))

    visit(h.tree.root)
    return program


def _run(program: list, leaf_values: dict, meet) -> np.ndarray:
    """The root value of a :func:`_post_order` program, each internal node
    the ``meet`` of its children's values and its split transfer."""
    stack = []
    for step in program:
        if isinstance(step, int):
            stack.append(leaf_values[step])
        else:
            right = stack.pop()
            stack.append(meet(stack.pop(), right, step))
    return stack[0]


def htd_decompose(tensor: np.ndarray, tree: DimensionTree | None = None,
                  tol: RankTolerance | None = None) -> HTucker:
    """Decompose a dense tensor on the given (default balanced) tree.

    One leaves-to-root climb (the hierarchical SVD of Grasedyck, SIAM J.
    Matrix Anal. Appl. 2010) whose leaves are sequentially truncated
    (Vannieuwenhoven, Vandebril & Meerbergen, SIAM J. Sci. Comput. 2012).
    Leaf p is the left singular basis of the mode-p unfolding of the core
    already projected onto leaves 1..p-1, taken through a QR of the
    unfolding's transpose, so its SVD is n_p x n_p; the core is then
    projected onto it.  Contracting axis 0 each time keeps mode p at axis
    0, so the unfolding is a free reshape, and the product that projects
    also puts the new rank axis last.  Only leaf 1 reads all n^k entries;
    every leaf of rank below n_p shrinks the matrices of the later ones.
    :func:`_climb` then builds the internal nodes from the projected core.

    Without truncation the projections keep every singular value, so the
    hierarchical rank at a node is the numerical rank of its dense
    unfolding: with ``tol`` None each node's threshold, leaves included, is
    the default one at that unfolding's shape, max(rows, n^k / rows) eps
    sigma_max.  A coarser ``tol`` truncates every node at that tolerance,
    each leaf on the core the earlier leaves left.  No symmetry is assumed.
    """
    tensor = np.asarray(tensor, dtype=float)
    k = tensor.ndim
    if tree is None:
        tree = build_tree(k)
    if tree.order != k:
        raise ShapeError(f"tree order {tree.order} != tensor order {k}")
    dims = tensor.shape
    core, leaf_factors = tensor, {}
    for p in range(1, k + 1):
        rest = core.shape[1:]
        unfolding = core.reshape(dims[p - 1], math.prod(rest))
        u = leaf_factors[p] = left_basis(unfolding,
                                         _node_tol(tol, dims, (p,)))
        core = (unfolding.T @ u).reshape(rest + (u.shape[1],))
    return HTucker(tree, dims, leaf_factors, _climb(core, tree, dims, tol))


def htd_reconstruct(h: HTucker) -> np.ndarray:
    """Expand the tree back into a dense tensor."""
    vec = _run(h._program, h.leaf_factors, _kron_apply)
    order = h.tree.root.ordered_modes()
    shaped = vec.reshape([h.dims[p - 1] for p in order], order="F")
    return np.transpose(shaped, np.argsort([p - 1 for p in order]))


def htd_sweep(h: HTucker, mats, merge) -> np.ndarray:
    """Contract modes 1..k-1 with n x c_p matrices, merging as they meet.

    Each node's message is an (a, t, r) array over an argument index, mode
    k's index (t = n on the path from leaf k to the root, else 1) and the
    node's rank.  Leaf p < k starts from mats[p-1]^T U_p, leaf k from U_k
    with a = 1.  At an internal node the children's messages meet through
    the transfer matrix as an (a_left, a_right, t * r) array, which
    ``merge`` maps to the (a', t * r) array passed up.  The tree is walked
    by the tree's one cached :func:`_post_order` program, the one that
    evaluation and reconstruction run.  Returns the n x a' matrix with rows
    indexed by mode k.

    A node is :func:`_kron_apply` of the messages as (a x, r_left) and
    (b y, r_right) matrices: the operands ``np.tensordot`` would form,
    without its per-call axis bookkeeping, so the bits are its bits.
    """
    n, k = _require_cubical(h.dims)
    mats = _sweep_matrices(mats, n, k)
    leaf_values = {p: (mats[p - 1].T @ u)[:, None]
                   for p, u in h.leaf_factors.items() if p != k}
    leaf_values[k] = h.leaf_factors[k][None]

    def meet(left: np.ndarray, right: np.ndarray,
             g3: np.ndarray) -> np.ndarray:
        # explicit sizes: a -1 is ambiguous once a rank is 0
        (a, x, r_l), (b, y, r_r), q = left.shape, right.shape, g3.shape[2]
        met = _kron_apply(left.reshape(a * x, r_l), right.reshape(b * y, r_r),
                          g3)
        met = met.reshape(b, y, a, x, q).transpose(2, 0, 3, 1, 4)
        merged = merge(met.reshape(a, b, x * y * q))
        return merged.reshape(merged.shape[0], x * y, q)

    return _run(h._program, leaf_values, meet)[:, :, 0].T


def htd_contract(h: HTucker, args) -> np.ndarray:
    """Contract modes 1..k-1 with k-1 n-vectors or n x c_p matrices.

    Returns the n x (prod c_p) matrix with rows indexed by mode k, one
    :func:`htd_sweep` that keeps every row.  Its columns are psi-merged
    over the argument modes in tree order, which on the canonical tree of
    :func:`build_tree` is mode order, as :func:`contract_leading` has it.
    """
    return htd_sweep(h, args, _keep_every_row)


def htd_evaluator(h: HTucker):
    """``x -> A_(k) x^[k-1]`` on the tree, laid out once.

    It runs the tree's one cached post-order program, the one
    :func:`htd_sweep` runs, with every transfer already split and laid out
    C-contiguous, and each internal node the tree's one node product,
    :func:`_kron_apply`, as in :func:`htd_reconstruct`; the returned
    function substitutes x^T U_p at leaves p < k.  It takes a float
    n-vector and checks nothing.
    """
    _, k = _require_cubical(h.dims)
    program, factors = h._program, h.leaf_factors

    def evaluate(x: np.ndarray) -> np.ndarray:
        row = x[None, :]
        leaf_values = {p: row @ factors[p] for p in range(1, k)}
        leaf_values[k] = factors[k]
        return _run(program, leaf_values, _kron_apply).ravel()

    return evaluate


def htd_param_count(h: HTucker) -> int:
    """Total stored entries over leaf factors and transfer matrices."""
    return sum(u.size for u in h.leaf_factors.values()) + sum(
        g.size for g in h.transfer.values())
