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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ShapeError
from .kernels import RankTolerance, compact_svd
from .tensor_core import _keep_every_row, _require_cubical, _sweep_matrices

__all__ = [
    "TreeNode", "DimensionTree", "build_tree", "HTucker", "htd_decompose",
    "htd_reconstruct", "htd_eval_hpds", "htd_contract", "htd_sweep",
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
    if k < 2:
        raise ArgumentError("dimension trees need order k >= 2")

    def split(modes: tuple[int, ...]) -> TreeNode:
        if len(modes) == 1:
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
    the overall scale.
    """

    tree: DimensionTree
    dims: tuple[int, ...]
    leaf_factors: dict = field(default_factory=dict)
    transfer: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if len(self.dims) != self.tree.order:
            raise ShapeError("dims length must match tree order")
        for node in self.tree.leaves():
            p = node.modes[0]
            u = np.asarray(self.leaf_factors[p], dtype=float)
            if u.ndim != 2 or u.shape[0] != self.dims[p - 1]:
                raise ShapeError(f"leaf {p} factor must be "
                                 f"{self.dims[p - 1]} x r, got {u.shape}")
        for node in self.tree.internal_nodes():
            g = np.asarray(self.transfer[node.modes], dtype=float)
            rl = self._rank(node.left)
            rr = self._rank(node.right)
            if g.ndim != 2 or g.shape[0] != rl * rr:
                raise ShapeError(f"transfer at {node.modes} must have "
                                 f"{rl} * {rr} rows, got {g.shape}")
        root_g = np.asarray(self.transfer[self.tree.root.modes])
        if root_g.shape[1] != 1:
            raise ShapeError("root rank must be 1")

    def _rank(self, node: TreeNode) -> int:
        if node.is_leaf:
            return np.asarray(self.leaf_factors[node.modes[0]]).shape[1]
        return np.asarray(self.transfer[node.modes]).shape[1]

    def rank_of(self, modes) -> int:
        modes = tuple(sorted(int(p) for p in modes))
        if len(modes) == 1:
            return np.asarray(self.leaf_factors[modes[0]]).shape[1]
        return np.asarray(self.transfer[modes]).shape[1]

    def max_rank(self) -> int:
        ranks = [np.asarray(u).shape[1] for u in self.leaf_factors.values()]
        ranks += [np.asarray(g).shape[1] for g in self.transfer.values()]
        return max(ranks) if ranks else 0


def _unfold_ordered(tensor: np.ndarray, row_order) -> np.ndarray:
    """Unfold with rows psi-merged over ``row_order`` exactly as given;
    columns merge the complement modes in increasing order."""
    k = tensor.ndim
    row_order = [int(p) for p in row_order]
    cols = [p for p in range(1, k + 1) if p not in set(row_order)]
    perm = [p - 1 for p in row_order + cols]
    rows = int(np.prod([tensor.shape[p - 1] for p in row_order]))
    return np.transpose(tensor, perm).reshape(rows, -1, order="F")


def _project_on_children(u_left: np.ndarray, u_right: np.ndarray,
                         target: np.ndarray) -> np.ndarray:
    """(U_Qr kron U_Ql)^T @ target without forming the Kronecker product."""
    nl, rl = u_left.shape
    nr, rr = u_right.shape
    t3 = target.reshape(nl, nr, target.shape[1], order="F")
    # two pairwise contractions, each one BLAS call
    out = np.tensordot(np.tensordot(u_left, t3, axes=(0, 0)), u_right,
                       axes=(1, 0))                          # (a, c, b)
    return out.transpose(0, 2, 1).reshape(rl * rr, target.shape[1],
                                          order="F")


def _kron_apply(left_val: np.ndarray, right_val: np.ndarray,
                g: np.ndarray) -> np.ndarray:
    """(right_val kron left_val) @ g with the left factor's indices fastest."""
    al, rl = left_val.shape
    ar, rr = right_val.shape
    g3 = g.reshape(rl, rr, g.shape[1], order="F")
    out = np.einsum("ab,bdc,ed->aec", left_val, g3, right_val)
    return out.reshape(al * ar, g.shape[1], order="F")


def htd_decompose(tensor: np.ndarray, tree: DimensionTree | None = None,
                  tol: RankTolerance | None = None) -> HTucker:
    """Decompose a dense tensor on the given (default balanced) tree.

    Every non-root node's factor is the left singular basis of that node's
    unfolding at the tolerance, so the hierarchical rank at a node equals
    the numerical rank of its unfolding.  Transfers are the orthonormal
    projections (U_Qr kron U_Ql)^T U_Q; the root projects vec(A) itself,
    keeping the overall scale.  No symmetry is assumed.
    """
    tensor = np.asarray(tensor, dtype=float)
    k = tensor.ndim
    if tree is None:
        tree = build_tree(k)
    if tree.order != k:
        raise ShapeError(f"tree order {tree.order} != tensor order {k}")

    bases: dict[tuple[int, ...], np.ndarray] = {}
    leaf_factors: dict[int, np.ndarray] = {}
    for node, _ in tree.walk():
        if node is tree.root:
            continue
        u = compact_svd(_unfold_ordered(tensor, node.ordered_modes()), tol).U
        bases[node.modes] = u
        if node.is_leaf:
            leaf_factors[node.modes[0]] = u

    transfer: dict[tuple[int, ...], np.ndarray] = {}
    for node in tree.internal_nodes():
        if node is tree.root:
            target = _unfold_ordered(tensor, node.ordered_modes())  # vec(A)
        else:
            target = bases[node.modes]
        transfer[node.modes] = _project_on_children(
            bases[node.left.modes], bases[node.right.modes], target)

    return HTucker(tree, tensor.shape, leaf_factors, transfer)


def _node_value(h: HTucker, node: TreeNode, leaf_values: dict) -> np.ndarray:
    if node.is_leaf:
        return leaf_values[node.modes[0]]
    left = _node_value(h, node.left, leaf_values)
    right = _node_value(h, node.right, leaf_values)
    return _kron_apply(left, right,
                       np.asarray(h.transfer[node.modes], dtype=float))


def htd_reconstruct(h: HTucker) -> np.ndarray:
    """Expand the tree back into a dense tensor."""
    leaf_values = {p: np.asarray(u, dtype=float)
                   for p, u in h.leaf_factors.items()}
    vec = _node_value(h, h.tree.root, leaf_values)
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
    ``merge`` maps to the (a', t * r) array passed up.  Returns the n x a'
    matrix with rows indexed by mode k.
    """
    n, k = _require_cubical(h.dims)
    mats = _sweep_matrices(mats, n, k)

    def message(node: TreeNode) -> np.ndarray:
        if node.is_leaf:
            p = node.modes[0]
            u = np.asarray(h.leaf_factors[p], dtype=float)
            return u[None] if p == k else (mats[p - 1].T @ u)[:, None, :]
        left, right = message(node.left), message(node.right)
        g = np.asarray(h.transfer[node.modes], dtype=float)
        # explicit sizes: a -1 is ambiguous once a rank is 0
        q, t = g.shape[1], left.shape[1] * right.shape[1]
        g3 = g.reshape(left.shape[2], right.shape[2], q, order="F")
        half = np.tensordot(left, g3, axes=(2, 0))           # (a, x, r, q)
        met = np.tensordot(right, half, axes=(2, 2))         # (b, y, a, x, q)
        met = met.transpose(2, 0, 3, 1, 4)                   # (a, b, x, y, q)
        merged = merge(met.reshape(left.shape[0], right.shape[0], t * q))
        return merged.reshape(merged.shape[0], t, q)

    return message(h.tree.root)[:, :, 0].T


def htd_contract(h: HTucker, args) -> np.ndarray:
    """Contract modes 1..k-1 with k-1 n-vectors or n x c_p matrices.

    Returns the n x (prod c_p) matrix with rows indexed by mode k, one
    :func:`htd_sweep` that keeps every row.  Its columns are psi-merged
    over the argument modes in tree order, which on the canonical tree of
    :func:`build_tree` is mode order, as :func:`contract_leading` has it.
    """
    return htd_sweep(h, args, _keep_every_row)


def htd_eval_hpds(h: HTucker, x: np.ndarray) -> np.ndarray:
    """Evaluate A_(k) x^[k-1] directly on the tree representation.

    Leaf p < k's factor is replaced by x^T U_p and the substituted values
    propagate up the tree through the transfer matrices; leaf k keeps its
    full factor, so the root value is the n-vector indexed by mode k.
    """
    n, k = _require_cubical(h.dims)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != n:
        raise ShapeError(f"state length {x.shape[0]} != dimension {n}")
    leaf_values = {p: x[None, :] @ np.asarray(h.leaf_factors[p], dtype=float)
                   for p in range(1, k)}
    leaf_values[k] = np.asarray(h.leaf_factors[k], dtype=float)
    return _node_value(h, h.tree.root, leaf_values).ravel()


def htd_param_count(h: HTucker) -> int:
    """Total stored entries over leaf factors and transfer matrices."""
    total = sum(np.asarray(u).size for u in h.leaf_factors.values())
    total += sum(np.asarray(g).size for g in h.transfer.values())
    return int(total)
