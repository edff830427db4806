"""Reference computations that the benchmark checks the package against.

Everything here is plain NumPy written from the definitions, and nothing is
imported from ``hpdstensor``.  Trains and trees are read through their data
attributes only: ``train.cores`` and ``tree.tree.root`` with
``leaf_factors`` / ``transfer``, or the same layouts parsed from the
package's JSON model files.

Conventions shared with the package: the dynamics of an order-k tensor A are
``dx/dt = A(x, ..., x)``, with modes 1..k-1 contracted against the state and
mode k indexing the output.  A train's core p is (r_{p-1}, n, r_p); a tree
node's value is ``(U_right kron U_left) @ G`` with the left rank index
fastest in G's rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# A singular value sigma_i counts towards the rank when sigma_i / sigma_1 is
# above GAP_KEEP, and the decision is accepted only when no singular value
# falls in the band (GAP_DROP, GAP_KEEP): roundoff directions sit near 1e-15,
# generic directions of the benchmark's instances far above 1e-9.
GAP_KEEP = 1e-9
GAP_DROP = 1e-12


class OracleError(RuntimeError):
    """The reference computation could not decide: no clear singular gap."""


def rank_at_gap(matrix: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank at a clear singular-value gap, and an orthonormal column basis."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0 or not np.any(matrix):
        return 0, np.zeros((matrix.shape[0], 0))
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    rel = s / s[0]
    unclear = (rel > GAP_DROP) & (rel <= GAP_KEEP)
    if np.any(unclear):
        raise OracleError(f"no clear singular gap: relative values "
                          f"{rel[unclear].tolist()}")
    rank = int(np.count_nonzero(rel > GAP_KEEP))
    return rank, u[:, :rank]


def principal_sine(u1: np.ndarray, u2: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal bases."""
    if u1.shape != u2.shape:
        return 1.0
    if u1.shape[1] == 0:
        return 0.0
    resid = u2 - u1 @ (u1.T @ u2)
    return float(np.linalg.norm(resid, 2))


# ------------------------------------------------------------ contractions

def contract_dense(tensor: np.ndarray, args) -> np.ndarray:
    """A(a_1, ..., a_{k-1}): slot p contracts mode p with a vector or with
    an n x c matrix (at most one); returns n-vector or n x c matrix."""
    out = np.asarray(tensor, dtype=float)
    for a in args:
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            out = np.tensordot(a, out, axes=(0, 0))
        else:
            out = np.moveaxis(np.tensordot(a, out, axes=(0, 0)), 0, -1)
    return out


def contract_all_tuples(tensor: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Columns A(v_1, ..., v_{k-1}) over every ordered tuple of columns of
    ``basis``: the n x r^(k-1) matrix A_(k) (V kron ... kron V)."""
    out = np.asarray(tensor, dtype=float)
    k = out.ndim
    for _ in range(k - 1):
        out = np.tensordot(out, basis, axes=([0], [0]))
    return out.reshape(out.shape[0], -1)


def contract_train(cores, args) -> np.ndarray:
    """A(v_1, ..., v_{k-1}) of a train, every argument a vector."""
    msg = np.ones((1,))
    for core, v in zip(cores[:-1], args):
        msg = msg @ np.einsum("rns,n->rs", core, np.asarray(v, dtype=float))
    return msg @ cores[-1][:, :, 0]


def _tree_value(node, leaf_values: dict, transfer: dict) -> np.ndarray:
    if node.left is None:
        return leaf_values[node.modes[0]]
    left = _tree_value(node.left, leaf_values, transfer)
    right = _tree_value(node.right, leaf_values, transfer)
    g = np.asarray(transfer[tuple(node.modes)], dtype=float)
    g3 = g.reshape(left.shape[1], right.shape[1], g.shape[1], order="F")
    out = np.einsum("ai,bj,ijq->abq", left, right, g3)
    return out.reshape(left.shape[0] * right.shape[0], g.shape[1], order="F")


def contract_tree(root, leaf_factors: dict, transfer: dict, args
                  ) -> np.ndarray:
    """A(v_1, ..., v_{k-1}) of a hierarchical Tucker tree, every argument a
    vector: leaf p < k becomes v_p^T U_p, leaf k keeps U_k."""
    k = len(root.modes)
    leaves = {p: np.asarray(v, dtype=float).reshape(1, -1)
              @ np.asarray(leaf_factors[p], dtype=float)
              for p, v in enumerate(args, start=1)}
    leaves[k] = np.asarray(leaf_factors[k], dtype=float)
    return _tree_value(root, leaves, transfer).ravel()


def dense_from_tree(root, leaf_factors: dict, transfer: dict, dims
                    ) -> np.ndarray:
    """Expand a tree into the dense tensor (small instances only)."""
    leaves = {p: np.asarray(u, dtype=float) for p, u in leaf_factors.items()}
    vec = _tree_value(root, leaves, transfer).ravel()
    order = _ordered_modes(root)
    shaped = vec.reshape([dims[p - 1] for p in order], order="F")
    return np.transpose(shaped, np.argsort([p - 1 for p in order]))


def _ordered_modes(node) -> list[int]:
    if node.left is None:
        return list(node.modes)
    return _ordered_modes(node.left) + _ordered_modes(node.right)


def dense_from_train(cores) -> np.ndarray:
    acc = cores[0][0]
    for core in cores[1:]:
        acc = np.tensordot(acc, core, axes=(acc.ndim - 1, 0))
    return acc[..., 0]


# ----------------------------------------------------------- reachability

def reachable_dense(tensor: np.ndarray, b: np.ndarray
                    ) -> tuple[int, np.ndarray]:
    """Reachable rank and basis by the definition: the smallest subspace
    holding the columns of B and closed under A(v_1, ..., v_{k-1}) for all
    ordered tuples of its vectors."""
    tensor = np.asarray(tensor, dtype=float)
    n = tensor.shape[0]
    rank, basis = rank_at_gap(b)
    for _ in range(n):
        if rank in (0, n):
            break
        new_rank, new_basis = rank_at_gap(
            np.hstack([basis, contract_all_tuples(tensor, basis)]))
        if new_rank == rank:
            break
        rank, basis = new_rank, new_basis
    return rank, basis


def reachable_sampled(contract, n: int, b: np.ndarray, seed: int) -> int:
    """Lower bound on the reachable rank from random reachable directions.

    Each new direction contracts k-1 random vectors of the current span, so
    it is reachable; for generic data the span grows by one per direction
    until it is closed.  Used where the tensor is too large to densify:
    reaching n proves the verdict, with a clear gap at rank n.
    """
    g = np.random.default_rng(seed)
    rank, basis = rank_at_gap(b)
    stalls = 0
    while rank < n and stalls < 3:
        vecs = [basis @ (g.random(rank) * 2 - 1)
                for _ in range(contract.arity)]
        direction = contract(vecs)
        direction = direction / max(np.linalg.norm(direction), 1e-300)
        new_rank, new_basis = rank_at_gap(np.column_stack([basis, direction]))
        stalls = stalls + 1 if new_rank == rank else 0
        rank, basis = new_rank, new_basis
    return rank


class TrainContraction:
    """Callable contraction of a train's cores, with its argument count."""

    def __init__(self, cores):
        self.cores = [np.asarray(c, dtype=float) for c in cores]
        self.arity = len(self.cores) - 1

    def __call__(self, vecs):
        return contract_train(self.cores, vecs)


class TreeContraction:
    """Callable contraction of a tree's factors and transfers."""

    def __init__(self, root, leaf_factors, transfer):
        self.root, self.leaf_factors, self.transfer = root, leaf_factors, transfer
        self.arity = len(root.modes) - 1

    def __call__(self, vecs):
        return contract_tree(self.root, self.leaf_factors, self.transfer, vecs)


# ----------------------------------------------------------- observability

def _compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` nonnegative integers summing to total."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1,) + cuts + (total + parts - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(parts))


def lie_gradients(tensor: np.ndarray, c: np.ndarray, x: np.ndarray,
                  depth: int) -> list[np.ndarray]:
    """Row blocks j! C dx_j/dx_0 for j = 0..depth.

    x(t) = sum_j x_j t^j solves dx/dt = A(x, ..., x) from x_0 = x, so
    (j+1) x_{j+1} is the sum of A(x_{i_1}, ..., x_{i_{k-1}}) over ordered
    compositions i of j.  The Jacobians J_j = dx_j/dx_0 follow by the
    product rule, one slot at a time.  The j-th time derivative of y = C x
    at t = 0 is j! C x_j, so these blocks are the gradients of the output's
    Lie derivatives.
    """
    tensor = np.asarray(tensor, dtype=float)
    n, k = tensor.shape[0], tensor.ndim
    c = np.atleast_2d(np.asarray(c, dtype=float))
    xs = [np.asarray(x, dtype=float).ravel()]
    js = [np.eye(n)]
    for j in range(depth):
        x_next = np.zeros(n)
        j_next = np.zeros((n, n))
        for comp in _compositions(j, k - 1):
            x_next += contract_dense(tensor, [xs[i] for i in comp])
            for slot in range(k - 1):
                args = [xs[i] for i in comp]
                args[slot] = js[comp[slot]]
                j_next += contract_dense(tensor, args)
        xs.append(x_next / (j + 1))
        js.append(j_next / (j + 1))
    return [math.factorial(j) * (c @ js[j]) for j in range(depth + 1)]


def observability_rank(tensor: np.ndarray, c: np.ndarray, x: np.ndarray,
                       depth: int | None = None) -> int:
    """Rank of the stacked Lie-derivative gradients, to depth n-1 by
    default; rows are normalized first, which leaves the rank unchanged."""
    n = np.asarray(tensor).shape[0]
    depth = n - 1 if depth is None else depth
    rows = np.vstack(lie_gradients(tensor, c, x, depth))
    norms = np.linalg.norm(rows, axis=1)
    rows = rows[norms > 0] / norms[norms > 0, None]
    return rank_at_gap(rows.T)[0]


# ---------------------------------------------------------- identification

def eval_dense(tensor: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Columns A(x, ..., x) for every column x of ``states``."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    return np.column_stack([contract_dense(tensor, [x] * (tensor.ndim - 1))
                            for x in states.T])


def eval_contraction(contract, states: np.ndarray) -> np.ndarray:
    states = np.atleast_2d(np.asarray(states, dtype=float))
    return np.column_stack([contract([x] * contract.arity)
                            for x in states.T])


def relative_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


# ------------------------------------------------------------- model files

class _Node:
    def __init__(self, modes, left=None, right=None):
        self.modes, self.left, self.right = tuple(modes), left, right


def _matrix(obj) -> np.ndarray:
    return np.asarray(obj["values"], dtype=float).reshape(
        int(obj["rows"]), int(obj["cols"]), order="F")


def _tensor(obj) -> np.ndarray:
    return np.asarray(obj["values"], dtype=float).reshape(
        [int(d) for d in obj["dims"]], order="F")


def parse_model(obj: dict) -> dict:
    """Dense dynamics, B and C from the package's JSON model layout:
    tensors flat in first-index-fastest order, matrices column-major."""
    n, k, rep = int(obj["n"]), int(obj["k"]), obj["repr"]
    if rep == "full":
        dense = _tensor(obj["A"])
    elif rep == "tt":
        dense = dense_from_train([_tensor(c) for c in obj["A"]["cores"]])
    elif rep == "ht":
        leaf_factors, transfer = {}, {}

        def parse(node_obj):
            modes = tuple(int(p) for p in node_obj["modes"])
            if "factor" in node_obj:
                leaf_factors[modes[0]] = _matrix(node_obj["factor"])
                return _Node(modes)
            node = _Node(modes, parse(node_obj["left"]),
                         parse(node_obj["right"]))
            transfer[modes] = _matrix(node_obj["transfer"])
            return node

        root = parse(obj["A"])
        dense = dense_from_tree(root, leaf_factors, transfer, [n] * k)
    else:
        raise ValueError(f"unknown representation {rep!r}")
    return {"n": n, "k": k, "repr": rep, "A": dense,
            "B": None if obj.get("B") is None else _matrix(obj["B"]),
            "C": None if obj.get("C") is None else _matrix(obj["C"])}


def step_discrete(tensor: np.ndarray, b: np.ndarray, x: np.ndarray,
                  u: np.ndarray, tau: float) -> np.ndarray:
    """x+ = x + tau A(x, ..., x) + B u."""
    return x + tau * contract_dense(tensor, [x] * (tensor.ndim - 1)) + b @ u
