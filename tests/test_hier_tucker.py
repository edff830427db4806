import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdstensor import hier_tucker, serialize
from hpdstensor import tensor_core as tc
from hpdstensor.analysis import (_row_space, controllability_ht,
                                 observability_ht)
from hpdstensor.benchmarks import _random_tt, gen_instance
from hpdstensor.errors import ArgumentError, ShapeError
from hpdstensor.hier_tucker import (DimensionTree, HTucker, TreeNode,
                                    _climb, _symmetric_tree, _train_tree,
                                    build_tree,
                                    htd_contract,
                                    htd_decompose, htd_evaluator,
                                    htd_param_count,
                                    htd_reconstruct, htd_sweep)
from hpdstensor.kernels import (RankTolerance, left_basis,
                                orthonormal_deviation)
from hpdstensor.model import HpdsModel, simulate_discrete
from hpdstensor.tensor_core import _keep_every_row
from hpdstensor.tensor_train import (TensorTrain, tt_contract, tt_decompose,
                                     tt_reconstruct)

from test_sysid import balanced_tree_over, caterpillar_tree
from test_tensor_train import dense_contraction_oracle, evaluate, random_tensor

EPS = np.finfo(float).eps


class TestBuildTree:
    def test_k2(self):
        tree = build_tree(2)
        assert tree.root.modes == (1, 2)
        assert tree.root.left.modes == (1,)
        assert tree.root.right.modes == (2,)

    def test_k6_balanced_shape(self):
        tree = build_tree(6)
        assert tree.root.left.modes == (1, 2, 3)
        assert tree.root.right.modes == (4, 5, 6)
        assert tree.root.left.left.modes == (1, 2)
        assert tree.root.left.right.modes == (3,)
        assert tree.root.right.left.modes == (4, 5)
        assert tree.root.right.right.modes == (6,)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_depth_is_ceil_log2(self, k):
        assert build_tree(k).depth == int(np.ceil(np.log2(k)))

    def test_properties_enforced(self):
        with pytest.raises(ArgumentError):
            build_tree(1)
        with pytest.raises(ArgumentError):
            DimensionTree(TreeNode((1,)))  # a root with no transfer
        with pytest.raises(ArgumentError):
            DimensionTree(TreeNode((1, 2)))  # non-singleton leaf
        with pytest.raises(ArgumentError):
            TreeNode((1, 2), TreeNode((1,)), TreeNode((3,)))


def interleaved_tree(k):
    """Odd modes under the root's left child, even modes under its right,
    so that no internal node but the root spans contiguous modes."""
    def split(modes):
        if len(modes) == 1:
            return TreeNode(modes)
        half = (len(modes) + 1) // 2
        return TreeNode(modes, split(modes[:half]), split(modes[half:]))

    return DimensionTree(TreeNode(tuple(range(1, k + 1)),
                                  split(tuple(range(1, k + 1, 2))),
                                  split(tuple(range(2, k + 1, 2)))))


def ordered_unfolding(t, row_modes):
    """Rows psi-merged over ``row_modes`` in the given order, columns over
    the remaining modes in increasing order."""
    cols = [p for p in range(1, t.ndim + 1) if p not in row_modes]
    rows = int(np.prod([t.shape[p - 1] for p in row_modes]))
    perm = [p - 1 for p in list(row_modes) + cols]
    return np.transpose(t, perm).reshape(rows, -1, order="F")


def node_basis(h, node):
    """U_Q expanded from the tree: a leaf factor, or (U_right kron U_left)
    times the node's transfer matrix."""
    if node.is_leaf:
        return h.leaf_factors[node.modes[0]]
    return np.kron(node_basis(h, node.right), node_basis(h, node.left)) @ \
        h.transfer[node.modes]


def assert_nested(h, t):
    """Every non-root node basis built through the transfers is
    orthonormal and spans its dense unfolding's column space."""
    scale = max(np.linalg.norm(t), 1.0)
    for node, _ in h.tree.walk():
        if node is h.tree.root:
            continue
        u = node_basis(h, node)
        assert orthonormal_deviation(u) <= 1e-12, node.modes
        a = ordered_unfolding(t, node.ordered_modes())
        assert np.linalg.norm(a - u @ (u.T @ a)) <= 1e-12 * scale, node.modes


@st.composite
def decomposable(draw):
    """A tensor of order 2-6 and a balanced or interleaved tree for it."""
    kind = draw(st.sampled_from(
        ("symmetric", "generic", "low_tt", "low_ht", "zero")))
    n, k = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "generic":
        dims = tuple(draw(st.integers(2, 5)) for _ in range(k))
        t = np.random.default_rng(seed).standard_normal(dims)
    elif kind == "zero":
        t = np.zeros((n,) * k)
    else:
        cap = draw(st.integers(1, 3))
        t = gen_instance(kind, n, k, rank_cap=cap, seed=seed).dense
    tree = draw(st.sampled_from((build_tree, interleaved_tree)))(k)
    return t, tree


class TestDecompose:
    def test_rank_one_all_hierarchical_ranks_one(self):
        v = np.array([1.0, 2.0])
        t = np.einsum("i,j,k,l->ijkl", v, v, v, v)
        h = htd_decompose(t)
        for node, _ in h.tree.walk():
            if node is not h.tree.root:
                assert h.rank_of(node.modes) == 1

    def test_round_trip(self):
        t = random_tensor((2, 2, 2, 2), 30)
        h = htd_decompose(t)
        assert np.linalg.norm(htd_reconstruct(h) - t) <= 1e-10

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(case=decomposable())
    def test_node_rank_equals_unfolding_rank(self, case):
        # ranks, round trip and nestedness on any shape and tree; each leaf
        # is decided on the core the earlier leaves left, at the threshold
        # of its dense unfolding, which has the same singular values
        t, tree = case
        h = htd_decompose(t, tree=tree)
        for node, _ in tree.walk():
            if node is not tree.root:
                a = tc.unfold(t, node.modes)
                s = np.linalg.svd(a, compute_uv=False)
                rank = int(np.sum(s > max(a.shape) * EPS * s[0]))
                assert h.rank_of(node.modes) == rank, node.modes
        assert np.linalg.norm(htd_reconstruct(h) - t) <= \
            1e-13 * np.linalg.norm(t)
        assert_nested(h, t)

    def test_nestedness_containment(self):
        t = random_tensor((2,) * 5, 32)
        assert_nested(htd_decompose(t), t)

    def test_tree_order_mismatch(self):
        with pytest.raises(ShapeError):
            htd_decompose(np.zeros((2, 2, 2)), tree=build_tree(4))

    def test_zero_tensor(self):
        h = htd_decompose(np.zeros((2, 2, 2)))
        assert not np.any(htd_reconstruct(h))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2, 4), (2,) * 5, (2,) * 6,
                                       (3, 3, 3)])
    def test_round_trip_general_shapes(self, shape):
        t = random_tensor(shape, sum(shape))
        h = htd_decompose(t)
        assert np.allclose(htd_reconstruct(h), t, atol=1e-10)
        assert_nested(h, t)

    def test_custom_non_contiguous_tree(self):
        # user-supplied trees with interleaved modes are accepted and exact
        tree = DimensionTree(TreeNode(
            (1, 2, 3, 4),
            TreeNode((1, 3), TreeNode((1,)), TreeNode((3,))),
            TreeNode((2, 4), TreeNode((2,)), TreeNode((4,)))))
        t = random_tensor((2, 3, 2, 3), 33)
        h = htd_decompose(t, tree=tree)
        assert np.allclose(htd_reconstruct(h), t, atol=1e-10)
        assert_nested(h, t)

    def test_no_svd_larger_than_two_child_ranks(self, monkeypatch):
        # each node is decided on the r_left * r_right rows left after
        # projecting onto its children, never on a dense unfolding
        dense = gen_instance("low_tt", 8, 6, rank_cap=4).dense
        shapes = []
        svd = np.linalg.svd

        def recording_svd(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        h = htd_decompose(dense)
        widest = max(h.rank_of(q.left.modes) * h.rank_of(q.right.modes)
                     for q in h.tree.internal_nodes())
        assert widest == 64
        assert len(shapes) == 2 * 6 - 2  # every node but the root
        assert max(max(shape) for shape in shapes) <= widest

    def test_truncation_drops_the_noise(self):
        clean = gen_instance("low_tt", 4, 5, rank_cap=2, seed=3).dense
        noise = np.random.default_rng(51).standard_normal(clean.shape)
        noisy = clean + 1e-10 * noise
        want = htd_decompose(clean)
        h = htd_decompose(noisy, tol=RankTolerance(value=1e-6))
        nodes = [q for q, _ in h.tree.walk() if q is not h.tree.root]
        assert [h.rank_of(q.modes) for q in nodes] == \
            [want.rank_of(q.modes) for q in nodes]
        # the default threshold keeps the noise
        assert htd_param_count(htd_decompose(noisy)) > htd_param_count(h)
        assert np.linalg.norm(htd_reconstruct(h) - clean) <= \
            1e-8 * np.linalg.norm(clean)


def all_leaves_first(t, tree, tol):
    """The climb with every leaf taken from the dense tensor's own mode
    unfolding before any projection: the leaf stage sequential truncation
    replaced, the reference its ranks are held to."""
    leaves = {p: left_basis(tc.unfold(t, (p,)), tol)
              for p in range(1, t.ndim + 1)}
    core = t
    for p in range(1, t.ndim + 1):
        core = np.tensordot(core, leaves[p], axes=(0, 0))
    return HTucker(tree, t.shape, leaves, _climb(core, tree, t.shape, tol))


class TestSequentialLeaves:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=decomposable(),
           level=st.sampled_from((0.0, 1e-9, 1e-5, 1e-3)),
           tau=st.sampled_from((1e-8, 1e-6, 1e-4, 1e-2, 1e-1)))
    def test_truncation_error_and_ranks(self, case, level, tau):
        # each of the 2k - 2 non-root nodes drops at most about tau ||A||;
        # a leaf decided on the projected core never needs more rank than
        # one decided on the dense tensor
        t, tree = case
        noise = np.random.default_rng(t.size).standard_normal(t.shape)
        t = t + level * np.linalg.norm(t) / np.linalg.norm(noise) * noise
        tol = RankTolerance(value=tau)
        h = htd_decompose(t, tree=tree, tol=tol)
        k = t.ndim
        assert np.linalg.norm(htd_reconstruct(h) - t) <= \
            math.sqrt(2 * k - 2) * tau * np.linalg.norm(t)
        ref = all_leaves_first(t, tree, tol)
        for node, _ in tree.walk():
            assert h.rank_of(node.modes) <= ref.rank_of(node.modes), \
                node.modes


class TestFromTrain:
    @pytest.mark.parametrize("n,k,cap", [(3, 5, 2), (4, 4, 3), (2, 7, 4)])
    def test_nested_bases_span_the_unfoldings(self, n, k, cap):
        train = _random_tt(n, k, cap, 5)
        h = _train_tree(train)
        assert_nested(h, tt_reconstruct(train))

    def test_factored_matrices_stay_small_past_the_dense_limit(self,
                                                               monkeypatch):
        # n=12, k=8: 4.3e8 dense entries; every QR and SVD factors at most
        # n r^2 entries (a gauged core) or r_left r_right r^2 (a node's
        # children contracted), r the largest train rank
        sizes = []
        for name in ("qr", "svd"):
            original = getattr(np.linalg, name)

            def recording(matrix, *args, _original=original, **kwargs):
                sizes.append(np.size(matrix))
                return _original(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        n, k, r = 12, 8, 6
        train = _random_tt(n, k, r, 7)
        h = _train_tree(train)
        bound = max([n * r * r] + [h.rank_of(t.left.modes) *
                                   h.rank_of(t.right.modes) * r * r
                                   for t in h.tree.internal_nodes()])
        assert max(sizes) <= bound
        args = np.random.default_rng(0).standard_normal((n, k - 1))
        args = [args[:, p] for p in range(k - 1)]
        want = tt_contract(train, args)
        assert np.linalg.norm(htd_contract(h, args) - want) <= \
            1e-12 * np.linalg.norm(want)


class TestTypedErrors:
    def parts(self):
        h = htd_decompose(random_tensor((2, 2, 2, 2), 52))
        return h, dict(h.leaf_factors), dict(h.transfer)

    def test_missing_leaf_factor(self):
        h, leaves, transfer = self.parts()
        del leaves[3]
        with pytest.raises(ShapeError, match="mode 3"):
            HTucker(h.tree, h.dims, leaves, transfer)

    def test_missing_transfer_matrix(self):
        h, leaves, transfer = self.parts()
        del transfer[(3, 4)]
        with pytest.raises(ShapeError, match=r"\(3, 4\)"):
            HTucker(h.tree, h.dims, leaves, transfer)

    @pytest.mark.parametrize("modes", [(1, 3), (5,)])
    def test_rank_of_a_mode_set_off_the_tree(self, modes):
        h, _, _ = self.parts()
        with pytest.raises(ArgumentError, match=re.escape(str(modes))):
            h.rank_of(modes)


class TestReconstruct:
    def test_k2_matrix_recomposition(self):
        m = random_tensor((3, 4), 34)
        h = htd_decompose(m)
        assert np.allclose(htd_reconstruct(h), m, atol=1e-12)

    def test_entrywise_nested_expansion(self):
        # expand U_root = (U_r kron U_l) G by hand on a 2x2x2 tensor
        t = random_tensor((2, 2, 2), 35)
        h = htd_decompose(t)
        tree = h.tree
        ul = h.leaf_factors[1]
        u12 = np.kron(h.leaf_factors[2], ul) @ h.transfer[(1, 2)]
        vec = np.kron(h.leaf_factors[3], u12) @ h.transfer[(1, 2, 3)]
        assert np.allclose(vec.ravel(), t.ravel(order="F"), atol=1e-11)
        assert tree.root.left.modes == (1, 2)


class TestEvalAndContract:
    def test_matches_dense_eval(self):
        t = random_tensor((3, 3, 3, 3), 36)
        h = htd_decompose(t)
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert np.allclose(evaluate(h, x), evaluate(t, x),
                               atol=1e-9)

    def test_zero_state(self):
        h = htd_decompose(random_tensor((2, 2, 2), 38))
        assert not np.any(evaluate(h, np.zeros(2)))

    def test_matches_tt_eval(self):
        t = random_tensor((3, 3, 3, 3), 39)
        h, train = htd_decompose(t), tt_decompose(t)
        x = np.random.default_rng(40).standard_normal(3)
        assert np.allclose(evaluate(h, x), evaluate(train, x),
                           atol=1e-9)

    def test_identity_argument_matches_dense_kronecker(self):
        t = random_tensor((3, 3, 3, 3), 41)
        h = htd_decompose(t)
        x = np.random.default_rng(42).standard_normal(3)
        eye = np.eye(3)
        for q in range(1, 4):
            args = [x] * (q - 1) + [eye] + [x] * (3 - q)
            assert np.allclose(htd_contract(h, args),
                               dense_contraction_oracle(t, args), atol=1e-10)

    def test_matches_tt_contract(self):
        t = random_tensor((2, 2, 2, 2), 43)
        h, train = htd_decompose(t), tt_decompose(t)
        rng = np.random.default_rng(44)
        x = rng.standard_normal(2)
        for q in range(1, 4):
            args = [x] * (q - 1) + [np.eye(2)] + [x] * (3 - q)
            assert np.allclose(htd_contract(h, args), tt_contract(train, args),
                               atol=1e-9)

    def test_all_vector_case_column(self):
        t = random_tensor((3, 3, 3), 45)
        h = htd_decompose(t)
        v = np.random.default_rng(46).standard_normal((3, 2))
        out = htd_contract(h, [v[:, 0], v[:, 1]])
        assert out.shape == (3, 1)
        assert np.allclose(out, tc.contract_leading(t, [v[:, 0], v[:, 1]]),
                           atol=1e-11)

    def test_two_matrices_match_dense_oracle(self):
        t = random_tensor((3, 3, 3, 3), 47)
        rng = np.random.default_rng(47)
        args = [rng.standard_normal((3, 2)), rng.standard_normal(3),
                rng.standard_normal((3, 4))]
        got = htd_contract(htd_decompose(t), args)
        assert got.shape == (3, 8)
        assert np.allclose(got, dense_contraction_oracle(t, args),
                           atol=1e-10)

    def test_wrong_argument_count(self):
        h = htd_decompose(random_tensor((2, 2, 2), 48))
        with pytest.raises(ArgumentError):
            htd_contract(h, [np.ones(2), np.ones(2), np.ones(2)])


def recursive_sweep(h, mats, merge):
    """The tree sweep as its own recursive walker, splitting each transfer
    on every visit, before it ran on the post-order program: the reference
    the shared walker is pinned to."""
    k = len(h.dims)

    def message(node):
        if node.is_leaf:
            p = node.modes[0]
            u = np.asarray(h.leaf_factors[p], dtype=float)
            return u[None] if p == k else (mats[p - 1].T @ u)[:, None, :]
        left, right = message(node.left), message(node.right)
        g = np.asarray(h.transfer[node.modes], dtype=float)
        q, t = g.shape[1], left.shape[1] * right.shape[1]
        g3 = g.reshape(left.shape[2], right.shape[2], q, order="F")
        half = np.tensordot(left, g3, axes=(2, 0))
        met = np.tensordot(right, half, axes=(2, 2))
        met = met.transpose(2, 0, 3, 1, 4)
        merged = merge(met.reshape(left.shape[0], right.shape[0], t * q))
        return merged.reshape(merged.shape[0], t, q)

    return message(h.tree.root)[:, :, 0].T


def sum_right_argument(met):
    """A merge that shrinks the message: the sum over the later argument."""
    return met.sum(axis=1)


class TestOneTreeWalker:
    @pytest.mark.parametrize("shape", ["balanced", "caterpillar",
                                       "k_in_left_child"])
    @pytest.mark.parametrize("source", ["generic", "low_rank", "zero"])
    @pytest.mark.parametrize("merge", [_keep_every_row, sum_right_argument])
    def test_sweep_matches_the_recursive_walker_bitwise(self, shape, source,
                                                        merge):
        n, k = 3, 5
        rng = np.random.default_rng(71)
        tensor = {"generic": rng.standard_normal((n,) * k),
                  "low_rank": tt_reconstruct(TensorTrain(tuple(
                      rng.standard_normal(r) for r in
                      [(1, n, 2)] + [(2, n, 2)] * (k - 2) + [(2, n, 1)]))),
                  "zero": np.zeros((n,) * k)}[source]
        tree = {"balanced": build_tree(k), "caterpillar": caterpillar_tree(k),
                "k_in_left_child": balanced_tree_over(
                    (k,) + tuple(range(1, k)))}[shape]
        h = htd_decompose(tensor, tree)
        assert (h.rank_of((k,)) == 0) == (source == "zero")
        mats = [rng.standard_normal((n, c)) for c in (2, 1, 3, 2)]
        got = htd_sweep(h, mats, merge)
        want = recursive_sweep(h, mats, merge)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def einsum_node(left, right, g):
    """(right kron left) @ G as the three-operand ``np.einsum`` the tree's
    evaluation and reconstruction ran before their two ``np.dot``
    products: the reference they are held to within a forward-error
    bound."""
    g3 = g.reshape(left.shape[1], right.shape[1], g.shape[1], order="F")
    out = np.einsum("ab,bdc,ed->aec", left, g3, right)
    return out.reshape(left.shape[0] * right.shape[0], g.shape[1], order="F")


def einsum_tree(h, values, absolute=False):
    """The root value of the tree on the given leaf values, each node an
    :func:`einsum_node` of its children's values, on |G| if ``absolute``."""
    def value(node):
        if node.is_leaf:
            return values[node.modes[0]]
        g = h.transfer[node.modes]
        return einsum_node(value(node.left), value(node.right),
                           np.abs(g) if absolute else g)

    return value(h.tree.root)


def node_product_gamma(h):
    """gamma = 2 m eps with m = n + the sum over internal nodes of r_left
    r_right: at most that many roundings lie on the way to any entry of an
    evaluation or reconstruction (the leaf product x^T U_p and each node's
    sums), so each of two ways of computing it is within gamma_m S / 2 of
    the exact value, S the tree evaluated on absolute values (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1)."""
    m = h.dims[0] + sum(h.rank_of(t.left.modes) * h.rank_of(t.right.modes)
                        for t in h.tree.internal_nodes())
    return 2 * m * EPS


def tree_case(shape, k, source, n=3):
    tree = {"balanced": build_tree(k), "caterpillar": caterpillar_tree(k),
            "k_in_left_child": balanced_tree_over(
                (k,) + tuple(range(1, k)))}[shape]
    rng = np.random.default_rng(10 * k + len(shape))
    if source == "symmetric":
        tables = tc.multiset_tables(n, k - 1)
        coeffs = rng.standard_normal((n, tables[2][k - 1].size))
        h = _symmetric_tree(coeffs, tables, tree, None)
        assert all(h.leaf_factors[p] is h.leaf_factors[1]
                   for p in range(2, k))
        return h
    h = htd_decompose({"generic": rng.standard_normal((n,) * k),
                       "zero": np.zeros((n,) * k)}[source], tree)
    assert (h.rank_of((k,)) == 0) == (source == "zero")
    return h


TREE_CASES = pytest.mark.parametrize("shape,k,source", [
    (shape, k, source) for shape in ("balanced", "caterpillar",
                                     "k_in_left_child")
    for k in range(2, 7) for source in ("generic", "symmetric", "zero")])


class TestTwoDotNodeProduct:
    """The node product of evaluation and reconstruction agrees with the
    einsum it replaced, entrywise within gamma S; a zero tree (every rank
    0) has S = 0, so it must be exactly zero."""

    def probes(self, h):
        rng = np.random.default_rng(h.dims[0] + len(h.dims))
        return [scale * rng.uniform(-1, 1, h.dims[0])
                for scale in (1e-3, 1.0, 1.0, 1e3)]

    def leaf_values(self, h, x, absolute=False):
        """x^T U_p at leaves p < k and U_k, or |x|^T |U_p| and |U_k|."""
        k = len(h.dims)
        factors = {p: np.abs(u) if absolute else u
                   for p, u in h.leaf_factors.items()}
        row = np.abs(x[None, :]) if absolute else x[None, :]
        values = {p: row @ factors[p] for p in range(1, k)}
        values[k] = factors[k]
        return values

    @TREE_CASES
    def test_evaluator_matches_the_einsum_tree(self, shape, k, source):
        h = tree_case(shape, k, source)
        evaluate = htd_evaluator(h)
        for x in self.probes(h):
            got = evaluate(x)
            want = einsum_tree(h, self.leaf_values(h, x)).ravel()
            bound = node_product_gamma(h) * einsum_tree(
                h, self.leaf_values(h, x, absolute=True),
                absolute=True).ravel()
            assert got.shape == (h.dims[0],)
            assert np.all(np.abs(got - want) <= bound)
            # the sweep's products, in another order
            swept = htd_contract(h, [x] * (k - 1))
            assert swept.shape == (h.dims[0], 1)
            assert np.all(np.abs(got - swept[:, 0]) <= bound)

    @TREE_CASES
    def test_reconstruction_matches_the_einsum_tree(self, shape, k, source):
        h = tree_case(shape, k, source)
        order = h.tree.root.ordered_modes()

        def dense(vec):
            shaped = vec.reshape([h.dims[p - 1] for p in order], order="F")
            return np.transpose(shaped, np.argsort([p - 1 for p in order]))

        got = htd_reconstruct(h)
        want = dense(einsum_tree(h, h.leaf_factors))
        bound = node_product_gamma(h) * dense(einsum_tree(
            h, {p: np.abs(u) for p, u in h.leaf_factors.items()},
            absolute=True))
        assert got.shape == want.shape == h.dims
        assert np.all(np.abs(got - want) <= bound)


class TestOneProgramPerTree:
    def test_every_kernel_runs_the_one_program(self, monkeypatch):
        built, original = [], hier_tucker._post_order

        def counted(h):
            built.append(h)
            return original(h)

        monkeypatch.setattr(hier_tucker, "_post_order", counted)
        n, k = 4, 4
        h = gen_instance("symmetric", n, k, seed=5).ht
        rng = np.random.default_rng(5)
        reach = controllability_ht(h, rng.uniform(-1, 1, (n, 1)))
        assert reach.iterations >= 2
        observability_ht(h, rng.uniform(-1, 1, (1, n)),
                         rng.uniform(-1, 1, n), depth=n - 1)
        htd_contract(h, [rng.standard_normal(n)] * (k - 1))
        htd_reconstruct(h)
        simulate_discrete(HpdsModel(k, n, h), rng.uniform(-0.1, 0.1, n),
                          tau=0.01, steps=5)
        assert built == [h]

    @pytest.mark.parametrize("form", ["list", "int"])
    def test_lists_and_ints_are_stored_as_floats(self, form):
        n, k = 3, 4
        rng = np.random.default_rng(8)
        h = htd_decompose(rng.standard_normal((n,) * k))
        ints = [{key: rng.integers(-3, 4, value.shape)
                 for key, value in table.items()}
                for table in (h.leaf_factors, h.transfer)]
        want = HTucker(h.tree, h.dims, *[
            {key: value.astype(float) for key, value in table.items()}
            for table in ints])
        got = HTucker(h.tree, h.dims, *[
            {key: value.tolist() if form == "list" else value
             for key, value in table.items()} for table in ints])
        assert all(value.dtype == float for table in
                   (got.leaf_factors, got.transfer)
                   for value in table.values())
        mats = [rng.standard_normal((n, 2)) for _ in range(k - 1)]
        for merge in (_keep_every_row, _row_space):
            assert (htd_sweep(got, mats, merge).tobytes()
                    == htd_sweep(want, mats, merge).tobytes())
        x = rng.standard_normal(n)
        assert (htd_evaluator(got)(x).tobytes()
                == htd_evaluator(want)(x).tobytes())
        assert (htd_reconstruct(got).tobytes()
                == htd_reconstruct(want).tobytes())
        assert (serialize.dump_json(serialize.ht_to_obj(got))
                == serialize.dump_json(serialize.ht_to_obj(want)))
        assert htd_param_count(got) == htd_param_count(want)
        assert got.max_rank() == want.max_rank()


class TestParamCount:
    def test_all_rank_one_k4(self):
        v = np.array([1.0, 2.0])
        t = np.einsum("i,j,k,l->ijkl", v, v, v, v)
        h = htd_decompose(t)
        # 4 leaves of 2 entries plus 3 internal 1x1 transfers
        assert htd_param_count(h) == 4 * 2 + 3

    def test_bound_knr_plus_kr3(self):
        t = random_tensor((2, 2, 2, 2), 49)
        h = htd_decompose(t)
        k, n, r = 4, 2, h.max_rank()
        assert htd_param_count(h) <= k * n * r + k * r ** 3

    def test_k2_count(self):
        m = random_tensor((3, 3), 50)
        h = htd_decompose(m)
        r = h.rank_of((1,))
        assert htd_param_count(h) == 2 * 3 * r + r * r
