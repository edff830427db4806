import numpy as np
import pytest

from hpdstensor import tensor_core as tc
from hpdstensor.errors import ArgumentError, ShapeError
from hpdstensor.hier_tucker import (DimensionTree, TreeNode,
                                    build_tree, htd_contract, htd_decompose,
                                    htd_eval_hpds, htd_param_count,
                                    htd_reconstruct)
from hpdstensor.kernels import numerical_rank
from hpdstensor.tensor_train import tt_decompose, tt_eval_hpds, tt_contract

from test_tensor_train import dense_contraction_oracle, random_tensor


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
            DimensionTree(TreeNode((1, 2)))  # non-singleton leaf
        with pytest.raises(ArgumentError):
            TreeNode((1, 2), TreeNode((1,)), TreeNode((3,)))


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

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2, 4), (2,) * 5, (2,) * 6,
                                       (3, 3, 3)])
    def test_round_trip_general_shapes(self, shape):
        t = random_tensor(shape, sum(shape))
        h = htd_decompose(t)
        assert np.allclose(htd_reconstruct(h), t, atol=1e-10)

    def test_node_rank_equals_unfolding_rank(self):
        t = random_tensor((2, 2, 2, 2), 31)
        h = htd_decompose(t)
        for node, _ in h.tree.walk():
            if node is h.tree.root:
                continue
            assert h.rank_of(node.modes) == numerical_rank(
                tc.unfold(t, node.modes)), node.modes

    def test_nestedness_containment(self):
        t = random_tensor((2,) * 5, 32)
        h = htd_decompose(t)
        for node in h.tree.internal_nodes():
            if node is h.tree.root:
                continue
            u_q = htd_reconstruct_node_basis(h, t, node)
            ul = basis_of(h, t, node.left)
            ur = basis_of(h, t, node.right)
            big = np.kron(ur, ul)
            resid = u_q - big @ (big.T @ u_q)
            assert np.max(np.abs(resid)) <= 1e-10

    def test_tree_order_mismatch(self):
        with pytest.raises(ShapeError):
            htd_decompose(np.zeros((2, 2, 2)), tree=build_tree(4))

    def test_zero_tensor(self):
        h = htd_decompose(np.zeros((2, 2, 2)))
        assert not np.any(htd_reconstruct(h))

    def test_custom_non_contiguous_tree(self):
        # user-supplied trees with interleaved modes are accepted and exact
        tree = DimensionTree(TreeNode(
            (1, 2, 3, 4),
            TreeNode((1, 3), TreeNode((1,)), TreeNode((3,))),
            TreeNode((2, 4), TreeNode((2,)), TreeNode((4,)))))
        t = random_tensor((2, 3, 2, 3), 33)
        h = htd_decompose(t, tree=tree)
        assert np.allclose(htd_reconstruct(h), t, atol=1e-10)


def basis_of(h, t, node):
    from hpdstensor.hier_tucker import _unfold_ordered
    from hpdstensor.kernels import compact_svd
    return compact_svd(_unfold_ordered(t, node.ordered_modes())).U


def htd_reconstruct_node_basis(h, t, node):
    return basis_of(h, t, node)


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
            assert np.allclose(htd_eval_hpds(h, x), tc.hpds_eval_full(t, x),
                               atol=1e-9)

    def test_zero_state(self):
        h = htd_decompose(random_tensor((2, 2, 2), 38))
        assert not np.any(htd_eval_hpds(h, np.zeros(2)))

    def test_matches_tt_eval(self):
        t = random_tensor((3, 3, 3, 3), 39)
        h, train = htd_decompose(t), tt_decompose(t)
        x = np.random.default_rng(40).standard_normal(3)
        assert np.allclose(htd_eval_hpds(h, x), tt_eval_hpds(train, x),
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
