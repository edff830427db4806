import numpy as np
import pytest

from hpdstensor import tensor_core as tc
from hpdstensor.errors import ArgumentError, ShapeError, UnsupportedError
from hpdstensor.kernels import numerical_rank
from hpdstensor.tensor_train import (TensorTrain, tt_contract, tt_decompose,
                                     tt_eval_hpds, tt_param_count,
                                     tt_reconstruct, tt_zero)


def random_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def dense_contraction_oracle(tensor, args):
    """A_(k) times the Kronecker chain of the arguments in reverse order
    (slot p addresses mode p, and mode 1 varies fastest in the columns)."""
    k = tensor.ndim
    a_k = tc.unfold(tensor, {k})
    chain = np.ones((1, 1))
    for a in reversed(list(args)):
        a = a.reshape(-1, 1) if a.ndim == 1 else a
        chain = np.kron(chain, a)
    return a_k @ chain


class TestDecompose:
    def test_rank_one_separable(self):
        v = np.array([1.0, 2.0])
        t = np.einsum("i,j,k->ijk", v, v, v)
        train = tt_decompose(t)
        assert train.ranks == (1, 1, 1, 1)
        assert np.allclose(tt_reconstruct(train), t, atol=1e-12)

    def test_zero_tensor_convention(self):
        train = tt_decompose(np.zeros((2, 3, 2)))
        assert train.ranks == (1, 1, 1, 1)
        assert not np.any(tt_reconstruct(train))
        for core, n in zip(train.cores, (2, 3, 2)):
            assert core.shape == (1, n, 1) and not np.any(core)

    def test_round_trip_and_unfolding_ranks(self):
        t = random_tensor((2, 2, 2, 2), 0)
        train = tt_decompose(t)
        assert np.linalg.norm(tt_reconstruct(train) - t) <= 1e-10
        for p in range(1, 4):
            assert train.ranks[p] == numerical_rank(tc.unfold(t, range(1, p + 1)))

    def test_low_rank_construction_recovers_ranks(self):
        # build from known rank-2 cores, decompose, expect the same ranks
        rng = np.random.default_rng(1)
        cores = (rng.standard_normal((1, 3, 2)), rng.standard_normal((2, 3, 2)),
                 rng.standard_normal((2, 3, 1)))
        t = tt_reconstruct(TensorTrain(cores))
        train = tt_decompose(t)
        assert train.ranks == (1, 2, 2, 1)
        assert np.linalg.norm(tt_reconstruct(train) - t) <= 1e-10

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2, 4), (2, 2, 2, 2, 2),
                                       (2, 3, 2, 3)])
    def test_round_trip_general_shapes(self, shape):
        t = random_tensor(shape, hash(shape) % 1000)
        train = tt_decompose(t)
        assert np.allclose(tt_reconstruct(train), t, atol=1e-10)

    @pytest.mark.parametrize("n,k", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5)])
    def test_rank_optimality_on_low_rank_constructions(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        caps = [1] + [min(2, n ** p, n ** (k - p)) for p in range(1, k)] + [1]
        cores = tuple(rng.standard_normal((caps[p], n, caps[p + 1]))
                      for p in range(k))
        t = tt_reconstruct(TensorTrain(cores))
        train = tt_decompose(t)
        for p in range(1, k):
            assert train.ranks[p] == numerical_rank(
                tc.unfold(t, range(1, p + 1)))

    def test_k_mode_unfolding_entry_point(self):
        t = random_tensor((3, 3, 3), 2)
        a_k = tc.unfold(t, {3})
        train = tt_decompose(a_k, dims=(3, 3, 3))
        assert np.allclose(tt_reconstruct(train), t, atol=1e-10)

    def test_unfolding_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tt_decompose(np.zeros((3, 8)), dims=(3, 3, 3))

    def test_rank_chain_validated(self):
        with pytest.raises(ShapeError):
            TensorTrain((np.zeros((1, 2, 2)), np.zeros((3, 2, 1))))
        with pytest.raises(ShapeError):
            TensorTrain((np.zeros((2, 2, 1)),))


class TestReconstruct:
    def test_outer_product_of_slices(self):
        v = np.array([1.0, -1.0])
        w = np.array([2.0, 0.5])
        u = np.array([0.0, 3.0])
        train = TensorTrain((v.reshape(1, 2, 1), w.reshape(1, 2, 1),
                             u.reshape(1, 2, 1)))
        assert np.allclose(tt_reconstruct(train),
                           np.einsum("i,j,k->ijk", v, w, u))

    def test_entrywise_chained_slice_products(self):
        t = random_tensor((2, 2, 2), 3)
        train = tt_decompose(t)
        recon = tt_reconstruct(train)
        for idx in tc.multi_indices((2, 2, 2)):
            acc = train.cores[0][:, idx[0] - 1, :]
            for p in (1, 2):
                acc = acc @ train.cores[p][:, idx[p] - 1, :]
            assert np.isclose(acc[0, 0], recon[tuple(i - 1 for i in idx)])


class TestEval:
    def test_matches_dense_eval(self):
        t = random_tensor((3, 3, 3, 3), 4)
        train = tt_decompose(t)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert np.allclose(tt_eval_hpds(train, x),
                               tc.hpds_eval_full(t, x), atol=1e-9)

    def test_zero_state(self):
        train = tt_decompose(random_tensor((2, 2, 2), 6))
        assert not np.any(tt_eval_hpds(train, np.zeros(2)))

    def test_k2_linear_case(self):
        m = random_tensor((4, 4), 7)
        train = tt_decompose(m)
        x = np.random.default_rng(8).standard_normal(4)
        assert np.allclose(tt_eval_hpds(train, x), tc.unfold(m, {2}) @ x,
                           atol=1e-10)

    def test_state_length_checked(self):
        train = tt_decompose(random_tensor((2, 2, 2), 9))
        with pytest.raises(ShapeError):
            tt_eval_hpds(train, np.ones(3))


class TestContract:
    def test_all_vectors_collapse_to_eval(self):
        t = random_tensor((3, 3, 3), 10)
        train = tt_decompose(t)
        x = np.random.default_rng(11).standard_normal(3)
        out = tt_contract(train, [x, x])
        assert out.shape == (3, 1)
        assert np.allclose(out.ravel(), tt_eval_hpds(train, x), atol=1e-11)

    def test_identity_argument_matches_dense_kronecker(self):
        t = random_tensor((3, 3, 3, 3), 12)
        train = tt_decompose(t)
        x = np.random.default_rng(13).standard_normal(3)
        eye = np.eye(3)
        for q in range(1, 4):
            args = [x] * (q - 1) + [eye] + [x] * (3 - q)
            assert np.allclose(tt_contract(train, args),
                               dense_contraction_oracle(t, args), atol=1e-10)

    def test_dense_matrix_slot_matches_train(self):
        t = random_tensor((3, 3, 3, 3), 18)
        train = tt_decompose(t)
        rng = np.random.default_rng(19)
        x, m = rng.standard_normal(3), rng.standard_normal((3, 2))
        for q in range(3):
            args = [x] * q + [m] + [x] * (2 - q)
            dense = tc.contract_leading(t, args)
            assert dense.shape == (3, 2)
            assert np.allclose(dense, dense_contraction_oracle(t, args),
                               atol=1e-12)
            assert np.allclose(dense, tt_contract(train, args), atol=1e-10)

    def test_control_columns_match_mode_products(self):
        t = random_tensor((3, 3, 3), 14)
        train = tt_decompose(t)
        b = np.random.default_rng(15).standard_normal((3, 2))
        got = tt_contract(train, [b[:, 0], b[:, 1]])
        via_modes = tc.contract_leading(t, [b[:, 0], b[:, 1]])
        assert np.allclose(got.ravel(), via_modes, atol=1e-11)

    def test_linearity_in_each_slot(self):
        t = random_tensor((2, 2, 2), 16)
        train = tt_decompose(t)
        rng = np.random.default_rng(17)
        x, y, z = (rng.standard_normal(2) for _ in range(3))
        lhs = tt_contract(train, [x + 2.0 * y, z])
        rhs = tt_contract(train, [x, z]) + 2.0 * tt_contract(train, [y, z])
        assert np.allclose(lhs, rhs, atol=1e-11)

    def test_two_matrices_rejected(self):
        train = tt_decompose(random_tensor((2, 2, 2), 18))
        with pytest.raises(UnsupportedError):
            tt_contract(train, [np.eye(2), np.eye(2)])

    def test_wrong_argument_count(self):
        train = tt_decompose(random_tensor((2, 2, 2), 19))
        with pytest.raises(ArgumentError):
            tt_contract(train, [np.ones(2)])


class TestParamCount:
    def test_all_rank_one(self):
        assert tt_param_count(tt_zero((2,) * 5)) == 10

    def test_knr2_bound(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2, 2)))
            train = tt_decompose(t)
            r = max(train.ranks)
            assert tt_param_count(train) <= 4 * 2 * r * r

    def test_k2_count(self):
        m = random_tensor((4, 4), 21)
        train = tt_decompose(m)
        r = train.ranks[1]
        assert tt_param_count(train) == 4 * r + r * 4
