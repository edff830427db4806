import itertools

import numpy as np
import pytest

from hpdstensor import tensor_core as tc
from hpdstensor.analysis import _row_space, _taylor_merge
from hpdstensor.benchmarks import _random_tt, gen_instance
from hpdstensor.errors import ArgumentError, ShapeError
from hpdstensor.hier_tucker import htd_decompose
from hpdstensor.kernels import RankTolerance, numerical_rank, right_basis
from hpdstensor.model import FORMATS, HpdsModel, eval_derivative, format_of
from hpdstensor.tensor_train import (TensorTrain, _tt_round, tt_contract,
                                     tt_decompose, tt_param_count,
                                     tt_reconstruct, tt_sweep, tt_zero)


def random_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def evaluate(dynamics, x):
    """A_(k) x^[k-1] of a dense tensor, train or tree, through the checked
    entry."""
    dims = FORMATS[format_of(dynamics)].dims(dynamics)
    return eval_derivative(HpdsModel(len(dims), dims[0], dynamics), x)


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

    def test_svd_inputs_have_at_most_n_times_max_rank_rows(self,
                                                           monkeypatch):
        dense = gen_instance("low_tt", 8, 6, rank_cap=4).dense
        svd, rows = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        train = tt_decompose(dense)
        assert len(rows) == 5
        assert max(rows) <= 8 * max(train.ranks)
        assert np.linalg.norm(tt_reconstruct(train) - dense) <= \
            1e-12 * np.linalg.norm(dense)

    def test_rank_chain_validated(self):
        with pytest.raises(ShapeError):
            TensorTrain((np.zeros((1, 2, 2)), np.zeros((3, 2, 1))))
        with pytest.raises(ShapeError):
            TensorTrain((np.zeros((2, 2, 1)),))

    @pytest.mark.parametrize("cores", [((1, 2, 2), (2, 2)), ((1, 2),)])
    def test_core_order_checked_before_the_ranks(self, cores):
        with pytest.raises(ShapeError):
            TensorTrain(tuple(np.ones(shape) for shape in cores))


def separate_tt_decompose(source, tol=None):
    """The dense TT-SVD as its own loop, before it was shared with
    identification: the reference the shared loop is pinned to."""
    source = np.asarray(source, dtype=float)
    dims, k = source.shape, source.ndim
    c = tc.unfold(source, range(1, k)) if k > 1 else source.reshape(-1, 1)
    if k == 1:
        return TensorTrain((c.reshape(1, dims[0], 1, order="F"),))
    if not np.any(c):
        return tt_zero(dims)
    cores = [None] * k
    r_right = 1
    for p in range(k, 1, -1):
        v, c = right_basis(c, tol)
        r_left = v.shape[1]
        if r_left == 0:
            return tt_zero(dims)
        cores[p - 1] = v.T.reshape(r_left, dims[p - 1], r_right, order="F")
        if p > 2:
            c = c.reshape(-1, dims[p - 2] * r_left, order="F")
        r_right = r_left
    cores[0] = c.reshape(1, dims[0], r_right, order="F")
    return TensorTrain(tuple(cores))


def pinned_tensors():
    rng = np.random.default_rng(61)
    low = TensorTrain(tuple(rng.standard_normal(shape) for shape in
                            [(1, 3, 2), (2, 3, 2), (2, 3, 2), (2, 3, 1)]))
    return {
        "generic": rng.standard_normal((3, 4, 3, 2)),
        "low_rank": tt_reconstruct(low),
        "non_cubical": rng.standard_normal((2, 5, 3)),
        "order_1": rng.standard_normal(6),
        "order_2": rng.standard_normal((4, 3)),
        "zero": np.zeros((3, 3, 3)),
        "negative_zero": -np.zeros((2, 2, 2, 2)),
        "zero_order_1": -np.zeros(3),
    }


class TestOneTrainLoop:
    @pytest.mark.parametrize("name", sorted(pinned_tensors()))
    @pytest.mark.parametrize("tol", [None, RankTolerance(value=1e-2)])
    def test_cores_match_the_separate_loop_bitwise(self, name, tol):
        source = pinned_tensors()[name]
        got = tt_decompose(source, tol).cores
        want = separate_tt_decompose(source, tol).cores
        assert [c.shape for c in got] == [c.shape for c in want]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def train_sum(a, b, scale=1.0):
    """The train of a + scale * b, its cores block-diagonal."""
    cores = []
    for p, (x, y) in enumerate(zip(a.cores, b.cores)):
        first, last = p == 0, p == len(a.cores) - 1
        core = np.zeros((1 if first else x.shape[0] + y.shape[0], x.shape[1],
                         1 if last else x.shape[2] + y.shape[2]))
        core[:x.shape[0], :, :x.shape[2]] = x
        core[0 if first else x.shape[0]:, :, 0 if last else x.shape[2]:] = \
            (scale if first else 1.0) * y
        cores.append(core)
    return TensorTrain(tuple(cores))


class TestRound:
    def test_cores_after_the_first_are_right_orthonormal(self):
        train = _random_tt(5, 6, 4, 3)
        rounded = _tt_round(train)
        for core in rounded.cores[1:]:
            rows = core.reshape(core.shape[0], -1)
            assert np.allclose(rows @ rows.T, np.eye(core.shape[0]),
                               atol=1e-13)
        dense = tt_reconstruct(train)
        assert np.linalg.norm(tt_reconstruct(rounded) - dense) <= \
            1e-13 * np.linalg.norm(dense)


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
        for idx in itertools.product((1, 2), repeat=3):
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
            assert np.allclose(evaluate(train, x), evaluate(t, x), atol=1e-9)

    def test_zero_state(self):
        train = tt_decompose(random_tensor((2, 2, 2), 6))
        assert not np.any(evaluate(train, np.zeros(2)))

    def test_k2_linear_case(self):
        m = random_tensor((4, 4), 7)
        train = tt_decompose(m)
        x = np.random.default_rng(8).standard_normal(4)
        assert np.allclose(evaluate(train, x), tc.unfold(m, {2}) @ x,
                           atol=1e-10)

    def test_state_length_checked(self):
        t = random_tensor((2, 2, 2), 9)
        for dynamics in (t, tt_decompose(t), htd_decompose(t)):
            with pytest.raises(ShapeError):
                evaluate(dynamics, np.ones(3))


class TestContract:
    def test_all_vectors_collapse_to_eval(self):
        t = random_tensor((3, 3, 3), 10)
        train = tt_decompose(t)
        x = np.random.default_rng(11).standard_normal(3)
        out = tt_contract(train, [x, x])
        assert out.shape == (3, 1)
        assert np.allclose(out.ravel(), evaluate(train, x), atol=1e-11)

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
        assert got.shape == via_modes.shape == (3, 1)
        assert np.allclose(got, via_modes, atol=1e-11)

    def test_linearity_in_each_slot(self):
        t = random_tensor((2, 2, 2), 16)
        train = tt_decompose(t)
        rng = np.random.default_rng(17)
        x, y, z = (rng.standard_normal(2) for _ in range(3))
        lhs = tt_contract(train, [x + 2.0 * y, z])
        rhs = tt_contract(train, [x, z]) + 2.0 * tt_contract(train, [y, z])
        assert np.allclose(lhs, rhs, atol=1e-11)

    def test_two_matrices_match_dense_oracle(self):
        t = random_tensor((3, 3, 3, 3), 18)
        rng = np.random.default_rng(18)
        args = [rng.standard_normal((3, 2)), rng.standard_normal(3),
                rng.standard_normal((3, 4))]
        got = tt_contract(tt_decompose(t), args)
        assert got.shape == (3, 8)
        assert np.allclose(got, dense_contraction_oracle(t, args),
                           atol=1e-10)

    def test_wrong_argument_count(self):
        train = tt_decompose(random_tensor((2, 2, 2), 19))
        with pytest.raises(ArgumentError):
            tt_contract(train, [np.ones(2)])


def tensordot_sweep(train, mats, merge):
    """The train sweep as one ``np.tensordot`` per core, before each core
    met the message in one ``np.dot``: the reference the sweep is pinned
    to."""
    msg = np.ones((1, 1))
    for core, mat in zip(train.cores[:-1], mats):
        msg = merge(mat.T @ np.tensordot(msg, core, axes=(1, 0)))
    return (msg @ train.cores[-1][:, :, 0]).T


def sweep_trains(k):
    """Trains of order k over n = 3: random cores (C-contiguous), a
    decomposed tensor (cores are Fortran-ordered views), and for k >= 3 an
    interior rank of 0."""
    n, rng = 3, np.random.default_rng(90 + k)
    trains = {"random": _random_tt(n, k, 4, 90 + k),
              "decomposed": tt_decompose(rng.standard_normal((n,) * k))}
    if k >= 3:
        ranks = [1] + [2] * (k - 1) + [1]
        ranks[k // 2] = 0
        trains["rank_0"] = TensorTrain(tuple(
            rng.standard_normal((ranks[p], n, ranks[p + 1]))
            for p in range(k)))
    return trains


def sweep_merges():
    """(merge, argument columns per slot): the analyses' merges, the
    Taylor one at degrees 0 and 1 over n = 3."""
    return {"keep_every_row": (tc._keep_every_row, [2, 1, 3, 2, 1]),
            "row_space": (_row_space, [3] * 5),
            "taylor_0": (_taylor_merge(0, 3), [4] * 5),
            "taylor_1": (_taylor_merge(1, 3), [8] * 5)}


class TestOneDotSweep:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("merge_name", sorted(sweep_merges()))
    def test_sweep_matches_the_tensordot_loop_bitwise(self, k, merge_name):
        merge, columns = sweep_merges()[merge_name]
        rng = np.random.default_rng(k)
        for name, train in sweep_trains(k).items():
            mats = [rng.standard_normal((3, c)) for c in columns[:k - 1]]
            got = tt_sweep(train, mats, merge)
            want = tensordot_sweep(train, mats, merge)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


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
