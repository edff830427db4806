import itertools

import numpy as np
import pytest

from hpdstensor import tensor_core as tc
from hpdstensor.errors import ArgumentError, ShapeError, UnsupportedError


class TestPsiIndex:
    def test_all_ones_maps_to_first_slot(self):
        assert tc.psi_index((1, 1, 1), (3, 3, 3)) == 1

    def test_column_major_enumeration(self):
        # enumerate a 4x5 grid column by column and check (2,3) lands at 10
        assert tc.psi_index((2, 3), (4, 5)) == 10

    def test_last_index_maps_to_last_slot(self):
        dims = (2, 3, 4)
        assert tc.psi_index(dims, dims) == 24

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            tc.psi_index((0, 1), (2, 2))
        with pytest.raises(IndexError):
            tc.psi_index((1, 3), (2, 2))

    @pytest.mark.parametrize("dims", [(2,), (3, 4), (2, 3, 4), (2, 2, 2, 2)])
    def test_bijection(self, dims):
        seen = [tc.psi_index(idx, dims) for idx in tc.multi_indices(dims)]
        assert sorted(seen) == list(range(1, int(np.prod(dims)) + 1))
        # flat order of multi_indices is exactly psi order
        assert seen == list(range(1, int(np.prod(dims)) + 1))


class TestKron:
    def test_identity(self):
        assert np.array_equal(tc.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_expansion_by_hand(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array([
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ], dtype=float)
        assert np.array_equal(tc.kron(a, b), expected)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
            lhs = tc.kron(a, b) @ tc.kron(c, d)
            rhs = tc.kron(a @ c, b @ d)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


class TestKhatriRao:
    def test_single_column_equals_kron(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0], [5.0]])
        assert np.array_equal(tc.khatri_rao(a, b),
                              np.kron(a, b))

    def test_columnwise_kron_oracle(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[2.0, 3.0], [4.0, 5.0]])
        expected = np.column_stack([np.kron(a[:, j], b[:, j]) for j in range(2)])
        assert np.array_equal(tc.khatri_rao(a, b), expected)
        assert np.array_equal(expected,
                              np.array([[2, 0], [4, 0], [0, 3], [0, 5.0]]))

    def test_column_mismatch_raises(self):
        with pytest.raises(ShapeError):
            tc.khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


class TestKhatriRaoPower:
    def test_power_one_is_identity_map(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(tc.khatri_rao_power(x, 1), x)

    def test_power_two_columns(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4))
        squared = tc.khatri_rao_power(x, 2)
        for j in range(4):
            assert np.allclose(squared[:, j], np.kron(x[:, j], x[:, j]))

    def test_associativity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3))
        assert np.allclose(tc.khatri_rao_power(x, 3),
                           tc.khatri_rao(x, tc.khatri_rao(x, x)))

    def test_row_count(self):
        x = np.ones((3, 2))
        assert tc.khatri_rao_power(x, 4).shape == (3 ** 4, 2)

    def test_power_below_one_raises(self):
        with pytest.raises(ArgumentError):
            tc.khatri_rao_power(np.ones((2, 2)), 0)


class TestUnfoldFold:
    def test_order2_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(tc.unfold(m, {1}), m)

    def test_full_row_modes_is_vectorization(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        vec = tc.unfold(t, {1, 2, 3})
        assert vec.shape == (8, 1)
        for idx in tc.multi_indices(t.shape):
            flat = tc.psi_index(idx, t.shape)
            assert vec[flat - 1, 0] == t[tuple(i - 1 for i in idx)]

    def test_mode2_unfolding_entrywise(self):
        # values 1..8 laid out in psi order over a 2x2x2 tensor
        t = tc.fold(np.arange(1.0, 9.0).reshape(8, 1), {1, 2, 3}, (2, 2, 2))
        m = tc.unfold(t, {2})
        assert m.shape == (2, 4)
        for idx in tc.multi_indices(t.shape):
            r = idx[1]
            c = tc.psi_index((idx[0], idx[2]), (2, 2))
            assert m[r - 1, c - 1] == t[idx[0] - 1, idx[1] - 1, idx[2] - 1]

    def test_round_trip_exact_all_mode_sets(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 3, 4))
        modes = [1, 2, 3]
        for size in (1, 2, 3):
            for rm in itertools.combinations(modes, size):
                again = tc.fold(tc.unfold(t, rm), rm, t.shape)
                assert np.array_equal(again, t)

    def test_fold_zero_gives_zero(self):
        z = tc.fold(np.zeros((3, 8)), {2}, (2, 3, 4))
        assert not np.any(z)

    def test_fold_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tc.fold(np.zeros((3, 9)), {2}, (2, 3, 4))

    def test_bad_mode_sets(self):
        t = np.zeros((2, 2))
        with pytest.raises(ArgumentError):
            tc.unfold(t, set())
        with pytest.raises(ArgumentError):
            tc.unfold(t, {0, 1})
        with pytest.raises(ArgumentError):
            tc.unfold(t, [1, 1])


class TestModeVecProduct:
    def test_slice_extraction_with_basis_vector(self):
        t = np.zeros((3, 3, 3))
        for i in range(3):
            t[i, i, i] = i + 1.0
        out = tc.mode_vec_product(t, np.array([1.0, 0, 0]), 1)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(out, expected)

    def test_full_contraction_matches_unfolded_form(self):
        rng = np.random.default_rng(4)
        t = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        v = rng.standard_normal(3)
        step = tc.mode_vec_product(tc.mode_vec_product(t, v, 1), v, 1)
        scalar = float(step @ v)
        a_k = tc.unfold(t, {3})
        assert np.isclose(scalar, float(v @ (a_k @ np.kron(v, v))))

    def test_zero_vector_gives_zero(self):
        t = np.ones((2, 2, 2))
        assert not np.any(tc.mode_vec_product(t, np.zeros(2), 2))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            tc.mode_vec_product(np.ones((2, 3)), np.ones(2), 2)


class TestHpdsEvalFull:
    def test_k2_is_matricized_matvec(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        assert np.allclose(tc.hpds_eval_full(t, x), tc.unfold(t, {2}) @ x)

    def test_zero_state(self):
        t = np.ones((2, 2, 2))
        assert not np.any(tc.hpds_eval_full(t, np.zeros(2)))

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((2, 2, 2))
        x = rng.standard_normal(2)
        expected = np.zeros(2)
        for j1 in range(2):
            for j2 in range(2):
                for j3 in range(2):
                    expected[j3] += t[j1, j2, j3] * x[j1] * x[j2]
        assert np.allclose(tc.hpds_eval_full(t, x), expected)

    def test_non_cubical_rejected(self):
        with pytest.raises(ShapeError):
            tc.hpds_eval_full(np.ones((2, 3)), np.ones(2))


class TestAlmostSymmetry:
    def test_symmetrize_is_projection(self):
        rng = np.random.default_rng(7)
        t = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        assert np.allclose(tc.almost_symmetrize(t), t)

    def test_k2_is_identity(self):
        m = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(tc.almost_symmetrize(m), m)

    def test_polynomial_preserved(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((2, 2, 2))
        s = tc.almost_symmetrize(t)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert np.allclose(tc.hpds_eval_full(t, x), tc.hpds_eval_full(s, x),
                               atol=1e-12)

    def test_fourth_order_permutation_list(self):
        # the six first-three-index permutations of an almost symmetric
        # fourth-order tensor agree entrywise
        rng = np.random.default_rng(9)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2, 2)))
        for perm in itertools.permutations(range(3)):
            assert np.allclose(t, np.transpose(t, perm + (3,)), atol=1e-13)
        assert tc.is_almost_symmetric(t, 1e-12)

    def test_single_perturbed_entry_detected(self):
        t = tc.almost_symmetrize(np.random.default_rng(10).standard_normal((3, 3, 3)))
        t[0, 1, 2] += 1.0
        assert not tc.is_almost_symmetric(t, 1e-9)

    def test_symmetric_tensor_matricizations_share_singular_values(self):
        # fully symmetric tensor: every p-mode matricization is a column
        # permutation of the others, so singular values coincide
        rng = np.random.default_rng(11)
        base = rng.standard_normal((3, 3, 3))
        sym = np.zeros_like(base)
        for perm in itertools.permutations(range(3)):
            sym += np.transpose(base, perm)
        svals = [np.linalg.svd(tc.unfold(sym, {p}), compute_uv=False)
                 for p in (1, 2, 3)]
        for s in svals[1:]:
            assert np.allclose(s, svals[0], atol=1e-10)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_factored_symmetrizer_equals_permutation_average(self, k):
        t = np.random.default_rng(20 + k).standard_normal((2,) * k)
        perms = list(itertools.permutations(range(k - 1)))
        average = sum(np.transpose(t, p + (k - 1,)) for p in perms) / len(perms)
        assert np.max(np.abs(tc.almost_symmetrize(t) - average)) <= 1e-13

    @pytest.mark.parametrize("k", [10, 11])
    def test_high_orders_have_no_cost_gate(self, k):
        rng = np.random.default_rng(k)
        t = rng.standard_normal((2,) * k)
        s = tc.almost_symmetrize(t)
        assert tc.is_almost_symmetric(s, 1e-12)
        assert not tc.is_almost_symmetric(t, 1e-9)
        # adjacent transpositions generate every permutation of modes 1..k-1
        for i in range(k - 2):
            assert np.max(np.abs(s - np.swapaxes(s, i, i + 1))) <= 1e-13
        x = rng.standard_normal(2)
        assert np.allclose(tc.hpds_eval_full(s, x), tc.hpds_eval_full(t, x),
                           rtol=1e-12, atol=1e-12)
        assert tc.almost_symmetrize(np.zeros((1,) * 12)).shape == (1,) * 12

    def test_check_is_bounded_by_permutation_deviations(self):
        rng = np.random.default_rng(12)
        t = tc.almost_symmetrize(rng.standard_normal((3, 3, 3, 3)))
        t += 1e-6 * rng.standard_normal(t.shape)
        worst = max(np.max(np.abs(t - np.transpose(t, p + (3,))))
                    for p in itertools.permutations(range(3)))
        tol = np.max(np.abs(t - tc.almost_symmetrize(t)))
        # accepts whatever the permutation loop accepted, and every
        # permutation of an accepted tensor deviates by at most 2 tol
        assert tc.is_almost_symmetric(t, worst)
        assert tc.is_almost_symmetric(t, tol)
        assert not tc.is_almost_symmetric(t, 0.99 * tol)
        assert tol <= worst <= 2 * tol


class TestContractLeading:
    def test_all_vectors_remove_their_modes(self):
        t = np.random.default_rng(13).standard_normal((2, 2, 2, 2))
        v = np.array([0.5, -1.0])
        assert tc.contract_leading(t, [v, v, v]).shape == (2,)
        assert tc.contract_leading(t, [v]).shape == (2, 2, 2)
        assert np.allclose(tc.contract_leading(t, [v, v, v]),
                           tc.hpds_eval_full(t, v))

    def test_argument_validation(self):
        t = np.zeros((2, 2, 2))
        with pytest.raises(UnsupportedError):
            tc.contract_leading(t, [np.eye(2), np.eye(2)])
        with pytest.raises(ShapeError):
            tc.contract_leading(t, [np.ones(3), np.ones(2)])
