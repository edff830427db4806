import numpy as np
import pytest

from hpdstensor import tensor_core as tc
from hpdstensor.errors import ArgumentError, NumericError, ShapeError
from hpdstensor.hier_tucker import htd_decompose
from hpdstensor.kernels import (RankTolerance, compact_svd, left_basis,
                                numerical_rank, right_basis, subspace_equal)
from hpdstensor.tensor_train import tt_decompose


class TestCompactSvd:
    def test_identity(self):
        d = compact_svd(np.eye(3))
        assert d.rank == 3
        assert np.allclose(d.S, np.ones(3))
        assert np.allclose(d.U @ d.V.T, np.eye(3))

    def test_rank_one_outer_product(self):
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 2.0, 2.0])
        d = compact_svd(np.outer(u, v))
        assert d.rank == 1
        assert np.isclose(d.S[0], np.linalg.norm(u) * np.linalg.norm(v))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 3))
        d = compact_svd(m)
        assert np.linalg.norm((d.U * d.S) @ d.V.T - m) <= \
            1e-12 * np.linalg.norm(m)

    def test_zero_matrix_empty_decomposition(self):
        d = compact_svd(np.zeros((4, 2)))
        assert d.rank == 0
        assert d.U.shape == (4, 0) and d.V.shape == (2, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            compact_svd(np.array([[1.0, np.inf]]))

    def test_deterministic_and_sign_fixed(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 4))
        d1, d2 = compact_svd(m), compact_svd(m)
        assert np.array_equal(d1.U, d2.U)
        assert np.array_equal(d1.V, d2.V)
        for j in range(d1.rank):
            lead = np.argmax(np.abs(d1.U[:, j]))
            assert d1.U[lead, j] > 0

    @pytest.mark.parametrize("case", ["tall", "wide", "deficient",
                                      "hadamard", "tie", "negated_tie"])
    def test_sign_rule_matches_the_column_loop_bitwise(self, case):
        rng = np.random.default_rng(3)
        m = {"tall": rng.standard_normal((9, 4)),
             "wide": rng.standard_normal((3, 8)),
             "deficient": rng.standard_normal((7, 2)) @
             rng.standard_normal((2, 6)),
             "hadamard": np.array([[1.0, 1, 1, 1], [1, -1, 1, -1],
                                   [1, 1, -1, -1], [1, -1, -1, 1]]) @
             np.diag([1.0, 2, 3, 4]),
             "tie": np.array([[1.0], [-1.0], [0.5]]),
             "negated_tie": np.array([[-1.0], [1.0], [-0.5]])}[case]
        # the sign rule as a loop over columns, one argmax each
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        r = int(np.count_nonzero(s > max(m.shape) * np.finfo(float).eps * s[0]))
        u, s, v = u[:, :r].copy(), s[:r].copy(), vt[:r].T.copy()
        opposite_ties = 0
        for j in range(r):
            mags = np.abs(u[:, j])
            tied = u[mags == mags.max(), j]
            opposite_ties += int(tied.min() < 0 < tied.max())
            lead = int(np.argmax(mags))
            if u[lead, j] < 0:
                u[:, j] = -u[:, j]
                v[:, j] = -v[:, j]
        d = compact_svd(m)
        for got, want in ((d.U, u), (d.S, s), (d.V, v)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if case in ("hadamard", "tie", "negated_tie"):
            # the first of the tied largest magnitudes decides the sign
            assert opposite_ties >= 1

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 5))
        d = compact_svd(m)
        assert np.max(np.abs(d.U.T @ d.U - np.eye(d.rank))) <= 1e-10
        assert np.max(np.abs(d.V.T @ d.V - np.eye(d.rank))) <= 1e-10
        assert np.all(np.diff(d.S) <= 0) and np.all(d.S > 0)

    def test_absolute_tolerance_mode(self):
        m = np.diag([1.0, 1e-3, 1e-9])
        assert compact_svd(m, RankTolerance("absolute", 1e-6)).rank == 2
        assert compact_svd(m, RankTolerance("relative", 1e-6)).rank == 2
        assert compact_svd(m).rank == 3

    def test_bad_tolerance(self):
        with pytest.raises(ArgumentError):
            RankTolerance("fuzzy", 1.0)
        with pytest.raises(ArgumentError):
            RankTolerance("relative", -1.0)

    def test_absolute_tolerance_needs_a_value(self):
        # refused when built, not at the first rank decision
        with pytest.raises(ArgumentError):
            RankTolerance("absolute")

    def test_relative_tolerance_needs_a_value(self):
        # None, not a value-less tolerance, asks for the default
        with pytest.raises(ArgumentError):
            RankTolerance("relative")
        with pytest.raises(ArgumentError):
            RankTolerance()


class TestRightBasis:
    @pytest.mark.parametrize("shape,rank", [((40, 6), 6), ((40, 6), 3),
                                            ((6, 6), 4), ((5, 9), 5)])
    def test_matches_compact_svd(self, shape, rank):
        rng = np.random.default_rng(rank + shape[0])
        a = rng.standard_normal((shape[0], rank)) @ \
            rng.standard_normal((rank, shape[1]))
        d = compact_svd(a)
        v, us = right_basis(a)
        assert v.shape[1] == d.rank == rank
        assert np.allclose(v, d.V, atol=1e-10)
        assert np.allclose(us, d.U * d.S, atol=1e-10)
        assert np.allclose(us @ v.T, a, atol=1e-10)
        lead = us[np.argmax(np.abs(us), axis=0), np.arange(rank)]
        assert np.all(lead > 0)

    def test_threshold_stays_at_the_tall_shape(self):
        # sigma_2 / sigma_1 = 3e-14 is dropped at the 1000 x 2 threshold
        # (2.2e-13) and would be kept at the 2 x 2 one (4.4e-16)
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.standard_normal((1000, 2)))[0]
        a = q @ np.diag([1.0, 3e-14])
        assert compact_svd(a).rank == 1
        assert right_basis(a)[0].shape[1] == 1

    def test_zero_matrix(self):
        v, us = right_basis(np.zeros((7, 3)))
        assert v.shape == (3, 0) and us.shape == (7, 0)

    @pytest.mark.parametrize("rows,cols,rank", [(30, 6, 6), (30, 6, 3),
                                                (4, 9, 4)])
    def test_weighted_rows_stand_for_repeated_rows(self, rows, cols, rank):
        # row i weighted by sqrt(c_i) has the V of the matrix that repeats
        # it c_i times, and the distinct rows of its U S
        rng = np.random.default_rng(rows + rank)
        a = rng.standard_normal((rows, rank)) @ \
            rng.standard_normal((rank, cols))
        counts = rng.integers(1, 5, rows)
        tol = RankTolerance(value=1e-12)
        v_ref, us_ref = right_basis(np.repeat(a, counts, axis=0), tol)
        v, us = right_basis(a, tol, np.sqrt(counts))
        assert v.shape == v_ref.shape == (cols, rank)
        assert np.allclose(v, v_ref, atol=1e-10)
        assert np.allclose(np.repeat(us, counts, axis=0), us_ref, atol=1e-10)


def roundoff_direction(rows):
    """A rows x 4 matrix with singular values 1, 0.5, 0.1 and 100 eps: the
    last is dropped at the default threshold of the rows x 4 shape and
    kept at that of the 4 x 4 triangular factor."""
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((rows, 4)))[0]
    w = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    eps = np.finfo(float).eps
    return q @ np.diag([1.0, 0.5, 0.1, 100 * eps]) @ w.T


class TestShapeRelativeTolerance:
    def test_bases_judge_at_the_matrix_shape(self):
        a = roundoff_direction(4000)
        assert compact_svd(a).rank == 3
        assert right_basis(a)[0].shape[1] == 3
        assert left_basis(a.T).shape[1] == 3

    def test_decompositions_judge_at_the_unfolding_shape(self):
        # mode 6's unfolding, and so the train's first step and leaf 6,
        # carry the 100 eps direction, dropped at the 4 x 4^5 shape
        t = roundoff_direction(4 ** 5).reshape((4,) * 6, order="F")
        assert htd_decompose(t).rank_of((6,)) == \
            tt_decompose(t).ranks[-2] == 3


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_duplicated_column(self):
        u = np.array([[1.0], [2.0], [3.0]])
        assert numerical_rank(np.hstack([u, 2 * u])) == 1

    def test_khatri_rao_power_multiset_bound(self):
        # columns of the squared Khatri-Rao power live in the symmetric
        # subspace, whose dimension is the multiset count C(n+1, 2)
        rng = np.random.default_rng(3)
        n, t = 4, 30
        x = rng.standard_normal((n, t))
        bound = n * (n + 1) // 2
        assert numerical_rank(tc.khatri_rao_power(x, 2)) <= bound

    def test_invariance_under_orthogonal_maps(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
        q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert numerical_rank(q1 @ m @ q2) == numerical_rank(m) == 2
        perm = rng.permutation(6)
        assert numerical_rank(m[:, perm]) == 2


class TestSubspaceEqual:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert subspace_equal(u, u @ q, 1e-10)

    def test_different_spans(self):
        e1 = np.eye(3)[:, :1]
        e2 = np.eye(3)[:, 1:2]
        assert not subspace_equal(e1, e2, 1e-8)

    def test_kalman_span_oracle(self):
        # span{B, AB} equals the orthonormalized stack for a 2-step system
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 1))
        kal = compact_svd(np.hstack([b, a @ b])).U
        other = compact_svd(np.hstack([a @ b, b])).U
        assert subspace_equal(kal, other, 1e-10)

    def test_rank_mismatch_is_false(self):
        u, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((5, 3)))
        assert not subspace_equal(u, u[:, :2], 1e-8)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ArgumentError):
            subspace_equal(np.ones((3, 2)), np.eye(3)[:, :2], 1e-8)

    def test_empty_bases_equal(self):
        assert subspace_equal(np.zeros((4, 0)), np.zeros((4, 0)), 1e-12)
