import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdstensor import kernels, sysid
from hpdstensor import model as model_module
from hpdstensor import tensor_core as tc
from hpdstensor.errors import (ArgumentError, AssumptionError,
                               IdentifiabilityError, NumericError, ShapeError)
from hpdstensor.hier_tucker import (DimensionTree, TreeNode, build_tree,
                                    htd_decompose, htd_reconstruct)
from hpdstensor.kernels import RankTolerance, compact_svd
from hpdstensor.model import (FORMATS, HpdsModel, SampleSet, eval_derivative,
                              format_of, simulate_discrete)
from hpdstensor.sysid import (check_identifiability_autonomous,
                              check_identifiability_io, identify_full,
                              identify_ht, identify_io, identify_io_noisy,
                              identify_tt, required_rank)
from hpdstensor.tensor_train import (TensorTrain, tt_decompose, tt_reconstruct,
                                     tt_zero)


def exact_autonomous_samples(tensor, t_count, seed, scale=1.0):
    n = tensor.shape[0]
    rng = np.random.default_rng(seed)
    x0 = scale * rng.standard_normal((n, t_count))
    model = HpdsModel(tensor.ndim, n, tensor)
    x1 = np.column_stack([eval_derivative(model, x0[:, i])
                          for i in range(t_count)])
    return SampleSet(tau=0.01, X0=x0, X1=x1)


def brute_force_multiset_count(n, k):
    return sum(1 for _ in itertools.combinations_with_replacement(range(n), k - 1))


class TestRequiredRank:
    def test_k2_reduces_to_n(self):
        for n in range(1, 9):
            assert required_rank(n, 2) == n

    def test_small_cases(self):
        assert required_rank(2, 3) == 3   # multisets {11, 12, 22}
        assert required_rank(3, 4) == 10  # C(5, 3)

    def test_closed_form_and_brute_force(self):
        for n in range(1, 9):
            for k in range(2, 9):
                expected = brute_force_multiset_count(n, k)
                assert required_rank(n, k) == expected
                assert required_rank(n, k) == math.comb(n + k - 2, k - 1)

    def test_domain_checks(self):
        with pytest.raises(ArgumentError):
            required_rank(0, 3)
        with pytest.raises(ArgumentError):
            required_rank(2, 1)
        with pytest.raises(ArgumentError):
            required_rank(40, 40)  # exceeds 64-bit


class TestIdentifiabilityAutonomous:
    def test_generic_states_satisfy_at_minimum_count(self):
        rng = np.random.default_rng(0)
        n, k = 3, 3
        t_count = required_rank(n, k)
        s = SampleSet(tau=0.1, X0=rng.standard_normal((n, t_count)))
        assert check_identifiability_autonomous(s, k).satisfied

    def test_duplicated_columns_fail(self):
        rng = np.random.default_rng(1)
        n, k = 3, 3
        t_count = required_rank(n, k)
        x0 = rng.standard_normal((n, t_count))
        x0[:, -1] = x0[:, 0]
        s = SampleSet(tau=0.1, X0=x0)
        report = check_identifiability_autonomous(s, k)
        assert not report.satisfied
        assert report.observed_rank < report.required_rank

    def test_k2_is_classical_rank_condition(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((4, 10))
        s = SampleSet(tau=0.1, X0=x0)
        report = check_identifiability_autonomous(s, 2)
        assert report.required_rank == 4 and report.satisfied

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(n=st.integers(1, 4), k=st.integers(2, 5), extra=st.integers(-4, 4),
           seed=st.integers(0, 2 ** 16), scale=st.sampled_from([1e-4, 1.0,
                                                                 1e3]),
           data=st.sampled_from(["generic", "duplicated", "zero"]),
           tol=st.sampled_from([None, RankTolerance("absolute", 1e-9),
                                RankTolerance("absolute", 1.0)]))
    def test_report_matches_the_svd_of_the_monomials(
            self, n, k, extra, seed, scale, data, tol):
        # T = M + extra samples, so below M for extra < 0
        count = required_rank(n, k)
        t_count = max(1, count + extra)
        rng = np.random.default_rng(seed)
        x0 = scale * rng.standard_normal((n, t_count))
        if data == "duplicated":
            x0[:, t_count // 2:] = x0[:, :1]
        elif data == "zero":
            x0[:] = 0.0
        report = check_identifiability_autonomous(
            SampleSet(tau=0.1, X0=x0), k, tol)
        # reference: the compact SVD of W^{1/2} R built here, one row per
        # multiset weighted by the square root of its multinomial count
        rows = []
        for m in itertools.combinations_with_replacement(range(n), k - 1):
            weight = math.factorial(k - 1)
            for j in set(m):
                weight //= math.factorial(m.count(j))
            rows.append(math.sqrt(weight) * np.prod(x0[list(m)], axis=0))
        weighted = np.array(rows)
        ref_tol = RankTolerance(
            value=max(n ** (k - 1), t_count) * np.finfo(float).eps) \
            if tol is None else tol
        ref = compact_svd(weighted, ref_tol)
        assert report.required_rank == count
        assert report.observed_rank == ref.rank
        assert report.satisfied == (ref.rank == count)
        assert report.ill_conditioned == bool(
            ref.rank == count and ref.S[-1] < 1e3 * np.finfo(float).eps *
            ref.S[0])
        if ref.rank:
            assert abs(report.margin - ref.S[-1]) <= 1e-10 * ref.S[-1]
            assert abs(report.condition - ref.S[0] / ref.S[-1]) <= \
                1e-9 * report.condition
        else:
            assert report.margin == 0.0 and report.condition == math.inf

    def test_threshold_stays_at_the_data_shape(self):
        # sigma_2 / sigma_1 = 3e-14 is dropped at the 2 x 1000 threshold
        # (2.2e-13) and would be kept at the 2 x 2 one (4.4e-16) of the
        # triangular factor
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((1000, 2)))[0]
        x0 = (q @ np.diag([1.0, 3e-14])).T
        report = check_identifiability_autonomous(SampleSet(tau=0.1, X0=x0),
                                                  2)
        assert report.observed_rank == 1 and not report.satisfied

    def test_too_few_samples_reports_not_raises(self):
        rng = np.random.default_rng(3)
        s = SampleSet(tau=0.1, X0=rng.standard_normal((3, 2)))
        assert not check_identifiability_autonomous(s, 3).satisfied

    def test_borderline_margin_flagged_ill_conditioned(self):
        # rank condition met, but the smallest retained singular value sits
        # within 1e3 machine epsilons of the largest
        x0 = np.array([[1.0, 1.0], [0.0, 3e-13]])
        s = SampleSet(tau=0.1, X0=x0)
        report = check_identifiability_autonomous(s, 2)
        assert report.satisfied and report.ill_conditioned
        healthy = check_identifiability_autonomous(
            SampleSet(tau=0.1, X0=np.eye(2)), 2)
        assert healthy.satisfied and not healthy.ill_conditioned


class TestIdentifyFull:
    def test_exact_recovery(self):
        rng = np.random.default_rng(4)
        n, k = 3, 3
        truth = tc.almost_symmetrize(rng.standard_normal((n,) * k))
        s = exact_autonomous_samples(truth, required_rank(n, k) + 5, 5)
        model = identify_full(s, k)
        rel = np.linalg.norm(model.dynamics - truth) / np.linalg.norm(truth)
        assert rel <= 1e-8
        assert tc.is_almost_symmetric(model.dynamics, 1e-8)

    def test_k2_matches_pinv_formula(self):
        rng = np.random.default_rng(6)
        n = 4
        a = rng.standard_normal((n, n))
        x0 = rng.standard_normal((n, 12))
        s = SampleSet(tau=0.1, X0=x0, X1=a @ x0)
        model = identify_full(s, 2)
        assert np.allclose(tc.unfold(model.dynamics, {2}),
                           s.X1 @ np.linalg.pinv(s.X0), atol=1e-10)

    def test_one_svd_of_the_khatri_rao_power(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compact_svd called")

        monkeypatch.setattr(sysid, "compact_svd", refuse)
        monkeypatch.setattr(kernels, "compact_svd", refuse)
        svd = np.linalg.svd
        calls = []

        def counting_svd(matrix, *args, **kwargs):
            calls.append((np.shape(matrix), kwargs.get("compute_uv", True)))
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rng = np.random.default_rng(8)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        s = exact_autonomous_samples(truth, 12, 9)
        assert check_identifiability_autonomous(s, 3).satisfied
        model = identify_full(s, 3)
        monkeypatch.undo()
        # one singular-values-only SVD per call, of the triangular factor of
        # the C(n+k-2, k-1) = 6 weighted monomial rows
        assert calls == [((6, 6), False)] * 2
        assert np.allclose(model.dynamics, truth, atol=1e-8)
        unfolding = s.X1 @ np.linalg.pinv(tc.khatri_rao_power(s.X0, 2))
        got = tc.unfold(model.dynamics, {3})
        assert np.linalg.norm(got - unfolding) <= \
            1e-12 * np.linalg.norm(unfolding)

    def test_conversion_tolerance_from_the_condition_number(self):
        rng = np.random.default_rng(5)
        n, k, t_count = 3, 3, 14
        truth = tc.almost_symmetrize(rng.standard_normal((n,) * k))
        s = exact_autonomous_samples(truth, t_count, 6)
        report = check_identifiability_autonomous(s, k)
        _, conversion, _ = sysid._recover_coefficients(s, k, None)
        # this report's QR lacks the derivative columns, so it may differ in
        # the last bits
        assert conversion.value == pytest.approx(
            max(n ** (k - 1), t_count) * np.finfo(float).eps *
            report.condition, rel=1e-12)
        user = RankTolerance("absolute", 1e-9)
        assert sysid._recover_coefficients(s, k, user)[1] is user

    def test_condition_failure_raises_with_report(self):
        rng = np.random.default_rng(7)
        s = SampleSet(tau=0.1, X0=rng.standard_normal((3, 4)),
                      X1=rng.standard_normal((3, 4)))
        with pytest.raises(IdentifiabilityError) as err:
            identify_full(s, 3)
        assert err.value.report.observed_rank < err.value.report.required_rank

    @pytest.mark.parametrize("identify", [identify_full, identify_tt,
                                          identify_ht])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_derivatives_raise(self, identify, bad):
        rng = np.random.default_rng(8)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        s = exact_autonomous_samples(truth, 12, 9)
        x1 = s.X1.copy()
        x1[1, 4] = bad
        with pytest.raises(NumericError):
            identify(SampleSet(tau=s.tau, X0=s.X0, X1=x1), 3)

    def test_uniqueness_across_datasets(self):
        rng = np.random.default_rng(8)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        m1 = identify_full(exact_autonomous_samples(truth, 11, 9), 3)
        m2 = identify_full(exact_autonomous_samples(truth, 14, 10), 3)
        assert np.linalg.norm(m1.dynamics - m2.dynamics) <= 1e-8

    def test_duplicate_column_property_of_projector(self):
        # columns of V S+ U^T at indices related by permuting the
        # multi-index agree
        rng = np.random.default_rng(11)
        n, k = 2, 3
        x0 = rng.standard_normal((n, 8))
        xhat = tc.khatri_rao_power(x0, k - 1)
        svd = compact_svd(xhat)
        proj = (svd.V / svd.S) @ svd.U.T
        for j1 in range(1, n + 1):
            for j2 in range(1, n + 1):
                i_a = j1 + (j2 - 1) * n
                i_b = j2 + (j1 - 1) * n
                assert np.allclose(proj[:, i_a - 1], proj[:, i_b - 1],
                                   atol=1e-10)


class TestIdentifyDecomposed:
    def test_tt_matches_full(self):
        rng = np.random.default_rng(12)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        s = exact_autonomous_samples(truth, 16, 13)
        full = identify_full(s, 3)
        tt_model = identify_tt(s, 3)
        assert np.linalg.norm(tt_reconstruct(tt_model.dynamics) -
                              full.dynamics) <= 1e-8

    @pytest.mark.parametrize("seed", range(40))
    def test_tt_rank_one_dynamics(self, seed):
        v = np.array([0.6, 0.8, 0.0])
        truth = np.einsum("i,j,k->ijk", v, v, v)
        s = exact_autonomous_samples(truth, 12, seed)
        tt_model = identify_tt(s, 3)
        assert max(tt_model.dynamics.ranks) == 1
        h = identify_ht(s, 3).dynamics
        assert all(h.rank_of(node.modes) == 1 for node, _ in h.tree.walk()
                   if node is not h.tree.root)

    def test_k2_two_core_train(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((3, 3))
        x0 = rng.standard_normal((3, 9))
        s = SampleSet(tau=0.1, X0=x0, X1=a @ x0)
        tt_model = identify_tt(s, 2)
        assert tt_model.dynamics.order == 2
        assert np.allclose(tc.unfold(tt_reconstruct(tt_model.dynamics), {2}),
                           a, atol=1e-9)

    def test_ht_matches_full(self):
        rng = np.random.default_rng(18)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        s = exact_autonomous_samples(truth, 16, 19)
        full = identify_full(s, 3)
        ht_model = identify_ht(s, 3)
        assert np.linalg.norm(htd_reconstruct(ht_model.dynamics) -
                              full.dynamics) <= 1e-8

    def test_ht_shared_leaf_factors(self):
        rng = np.random.default_rng(20)
        truth = tc.almost_symmetrize(rng.standard_normal((2, 2, 2, 2)))
        s = exact_autonomous_samples(truth, required_rank(2, 4) + 4, 21)
        ht_model = identify_ht(s, 4)
        h = ht_model.dynamics
        assert h.leaf_factors[1] is h.leaf_factors[2]
        assert h.leaf_factors[2] is h.leaf_factors[3]

    def test_ht_checks_the_tree_before_the_data(self, monkeypatch):
        # unidentifiable data and a tree of the wrong order: the tree is
        # reported, and no factorization runs
        rng = np.random.default_rng(7)
        s = SampleSet(tau=0.1, X0=rng.standard_normal((3, 4)),
                      X1=rng.standard_normal((3, 4)))

        def refuse(*args, **kwargs):
            raise AssertionError("data factored")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        with pytest.raises(ShapeError):
            identify_ht(s, 3, tree=build_tree(5))

    def test_ht_default_tree_is_the_balanced_tree_bitwise(self):
        rng = np.random.default_rng(26)
        for k in (2, 3, 4, 5):
            truth = tc.almost_symmetrize(rng.standard_normal((3,) * k))
            s = exact_autonomous_samples(truth, required_rank(3, k) + 5, k)
            got = identify_ht(s, k).dynamics
            want = identify_ht(s, k, tree=build_tree(k)).dynamics
            assert got.tree == want.tree
            for table, other in ((got.leaf_factors, want.leaf_factors),
                                 (got.transfer, want.transfer)):
                assert {key: value.tobytes() for key, value in table.items()} \
                    == {key: value.tobytes() for key, value in other.items()}

    def test_ht_node_ranks_match_unfoldings(self):
        rng = np.random.default_rng(22)
        truth = tc.almost_symmetrize(rng.standard_normal((2, 2, 2, 2)))
        s = exact_autonomous_samples(truth, required_rank(2, 4) + 4, 23)
        h = identify_ht(s, 4).dynamics
        from hpdstensor.kernels import numerical_rank
        for node, _ in h.tree.walk():
            if node is h.tree.root or node.is_leaf:
                continue
            assert h.rank_of(node.modes) == numerical_rank(
                tc.unfold(truth, node.modes))

    def test_pipeline_equivalence_at_random_states(self):
        rng = np.random.default_rng(24)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        s = exact_autonomous_samples(truth, 16, 25)
        models = [identify_full(s, 3), identify_tt(s, 3), identify_ht(s, 3)]
        for _ in range(20):
            x = rng.standard_normal(3)
            outs = [eval_derivative(m, x) for m in models]
            assert np.allclose(outs[0], outs[1], atol=1e-8)
            assert np.allclose(outs[0], outs[2], atol=1e-8)


class TestWeightedMonomials:
    """Identification works on the distinct monomial rows of the
    Khatri-Rao power, weighted by the square roots of their counts."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.integers(1, 4), k=st.integers(2, 5),
           extra=st.integers(0, 6), seed=st.integers(0, 2 ** 16))
    def test_same_singular_values_and_regression_as_khatri_rao(
            self, n, k, extra, seed):
        rng = np.random.default_rng(seed)
        t_count = required_rank(n, k) + extra
        x0 = rng.standard_normal((n, t_count))
        x1 = rng.standard_normal((n, t_count))
        kr = tc.khatri_rao_power(x0, k - 1)
        weighted, root, (_, grows, _) = sysid._weighted_monomials(x0, k)
        columns = tc._multiset_ranks(grows)
        assert weighted.shape == (required_rank(n, k), t_count)
        want = np.linalg.svd(kr, compute_uv=False)
        got = np.linalg.svd(weighted, compute_uv=False)
        assert np.allclose(got, want[:got.size], rtol=0, atol=1e-12 * want[0])
        assert np.all(want[got.size:] <= 1e-12 * want[0])
        # the gathered unfolding is X1 pinv(KR)
        coeffs = x1 @ np.linalg.pinv(weighted)
        unfolding = (coeffs / root)[:, columns]
        expected = x1 @ np.linalg.pinv(kr)
        assert np.linalg.norm(unfolding - expected) <= \
            1e-10 * np.linalg.norm(expected)

    def test_no_path_forms_the_khatri_rao_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Khatri-Rao power formed")

        for name in ("khatri_rao_power", "khatri_rao"):
            monkeypatch.setattr(tc, name, refuse)
            monkeypatch.setattr(sysid, name, refuse, raising=False)
        rng = np.random.default_rng(30)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        s = exact_autonomous_samples(truth, 16, 31)
        assert check_identifiability_autonomous(s, 3).satisfied
        for identify in (identify_full, identify_tt, identify_ht):
            assert np.allclose(eval_derivative(identify(s, 3), s.X0[:, 0]),
                               s.X1[:, 0], atol=1e-8)
        _, io_samples, _, _ = io_setup(32)
        assert check_identifiability_io(io_samples, 3).satisfied
        identify_io(io_samples, 3)
        identify_io_noisy(io_samples, 3)

    def test_identify_full_memory_peak_at_n5_k7(self):
        # the Khatri-Rao power alone would be 5^6 x 420 doubles, 52 MB
        n, k = 5, 7
        truth = tc.almost_symmetrize(
            np.random.default_rng(33).standard_normal((n,) * k))
        s = exact_autonomous_samples(truth, 2 * required_rank(n, k), 34)
        tracemalloc.start()
        try:
            model = identify_full(s, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert np.allclose(eval_derivative(model, s.X0[:, 0]), s.X1[:, 0],
                           atol=1e-8)


def caterpillar_tree(k):
    """Node {1..p} has children {1..p-1} and {p}."""
    node = TreeNode((1,))
    for p in range(2, k + 1):
        node = TreeNode(tuple(range(1, p + 1)), node, TreeNode((p,)))
    return DimensionTree(node)


def balanced_tree_over(order):
    """The balanced split of the modes in the given order, so that
    ``(k, 1, ..., k-1)`` puts mode k in the root's left child."""
    def split(modes):
        if len(modes) == 1:
            return TreeNode(modes)
        half = (len(modes) + 1) // 2
        return TreeNode(tuple(sorted(modes)), split(modes[:half]),
                        split(modes[half:]))
    return DimensionTree(split(tuple(order)))


def coefficient_samples(n, k, truth, extra, seed):
    """Exact samples of the almost symmetric system with n x M monomial
    coefficients ``truth``: X1 = (truth W) R, R the monomials of X0 and W
    their multiplicities, which is A_(k) KR without either being formed."""
    members, _, counts = tc.multiset_tables(n, k - 1)
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, (n, required_rank(n, k) + extra))
    monomials = np.ones((members[k - 1].shape[0], x0.shape[1]))
    for digits in members[k - 1].T:
        monomials = monomials * x0[digits]
    return SampleSet(tau=0.01, X0=x0, X1=(truth * counts[k - 1]) @ monomials)


def coefficient_truth(kind, n, k, rank, seed):
    """Coefficients of a generic almost symmetric tensor, of
    sum_j v_j^(k-1) z_j with ``rank`` terms, or of zero."""
    members = tc.multiset_tables(n, k - 1)[0][k - 1]
    rng = np.random.default_rng(seed)
    if kind == "generic":
        return rng.uniform(-1.0, 1.0, (n, members.shape[0]))
    if kind == "zero":
        return np.zeros((n, members.shape[0]))
    v = rng.uniform(-1.0, 1.0, (rank, n))
    terms = np.ones((rank, members.shape[0]))
    for digits in members.T:
        terms = terms * v[:, digits]
    return rng.uniform(-1.0, 1.0, (n, rank)) @ terms


def separate_symmetric_train(coeffs, tables, tol):
    """The train of the almost symmetric tensor with k-mode unfolding
    coeffs[:, columns] as its own copy of the TT-SVD loop, before the loop
    was shared with the dense decomposition: the reference the shared loop
    is pinned to."""
    _, grows, counts = tables
    n, k = coeffs.shape[0], len(grows) + 1
    dims = (n,) * k
    if not np.any(coeffs):
        return tt_zero(dims)
    cores = [None] * k
    rows, r_right = coeffs.T, 1
    for p in range(k, 1, -1):
        v, rows = kernels.right_basis(rows, tol, np.sqrt(counts[p - 1]))
        r_left = v.shape[1]
        if r_left == 0:
            return tt_zero(dims)
        cores[p - 1] = v.T.reshape(r_left, n, r_right, order="F")
        rows = rows[grows[p - 2]].reshape(-1, n * r_left, order="F")
        r_right = r_left
    cores[0] = rows.reshape(1, n, r_right, order="F")
    return TensorTrain(tuple(cores))


@pytest.mark.parametrize("kind, n, k, rank, seed", [
    ("generic", 3, 4, 1, 0), ("generic", 2, 6, 1, 1), ("generic", 4, 3, 1, 2),
    ("generic", 1, 5, 1, 3), ("low_rank", 3, 5, 2, 4),
    ("low_rank", 4, 4, 1, 5), ("low_rank", 5, 3, 3, 6), ("zero", 3, 4, 1, 7),
    ("zero", 2, 2, 1, 8)])
def test_identify_tt_matches_the_separate_loop_bitwise(kind, n, k, rank,
                                                       seed):
    s = coefficient_samples(n, k, coefficient_truth(kind, n, k, rank, seed),
                            3, seed)
    coeffs, conversion, tables = sysid._recover_coefficients(s, k, None)
    got = identify_tt(s, k).dynamics.cores
    want = separate_symmetric_train(coeffs, tables, conversion).cores
    assert [c.shape for c in got] == [c.shape for c in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestDecomposedFromCoefficients:
    """identify_tt and identify_ht decompose the monomial coefficients and
    reach the dense decompositions of the identify_full tensor."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.integers(1, 5), k=st.integers(2, 9),
           kind=st.sampled_from(["generic", "low_rank", "zero"]),
           rank=st.integers(1, 3), extra=st.integers(0, 8),
           seed=st.integers(0, 2 ** 16))
    def test_same_ranks_as_the_dense_decompositions(self, n, k, kind, rank,
                                                    extra, seed):
        s = coefficient_samples(n, k, coefficient_truth(kind, n, k, rank,
                                                        seed), extra, seed)
        dense = identify_full(s, k).dynamics
        conversion = sysid._recover_coefficients(s, k, None)[1]
        train = identify_tt(s, k).dynamics
        ref = tt_decompose(dense, tol=conversion)
        assert train.ranks == ref.ranks
        for got, want in zip(train.cores, ref.cores):
            assert np.max(np.abs(got - want)) <= \
                1e-11 * max(1.0, np.max(np.abs(want)))
        for tree in (build_tree(k), caterpillar_tree(k),
                     balanced_tree_over((k,) + tuple(range(1, k)))):
            h = identify_ht(s, k, tree).dynamics
            ref = htd_decompose(dense, tree, conversion)
            for node, _ in tree.walk():
                assert h.rank_of(node.modes) == ref.rank_of(node.modes)
            # both drop the recovery's roundoff, which dense still holds
            assert np.linalg.norm(htd_reconstruct(h) - htd_reconstruct(ref)) \
                <= 1e-11 * np.linalg.norm(dense)

    def test_memory_peak_at_n4_k11(self):
        # the dense tensor alone would be 4^11 doubles, 32 MB; the truth is
        # built as a train, sum_j v_j^(k-1) z_j with diagonal cores, so the
        # test never forms it either
        n, k, r = 4, 11, 3
        rng = np.random.default_rng(41)
        v, z = rng.uniform(-1.0, 1.0, (r, n)), rng.uniform(-1.0, 1.0, (n, r))
        middle = np.zeros((r, n, r))
        middle[np.arange(r), :, np.arange(r)] = v
        truth = HpdsModel(k, n, TensorTrain(
            (v.T[None],) + (middle,) * (k - 2) + (z.T[:, :, None],)))
        x0 = rng.uniform(-1.0, 1.0, (n, 2 * required_rank(n, k)))
        s = SampleSet(tau=0.01, X0=x0, X1=np.column_stack(
            [eval_derivative(truth, x) for x in x0.T]))
        for identify in (identify_tt, identify_ht):
            tracemalloc.start()
            try:
                model = identify(s, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20
            assert FORMATS[format_of(model.dynamics)].max_rank(
                model.dynamics) == r
            for x in rng.uniform(-1.0, 1.0, (4, n)):
                want = eval_derivative(truth, x)
                assert np.linalg.norm(eval_derivative(model, x) - want) <= \
                    1e-10 * np.linalg.norm(want)


def io_setup(seed, n=3, k=3, m=2, l=4, t_factor=3, tau=0.05, sigma=0.0,
             noise_seed=0):
    rng = np.random.default_rng(seed)
    truth = tc.almost_symmetrize(rng.standard_normal((n,) * k))
    b = 0.3 * rng.standard_normal((n, m))
    c, _ = np.linalg.qr(rng.standard_normal((l, n)))
    model = HpdsModel(k, n, truth, B=b, C=c)
    t_count = t_factor * (required_rank(n, k) + m)
    u = 0.1 * rng.standard_normal((m, t_count))
    x0 = 0.3 * rng.standard_normal(n)
    samples = simulate_discrete(model, x0, u=u, tau=tau, steps=t_count)
    if sigma > 0:
        from hpdstensor.model import add_noise
        samples = add_noise(samples, sigma, seed=noise_seed)
    return model, samples, u, x0


class TestIdentifiabilityIo:
    def test_generic_data_satisfied(self):
        _, samples, _, _ = io_setup(0)
        assert check_identifiability_io(samples, 3).satisfied

    def test_zero_input_not_satisfied(self):
        rng = np.random.default_rng(1)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        b = rng.standard_normal((3, 2))
        c, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        model = HpdsModel(3, 3, truth, B=b, C=c)
        samples = simulate_discrete(model, 0.3 * rng.standard_normal(3),
                                    u=np.zeros((2, 30)), tau=0.05, steps=30)
        assert not check_identifiability_io(samples, 3).satisfied

    def test_k2_reduces_to_n_plus_m(self):
        _, samples, _, _ = io_setup(2, k=2)
        report = check_identifiability_io(samples, 2)
        assert report.required_rank == 3 + 2 and report.satisfied

    def test_l_below_n_rejected(self):
        rng = np.random.default_rng(3)
        samples = SampleSet(tau=0.1, X0=rng.standard_normal((3, 10)),
                            U0=rng.standard_normal((1, 10)),
                            Y0=rng.standard_normal((2, 10)))
        with pytest.raises(AssumptionError):
            check_identifiability_io(samples, 3)

    def test_non_finite_inputs_raise(self):
        _, samples, _, _ = io_setup(0)
        u0 = samples.U0.copy()
        u0[0, 3] = np.nan
        bad = SampleSet(tau=samples.tau, X0=samples.X0, U0=u0,
                        Y0=samples.Y0)
        with pytest.raises(NumericError):
            check_identifiability_io(bad, 3)

    def test_zero_outputs_report_unsatisfied(self):
        # rank(Y0) = 0 reconstructs no state, so the design is U0 alone
        _, samples, _, _ = io_setup(4)
        silent = replace(samples, Y0=np.zeros_like(samples.Y0))
        report = check_identifiability_io(silent, 3)
        assert not report.satisfied
        assert report.observed_rank == 2
        assert report.required_rank == required_rank(3, 3) + 2
        for identify in (identify_io, identify_io_noisy):
            with pytest.raises(IdentifiabilityError):
                identify(silent, 3)

    def test_missing_channels_rejected(self):
        s = SampleSet(tau=0.1, X0=np.zeros((2, 3)))
        with pytest.raises(ArgumentError):
            check_identifiability_io(s, 3)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(1, 3), k=st.integers(2, 4), m=st.integers(0, 2),
           extra=st.integers(-3, 4), seed=st.integers(0, 2 ** 16),
           data=st.sampled_from(["generic", "duplicated", "zero_inputs"]),
           tol=st.sampled_from([None, RankTolerance("absolute", 1e-9)]))
    def test_report_matches_the_svd_of_the_stack(self, n, k, m, extra, seed,
                                                 data, tol):
        # T - 1 = M + m + extra regression samples, below M + m for extra < 0
        required = required_rank(n, k) + m
        t_count = max(2, required + extra + 1)
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((n, t_count))
        if data == "duplicated":
            states[:, t_count // 2:] = states[:, :1]
        u0 = rng.standard_normal((m, t_count))
        if data == "zero_inputs":
            u0[:] = 0.0
        c, _ = np.linalg.qr(rng.standard_normal((n + 1, n)))
        samples = SampleSet(tau=0.1, U0=u0, Y0=c @ states)
        report = check_identifiability_io(samples, k, n, tol)
        assert report.required_rank == required
        y = compact_svd(samples.Y0, tol)
        if y.rank < n:
            assert not report.satisfied
            return
        # reference: the compact SVD of [W^{1/2} R; U0] over the states in
        # Y0's leading singular basis, built here one multiset at a time
        x0 = y.S[:n, None] * y.V[:, :n].T[:, :t_count - 1]
        rows = []
        for mset in itertools.combinations_with_replacement(range(n), k - 1):
            weight = math.factorial(k - 1)
            for j in set(mset):
                weight //= math.factorial(mset.count(j))
            rows.append(math.sqrt(weight) * np.prod(x0[list(mset)], axis=0))
        stack = np.vstack([np.array(rows), u0[:, :t_count - 1]])
        ref_tol = RankTolerance(
            value=max(n ** (k - 1) + m, t_count - 1) * np.finfo(float).eps) \
            if tol is None else tol
        ref = compact_svd(stack, ref_tol)
        assert report.observed_rank == ref.rank
        assert report.satisfied == (ref.rank == required)
        assert report.ill_conditioned == bool(
            ref.rank == required and ref.S[-1] < 1e3 * np.finfo(float).eps *
            ref.S[0])
        if ref.rank:
            assert abs(report.margin - ref.S[-1]) <= 1e-10 * ref.S[-1]
            assert abs(report.condition - ref.S[0] / ref.S[-1]) <= \
                1e-9 * report.condition
        else:
            assert report.margin == 0.0 and report.condition == math.inf


class TestIdentifyIo:
    def test_output_reproduction_on_held_out_steps(self):
        truth_model, samples, u, x0 = io_setup(4)
        fitted = identify_io(samples, 3)
        # continue past the training window with fresh inputs
        rng = np.random.default_rng(5)
        t_train = samples.Y0.shape[1]
        u_long = np.hstack([u, 0.1 * rng.standard_normal((2, 10))])
        reference = simulate_discrete(truth_model, x0, u=u_long, tau=0.05,
                                      steps=t_train + 10)
        z0 = fitted.C.T @ samples.Y0[:, 0]
        replay = simulate_discrete(fitted, z0, u=u_long, tau=0.05,
                                   steps=t_train + 10)
        assert np.max(np.abs(replay.Y0 - reference.Y0)) <= 1e-8

    def test_recovered_c_has_orthonormal_columns(self):
        _, samples, _, _ = io_setup(6)
        fitted = identify_io(samples, 3)
        assert np.max(np.abs(fitted.C.T @ fitted.C - np.eye(3))) <= 1e-10

    def test_recovered_tensor_almost_symmetric(self):
        _, samples, _, _ = io_setup(7)
        fitted = identify_io(samples, 3)
        assert tc.is_almost_symmetric(fitted.dynamics, 1e-8)

    def test_finite_difference_relation_reproduced(self):
        _, samples, _, _ = io_setup(8)
        fitted = identify_io(samples, 3)
        c, states = fitted.C, fitted.C.T @ samples.Y0
        t = states.shape[1]
        x0s, x1s = states[:, :t - 1], states[:, 1:]
        xhat = tc.khatri_rao_power(x0s, 2)
        a_k = tc.unfold(fitted.dynamics, {3})
        resid = x1s - x0s - samples.tau * a_k @ xhat \
            - fitted.B @ samples.U0[:, :t - 1]
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(x1s)

    def test_condition_failure_raises(self):
        rng = np.random.default_rng(9)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        model = HpdsModel(3, 3, truth, B=rng.standard_normal((3, 2)),
                          C=np.linalg.qr(rng.standard_normal((4, 3)))[0])
        samples = simulate_discrete(model, 0.2 * rng.standard_normal(3),
                                    u=np.zeros((2, 20)), tau=0.05, steps=20)
        with pytest.raises(IdentifiabilityError):
            identify_io(samples, 3)

    def test_m_zero_degenerates_to_finite_difference_autonomous(self):
        # with no inputs the io path is finite-difference autonomous
        # identification in the output basis
        rng = np.random.default_rng(13)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        c, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        model = HpdsModel(3, 3, truth, B=np.zeros((3, 0)), C=c)
        samples = simulate_discrete(model, 0.4 * rng.standard_normal(3),
                                    u=np.zeros((0, 24)), tau=0.05, steps=24)
        fitted = identify_io(samples, 3)
        assert fitted.B.shape == (3, 0)
        states = fitted.C.T @ samples.Y0
        x0s, x1s = states[:, :-1], states[:, 1:]
        xhat = tc.khatri_rao_power(x0s, 2)
        direct = (x1s - x0s) @ np.linalg.pinv(samples.tau * xhat)
        assert np.allclose(tc.unfold(fitted.dynamics, {3}), direct,
                           atol=1e-9)


def dissipative_io_setup(seed, n=3, k=4, m=2, l=4, t_factor=3, tau=0.05,
                         sigma=0.0, noise_seed=0):
    """Cubic system with a -x ||x||^2 drift so long trajectories stay
    bounded; random quadratic systems diverge over the horizons the
    consistency trends need."""
    rng = np.random.default_rng(seed)
    base = np.zeros((n,) * k)
    for i in range(n):
        for j in range(n):
            base[j, j, i, i] -= 1.0
    truth = tc.almost_symmetrize(base + 0.2 * rng.standard_normal((n,) * k))
    b = 0.4 * rng.standard_normal((n, m))
    c, _ = np.linalg.qr(rng.standard_normal((l, n)))
    model = HpdsModel(k, n, truth, B=b, C=c)
    t_count = t_factor * (required_rank(n, k) + m)
    u = 0.4 * rng.standard_normal((m, t_count))
    x0 = 0.4 * rng.standard_normal(n)
    samples = simulate_discrete(model, x0, u=u, tau=tau, steps=t_count)
    if sigma > 0:
        from hpdstensor.model import add_noise
        samples = add_noise(samples, sigma, seed=noise_seed)
    return model, samples


def procrustes_aligned_error(fitted, truth_model):
    """Parameter error after aligning the state bases through C."""
    m = fitted.C.T @ truth_model.C
    u, _, vt = np.linalg.svd(m)
    q = u @ vt  # fitted-state -> true-state rotation (orthogonal Procrustes)
    k = truth_model.k
    a_fit = tc.unfold(np.asarray(fitted.dynamics), {k})
    a_true = tc.unfold(np.asarray(truth_model.dynamics), {k})
    kron_q = q.T
    for _ in range(k - 2):
        kron_q = np.kron(kron_q, q.T)
    err_a = np.linalg.norm(q @ a_fit @ kron_q - a_true)
    err_b = np.linalg.norm(q @ fitted.B - truth_model.B)
    err_c = np.linalg.norm(fitted.C @ q.T - truth_model.C)
    return err_a + err_b + err_c


class TestIdentifyIoNoisy:
    def test_sigma_zero_coincides_with_exact_path(self):
        _, samples, _, _ = io_setup(10)
        exact = identify_io(samples, 3)
        noisy = identify_io_noisy(samples, 3)
        assert np.linalg.norm(noisy.dynamics - exact.dynamics) <= 1e-10
        assert np.linalg.norm(noisy.B - exact.B) <= 1e-10

    def test_error_monotone_in_noise_level(self):
        from hpdstensor.model import add_noise
        truth_model, clean = dissipative_io_setup(11, t_factor=6)
        small = identify_io_noisy(add_noise(clean, 1e-3, seed=3), 4)
        large = identify_io_noisy(add_noise(clean, 1e-2, seed=3), 4)
        err_small = procrustes_aligned_error(small, truth_model)
        err_large = procrustes_aligned_error(large, truth_model)
        assert err_small < err_large

    def test_error_shrinks_with_more_data(self):
        errs = {factor: [] for factor in (3, 12)}
        for seed in range(10):
            for factor in (3, 12):
                truth_model, samples = dissipative_io_setup(
                    200 + seed, t_factor=factor, sigma=1e-3, noise_seed=seed)
                fitted = identify_io_noisy(samples, 4)
                errs[factor].append(procrustes_aligned_error(fitted,
                                                             truth_model))
        assert np.median(errs[12]) < np.median(errs[3])

    def test_recovered_tensor_symmetrized(self):
        _, samples = dissipative_io_setup(12, sigma=1e-3, noise_seed=12)
        fitted = identify_io_noisy(samples, 4)
        assert tc.is_almost_symmetric(fitted.dynamics, 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lstsq_of_both_regressions(self, seed):
        _, samples = dissipative_io_setup(300 + seed, sigma=1e-3,
                                          noise_seed=seed)
        n, k = 3, 4
        fitted = identify_io_noisy(samples, k)
        # reference: numpy's least squares over the full Khatri-Rao power,
        # in the state basis of Y0's leading singular triplets
        y = compact_svd(samples.Y0)
        states = y.S[:n, None] * y.V[:, :n].T
        x0, x1 = states[:, :-1], states[:, 1:]
        u0 = samples.U0[:, :x0.shape[1]]
        design = np.vstack([samples.tau * tc.khatri_rao_power(x0, k - 1), u0])
        dynamics = np.linalg.lstsq(design.T, (x1 - x0).T, rcond=None)[0].T
        output = np.linalg.lstsq(x0.T, samples.Y0[:, :x0.shape[1]].T,
                                 rcond=None)[0].T
        for got, want in ((tc.unfold(fitted.dynamics, {k}),
                           dynamics[:, :n ** (k - 1)]),
                          (fitted.B, dynamics[:, n ** (k - 1):]),
                          (fitted.C, output)):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_output_map_below_rank_n_raises(self):
        # at an absolute threshold of 10 the monomials x1^2, x1 x2, x2^2 keep
        # rank 3 and Y0 rank 2, but the states X0 keep rank 1: the output
        # regression is refused rather than truncated
        states = np.array([[100.0, 100.0, -100.0, 100.0, -100.0, 100.0],
                           [1.0, -3.0, 2.0, 4.0, -1.0, 20.0]])
        c = np.array([[0.6, 0.0], [0.0, 1.0], [0.8, 0.0]])
        samples = SampleSet(tau=0.1, U0=np.zeros((0, 6)), Y0=c @ states)
        tol = RankTolerance("absolute", 10.0)
        assert check_identifiability_io(samples, 3, 2, tol).satisfied
        with pytest.raises(IdentifiabilityError) as err:
            identify_io_noisy(samples, 3, 2, tol)
        assert err.value.report.required_rank == 2
        assert err.value.report.observed_rank == 1


def io_form_samples(kind, seed):
    """Discrete io data of a cubic system (n=3, k=4, m=2): the noisy
    dissipative one, or exact data whose drift is rank one or zero, which a
    tolerance cuts to rank one, or to roundoff."""
    if kind == "noisy":
        return dissipative_io_setup(seed, sigma=1e-3, noise_seed=seed)[1]
    rng = np.random.default_rng(50 + seed)
    v, w = rng.standard_normal(3), rng.standard_normal(3)
    scale = 0.3 if kind == "rank_one" else 0.0
    truth = scale * tc.almost_symmetrize(np.einsum("i,j,k,l->ijkl",
                                                   v, v, v, w))
    model = HpdsModel(4, 3, truth, B=0.3 * rng.standard_normal((3, 2)),
                      C=np.linalg.qr(rng.standard_normal((4, 3)))[0])
    u = 0.1 * rng.standard_normal((2, 80))
    return simulate_discrete(model, 0.3 * rng.standard_normal(3), u=u,
                             tau=0.05, steps=80)


def format_ranks(dynamics):
    """Every rank of a train, or every node rank of a tree."""
    if isinstance(dynamics, TensorTrain):
        return tuple(dynamics.ranks)
    return {node.modes: dynamics.rank_of(node.modes)
            for node, _ in dynamics.tree.walk()}


class TestIoFitInEveryFormat:
    @pytest.mark.parametrize("form", ["tt", "ht"])
    def test_no_dense_route(self, form, monkeypatch):
        # the train and the tree are built from the fitted coefficients: no
        # dense decomposition, and no gather of the n^k tensor
        def refuse(*args, **kwargs):
            raise AssertionError("dense route taken")

        for name in ("tt_decompose", "htd_decompose", "_multiset_ranks"):
            monkeypatch.setattr(model_module, name, refuse)
        fitted = identify_io_noisy(io_form_samples("noisy", 0), 4, form=form)
        assert format_of(fitted.dynamics) == form

    @pytest.mark.parametrize("tol", [None, 1e-10, 1e-6])
    @pytest.mark.parametrize("kind,seed", [
        ("noisy", 0), ("noisy", 1), ("noisy", 2), ("rank_one", 0),
        ("rank_one", 1), ("rank_one", 3), ("zero_drift", 0),
        ("zero_drift", 1)])
    def test_ranks_and_tensor_of_the_full_fit_decomposed(self, kind, seed,
                                                         tol):
        samples = io_form_samples(kind, seed)
        tol = None if tol is None else RankTolerance("relative", tol)
        full = identify_io_noisy(samples, 4, tol=tol)
        for form, rebuild in (("tt", tt_reconstruct), ("ht", htd_reconstruct)):
            fitted = identify_io_noisy(samples, 4, tol=tol, form=form)
            want = FORMATS[form].from_dense(full.dynamics, tol)
            assert format_ranks(fitted.dynamics) == format_ranks(want)
            if kind == "rank_one" and tol is not None:
                assert FORMATS[form].max_rank(fitted.dynamics) == 1
            assert np.linalg.norm(rebuild(fitted.dynamics) - rebuild(want)) \
                <= 1e-12 * np.linalg.norm(full.dynamics)
            assert fitted.B.tobytes() == full.B.tobytes()
            assert fitted.C.tobytes() == full.C.tobytes()
