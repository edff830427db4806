import itertools
import math

import numpy as np
import pytest

from hpdstensor import sysid
from hpdstensor import tensor_core as tc
from hpdstensor.errors import (ArgumentError, AssumptionError,
                               IdentifiabilityError)
from hpdstensor.hier_tucker import htd_reconstruct
from hpdstensor.kernels import compact_svd, pinv
from hpdstensor.model import HpdsModel, SampleSet, eval_derivative, \
    simulate_discrete
from hpdstensor.sysid import (check_identifiability_autonomous,
                              check_identifiability_io, identify_full,
                              identify_ht, identify_io, identify_io_noisy,
                              identify_tt, required_rank)
from hpdstensor.tensor_train import tt_reconstruct


def exact_autonomous_samples(tensor, t_count, seed, scale=1.0):
    n = tensor.shape[0]
    rng = np.random.default_rng(seed)
    x0 = scale * rng.standard_normal((n, t_count))
    x1 = np.column_stack([tc.hpds_eval_full(tensor, x0[:, i])
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
        assert np.allclose(tc.unfold(model.dynamics, {2}), s.X1 @ pinv(s.X0),
                           atol=1e-10)

    def test_one_svd_of_the_khatri_rao_power(self, monkeypatch):
        shapes = []

        def counting_svd(matrix, tol=None):
            shapes.append(np.shape(matrix))
            return compact_svd(matrix, tol)

        monkeypatch.setattr(sysid, "compact_svd", counting_svd)
        rng = np.random.default_rng(8)
        truth = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        s = exact_autonomous_samples(truth, 12, 9)
        model = identify_full(s, 3)
        assert shapes == [(9, 12)]
        assert np.allclose(model.dynamics, truth, atol=1e-8)
        unfolding = s.X1 @ pinv(tc.khatri_rao_power(s.X0, 2))
        assert np.array_equal(tc.unfold(model.dynamics, {3}), unfolding)

    def test_condition_failure_raises_with_report(self):
        rng = np.random.default_rng(7)
        s = SampleSet(tau=0.1, X0=rng.standard_normal((3, 4)),
                      X1=rng.standard_normal((3, 4)))
        with pytest.raises(IdentifiabilityError) as err:
            identify_full(s, 3)
        assert err.value.report.observed_rank < err.value.report.required_rank

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

    def test_tt_rank_one_dynamics(self):
        v = np.array([0.6, 0.8, 0.0])
        truth = np.einsum("i,j,k->ijk", v, v, v)
        s = exact_autonomous_samples(truth, 12, 14)
        tt_model = identify_tt(s, 3)
        assert max(tt_model.dynamics.ranks) == 1

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

    def test_missing_channels_rejected(self):
        s = SampleSet(tau=0.1, X0=np.zeros((2, 3)))
        with pytest.raises(ArgumentError):
            check_identifiability_io(s, 3)


class TestIdentifyIo:
    def test_output_reproduction_on_held_out_steps(self):
        truth_model, samples, u, x0 = io_setup(4)
        fitted = identify_io(samples, 3)
        # continue past the training window with fresh inputs
        rng = np.random.default_rng(5)
        t_train = samples.samples
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
        direct = (x1s - x0s) @ pinv(samples.tau * xhat)
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
