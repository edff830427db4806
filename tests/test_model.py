import numpy as np
import pytest
import scipy.linalg

from hpdstensor import tensor_core as tc
from hpdstensor.errors import ArgumentError, DivergenceError, ShapeError
from hpdstensor.hier_tucker import htd_decompose
from hpdstensor.model import (HpdsModel, SampleSet, add_noise,
                              eval_derivative, simulate_continuous,
                              simulate_discrete)
from hpdstensor.tensor_train import tt_decompose


def linear_model(a_matrix):
    # tensor laid out so its 2-mode matricization is the system matrix
    return HpdsModel(2, a_matrix.shape[0], a_matrix.T.copy())


class TestEvalDerivative:
    def test_k2_linear(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        assert np.allclose(eval_derivative(linear_model(a), x), a @ x)

    def test_origin_is_equilibrium(self):
        for k in (2, 3, 4):
            t = np.random.default_rng(k).standard_normal((2,) * k)
            model = HpdsModel(k, 2, t, B=np.ones((2, 1)))
            assert not np.any(eval_derivative(model, np.zeros(2), np.zeros(1)))

    def test_backends_agree(self):
        rng = np.random.default_rng(1)
        t = tc.almost_symmetrize(rng.standard_normal((3, 3, 3, 3)))
        models = [HpdsModel(4, 3, dyn) for dyn in
                  (t, tt_decompose(t), htd_decompose(t))]
        for _ in range(20):
            x = rng.standard_normal(3)
            outs = [eval_derivative(m, x) for m in models]
            assert np.allclose(outs[0], outs[1], atol=1e-9)
            assert np.allclose(outs[0], outs[2], atol=1e-9)

    def test_degree_homogeneity(self):
        rng = np.random.default_rng(2)
        for k in (2, 3, 4):
            t = rng.standard_normal((3,) * k)
            model = HpdsModel(k, 3, t)
            x = rng.standard_normal(3)
            c = rng.uniform(0.5, 2.0)
            lhs = eval_derivative(model, c * x)
            rhs = c ** (k - 1) * eval_derivative(model, x)
            assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_input_without_b_rejected(self):
        model = HpdsModel(3, 2, np.zeros((2, 2, 2)))
        with pytest.raises(ArgumentError):
            eval_derivative(model, np.ones(2), np.ones(1))


class TestSimulateContinuous:
    def test_zero_initial_state_stays_zero(self):
        model = HpdsModel(3, 2, np.random.default_rng(3).standard_normal((2, 2, 2)))
        s = simulate_continuous(model, np.zeros(2), tau=0.1, steps=10)
        assert not np.any(s.X0) and not np.any(s.X1)

    def test_rk4_matches_matrix_exponential(self):
        rng = np.random.default_rng(4)
        a = 0.5 * rng.standard_normal((3, 3))
        x0 = rng.standard_normal(3)
        s = simulate_continuous(linear_model(a), x0, tau=0.01, steps=101)
        expected = scipy.linalg.expm(a) @ x0
        assert np.max(np.abs(s.X0[:, 100] - expected)) <= 1e-6

    def test_halving_tau_shrinks_error_16x(self):
        rng = np.random.default_rng(5)
        a = 0.5 * rng.standard_normal((3, 3))
        x0 = rng.standard_normal(3)
        exact = scipy.linalg.expm(a) @ x0
        e = []
        for tau, steps in ((0.02, 51), (0.01, 101)):
            s = simulate_continuous(linear_model(a), x0, tau=tau, steps=steps)
            e.append(np.max(np.abs(s.X0[:, -1] - exact)))
        assert 8.0 <= e[0] / e[1] <= 32.0

    def test_derivative_column_is_exact_model_derivative(self):
        rng = np.random.default_rng(6)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        model = HpdsModel(3, 2, t)
        s = simulate_continuous(model, rng.standard_normal(2) * 0.2,
                                tau=0.05, steps=20)
        for i in range(20):
            assert np.allclose(s.X1[:, i], eval_derivative(model, s.X0[:, i]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blowup_reports_step(self):
        # dx/dt = x^2 with x0 = 5 blows up quickly under euler
        t = np.zeros((1, 1, 1))
        t[0, 0, 0] = 1.0
        model = HpdsModel(3, 1, t)
        with pytest.raises(DivergenceError) as err:
            simulate_continuous(model, np.array([5.0]), tau=10.0, steps=500,
                                method="euler")
        assert err.value.step > 0

    def test_unknown_method(self):
        model = HpdsModel(2, 2, np.zeros((2, 2)))
        with pytest.raises(ArgumentError):
            simulate_continuous(model, np.zeros(2), tau=0.1, steps=2,
                                method="heun")


class TestSimulateDiscrete:
    def test_zero_everything(self):
        model = HpdsModel(3, 2, np.zeros((2, 2, 2)), B=np.eye(2))
        s = simulate_discrete(model, np.zeros(2), u=np.zeros((2, 5)),
                              tau=0.1, steps=5)
        assert not np.any(s.X0) and not np.any(s.X1)

    def test_single_step_matches_map(self):
        rng = np.random.default_rng(7)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        b = rng.standard_normal((2, 1))
        model = HpdsModel(3, 2, t, B=b)
        x0 = rng.standard_normal(2) * 0.3
        u = rng.standard_normal((1, 1))
        s = simulate_discrete(model, x0, u=u, tau=0.1, steps=1)
        expected = x0 + 0.1 * tc.hpds_eval_full(t, x0) + b @ u[:, 0]
        assert np.allclose(s.X1[:, 0], expected)
        assert np.allclose(s.X0[:, 0], x0)

    def test_x1_is_shifted_states(self):
        rng = np.random.default_rng(8)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        model = HpdsModel(3, 2, t)
        s = simulate_discrete(model, rng.standard_normal(2) * 0.2,
                              tau=0.05, steps=10)
        assert s.x1_kind == "next_state"
        assert np.allclose(s.X1[:, :-1], s.X0[:, 1:])

    def test_outputs_follow_states(self):
        rng = np.random.default_rng(9)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        c = rng.standard_normal((3, 2))
        model = HpdsModel(3, 2, t, C=c)
        s = simulate_discrete(model, rng.standard_normal(2) * 0.2,
                              tau=0.05, steps=8)
        assert np.allclose(s.Y0, c @ s.X0)


class TestAddNoise:
    def make_samples(self):
        rng = np.random.default_rng(10)
        return SampleSet(tau=0.1, X0=rng.standard_normal((2, 50)),
                         X1=rng.standard_normal((2, 50)),
                         Y0=rng.standard_normal((3, 50)))

    def test_sigma_zero_is_identity(self):
        s = self.make_samples()
        noisy = add_noise(s, 0.0, seed=1)
        assert np.array_equal(noisy.X1, s.X1)
        assert np.array_equal(noisy.Y0, s.Y0)

    def test_same_seed_bit_identical(self):
        s = self.make_samples()
        a = add_noise(s, 1e-2, seed=42)
        b = add_noise(s, 1e-2, seed=42)
        assert np.array_equal(a.X1, b.X1) and np.array_equal(a.Y0, b.Y0)
        c = add_noise(s, 1e-2, seed=43)
        assert not np.array_equal(a.X1, c.X1)

    def test_states_untouched(self):
        s = self.make_samples()
        assert np.array_equal(add_noise(s, 1e-2, seed=0).X0, s.X0)

    def test_noise_statistics(self):
        # mean within 4 sigma / sqrt(N), variance near sigma^2
        s = SampleSet(tau=1.0, X1=np.zeros((10, 10_000)))
        sigma = 0.5
        noise = add_noise(s, sigma, seed=7).X1
        n_draws = noise.size
        assert abs(noise.mean()) <= 4 * sigma / np.sqrt(n_draws)
        assert abs(noise.std() - sigma) <= 0.01 * sigma


class TestSampleSet:
    def test_column_count_consistency(self):
        with pytest.raises(ShapeError):
            SampleSet(tau=0.1, X0=np.zeros((2, 5)), U0=np.zeros((1, 4)))

    def test_tau_positive(self):
        with pytest.raises(ArgumentError):
            SampleSet(tau=0.0, X0=np.zeros((2, 2)))
