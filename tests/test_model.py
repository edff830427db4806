import json
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpdstensor import model as model_module
from hpdstensor import serialize
from hpdstensor import tensor_core as tc
from hpdstensor.benchmarks import _random_tt, gen_instance
from hpdstensor.errors import ArgumentError, DivergenceError, ShapeError
from hpdstensor.hier_tucker import HTucker, htd_decompose, htd_reconstruct
from hpdstensor.model import (FORMATS, HpdsModel, SampleSet, add_noise,
                              eval_derivative, simulate_continuous,
                              simulate_discrete)
from hpdstensor.randomness import generator
from hpdstensor.sysid import (identify_full, identify_ht, identify_tt,
                              required_rank)
from hpdstensor.tensor_train import (TensorTrain, tt_decompose,
                                     tt_reconstruct, tt_zero)

from test_tensor_train import train_sum


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
        u = rng.standard_normal((1, 2))
        s = simulate_discrete(model, x0, u=u, tau=0.1, steps=2)
        expected = x0 + 0.1 * eval_derivative(model, x0) + b @ u[:, 0]
        assert np.allclose(s.X0[:, 1], expected)
        assert np.allclose(s.X0[:, 0], x0)

    def test_samples_carry_no_x1(self):
        # the next states are X0's later columns; the autonomous fit, which
        # needs derivatives, points discrete data to the io path
        rng = np.random.default_rng(8)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        model = HpdsModel(3, 2, t)
        s = simulate_discrete(model, rng.standard_normal(2) * 0.2,
                              tau=0.05, steps=10)
        assert s.X1 is None
        with pytest.raises(ArgumentError, match="io path"):
            identify_full(s, 3)

    def test_outputs_follow_states(self):
        rng = np.random.default_rng(9)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        c = rng.standard_normal((3, 2))
        model = HpdsModel(3, 2, t, C=c)
        s = simulate_discrete(model, rng.standard_normal(2) * 0.2,
                              tau=0.05, steps=8)
        assert np.allclose(s.Y0, c @ s.X0)


# Reference copy of the per-step loop simulation ran before the prepared
# evaluators: every derivative is an eval_derivative call that contracts
# the dynamics afresh (np.tensordot chains on dense tensors and trains, a
# recursive tree walk on an HTucker).  A tree node is (U_right kron U_left)
# G as two np.dot products, the left value by the transfer split r_left x
# (r_right r) and laid out C-contiguous (its layout decides the bits), then
# the right value by that, the left value's rows fastest.
def _node_value(h, node, values):
    if node.is_leaf:
        return values[node.modes[0]]
    left = _node_value(h, node.left, values)
    right = _node_value(h, node.right, values)
    g = np.asarray(h.transfer[node.modes], dtype=float)
    (a, r_l), (e, r_r), q = left.shape, right.shape, g.shape[1]
    g3 = np.ascontiguousarray(g.reshape(r_l, r_r, q, order="F"))
    half = np.dot(left, g3.reshape(r_l, r_r * q))
    if a > 1:
        half = half.reshape(a, r_r, q).transpose(1, 0, 2)
    return np.dot(right, half.reshape(r_r, a * q)).reshape(e * a, q)


def _reference_evaluate(dynamics, x):
    if isinstance(dynamics, TensorTrain):
        msg = np.ones(1)
        for core in dynamics.cores[:-1]:
            msg = msg @ np.tensordot(x, core, axes=(0, 1))
        return msg @ dynamics.cores[-1][:, :, 0]
    if isinstance(dynamics, HTucker):
        k = len(dynamics.dims)
        values = {p: x[None, :] @ np.asarray(dynamics.leaf_factors[p],
                                              dtype=float)
                  for p in range(1, k)}
        values[k] = np.asarray(dynamics.leaf_factors[k], dtype=float)
        return _node_value(dynamics, dynamics.tree.root, values).ravel()
    out = dynamics
    for _ in range(dynamics.ndim - 1):
        out = np.tensordot(x, out, axes=(0, 0))
    return out


def _reference_derivative(model, x, u=None):
    x = np.asarray(x, dtype=float).ravel()
    dx = _reference_evaluate(model.dynamics, x)
    if u is not None:
        dx = dx + model.B @ np.asarray(u, dtype=float).ravel()
    return dx


def _reference_continuous(model, x0, u, tau, steps, method):
    x = np.asarray(x0, dtype=float).ravel()
    states = np.zeros((model.n, steps))
    derivs = np.zeros((model.n, steps))
    for i in range(steps):
        ui = None if u is None else u[:, i]
        f = lambda z: _reference_derivative(model, z, ui)
        states[:, i] = x
        derivs[:, i] = f(x)
        if not np.all(np.isfinite(derivs[:, i])):
            raise DivergenceError(i)
        if i == steps - 1:
            break
        if method == "euler":
            x = x + tau * derivs[:, i]
        else:
            k1 = derivs[:, i]
            k2 = f(x + 0.5 * tau * k1)
            k3 = f(x + 0.5 * tau * k2)
            k4 = f(x + tau * k3)
            x = x + (tau / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(i + 1)
    return states, derivs


def _reference_discrete(model, x0, u, tau, steps):
    x = np.asarray(x0, dtype=float).ravel()
    states = np.zeros((model.n, steps))
    for i in range(steps):
        states[:, i] = x
        x = x + tau * _reference_derivative(model, x, None)
        if u is not None:
            x = x + model.B @ u[:, i]
        if not np.all(np.isfinite(x)):
            raise DivergenceError(i + 1)
    return states, model.C @ states


def _outcome(run):
    """The two sample matrices of a simulation, or the step it diverged at."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return run()
        except DivergenceError as exc:
            return exc.step


@settings(derandomize=True, deadline=None, max_examples=60)
@given(k=st.integers(2, 5), n=st.integers(2, 4),
       fmt=st.sampled_from(["full", "tt", "ht"]),
       scheme=st.sampled_from(["symmetric", "low_tt", "low_ht"]),
       with_input=st.booleans(), from_file=st.booleans(),
       scale=st.sampled_from([0.3, 3.0]), seed=st.integers(0, 2 ** 16))
def test_simulation_is_bitwise_the_per_step_loop(k, n, fmt, scheme,
                                                 with_input, from_file,
                                                 scale, seed):
    dynamics = gen_instance(scheme, n, k, rank_cap=2, seed=seed).forms()[fmt]
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, 2))
    x0 = scale * rng.uniform(-1, 1, n)
    u = rng.uniform(-1, 1, (2, 30)) if with_input else None
    model = HpdsModel(k, n, dynamics, B=b, C=rng.standard_normal((2, n)))
    if from_file:
        # arrays read back from a model file have their own memory layout
        text = serialize.dump_json(serialize.model_to_obj(model))
        model = serialize.model_from_obj(json.loads(text))
    steps, tau = 30, 0.05

    got = _outcome(lambda: simulate_discrete(model, x0, u, tau, steps))
    want = _outcome(lambda: _reference_discrete(model, x0, u, tau, steps))
    if isinstance(want, int):
        assert got == want
    else:
        assert np.array_equal(got.X0, want[0])
        assert np.array_equal(got.Y0, want[1])
    for method in ("rk4", "euler"):
        got = _outcome(lambda: simulate_continuous(model, x0, u, tau, steps,
                                                   method))
        want = _outcome(lambda: _reference_continuous(model, x0, u, tau,
                                                      steps, method))
        if isinstance(want, int):
            assert got == want, method
        else:
            assert np.array_equal(got.X0, want[0]), method
            assert np.array_equal(got.X1, want[1]), method


class TestPreparedEvaluator:
    @pytest.mark.parametrize("fmt", ["full", "tt", "ht"])
    def test_one_evaluator_per_simulation(self, fmt, monkeypatch):
        dynamics = gen_instance("symmetric", 3, 4, seed=1).forms()[fmt]
        model = HpdsModel(4, 3, dynamics, B=np.eye(3)[:, :1])
        prepared, derivatives = [], []
        entry = FORMATS[fmt]

        def evaluator(dyn):
            prepared.append(dyn)
            return entry.evaluator(dyn)

        def counting_derivative(*args, **kwargs):
            derivatives.append(args)
            return eval_derivative(*args, **kwargs)

        monkeypatch.setitem(FORMATS, fmt, replace(entry, evaluator=evaluator))
        monkeypatch.setattr(model_module, "eval_derivative",
                            counting_derivative)
        x0, u = 0.1 * np.ones(3), np.zeros((1, 20))
        for simulate in (
                lambda: simulate_discrete(model, x0, u, 0.01, 20),
                lambda: simulate_continuous(model, x0, u, 0.01, 20, "rk4"),
                lambda: simulate_continuous(model, x0, None, 0.01, 20,
                                            "euler")):
            prepared.clear()
            simulate()
            assert prepared == [model.dynamics]
        assert derivatives == []

    def test_input_checks_run_before_any_step(self, monkeypatch):
        model = HpdsModel(3, 2, np.zeros((2, 2, 2)), B=np.eye(2))
        monkeypatch.setitem(FORMATS, "full", replace(
            FORMATS["full"], evaluator=lambda dyn: pytest.fail("prepared")))
        for simulate in (simulate_discrete, simulate_continuous):
            with pytest.raises(ShapeError):
                simulate(model, np.zeros(2), u=np.zeros((3, 4)), steps=4)
            with pytest.raises(ShapeError):
                simulate(model, np.zeros(2), u=np.zeros((2, 3)), steps=4)
            with pytest.raises(ArgumentError):
                simulate(replace(model, B=None), np.zeros(2),
                         u=np.zeros((2, 4)), steps=4)

    def test_eval_derivative_checks_the_state_length(self):
        model = HpdsModel(3, 2, np.zeros((2, 2, 2)))
        with pytest.raises(ShapeError):
            eval_derivative(model, np.ones(3))


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

    @pytest.mark.parametrize("sigma", [-1e-3, float("nan"), float("inf")])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ArgumentError):
            add_noise(self.make_samples(), sigma, seed=0)

    def test_noise_statistics(self):
        # mean within 4 sigma / sqrt(N), variance near sigma^2
        s = SampleSet(tau=1.0, X1=np.zeros((10, 10_000)))
        sigma = 0.5
        noise = add_noise(s, sigma, seed=7).X1
        n_draws = noise.size
        assert abs(noise.mean()) <= 4 * sigma / np.sqrt(n_draws)
        assert abs(noise.std() - sigma) <= 0.01 * sigma


def test_generator_seeds_are_64_bit_unsigned():
    assert generator(2 ** 64 - 1).random() != generator(0).random()
    for seed in (-1, 2 ** 64):
        with pytest.raises(ArgumentError):
            generator(seed)


class TestSampleSet:
    def test_column_count_consistency(self):
        with pytest.raises(ShapeError):
            SampleSet(tau=0.1, X0=np.zeros((2, 5)), U0=np.zeros((1, 4)))

    def test_tau_positive(self):
        with pytest.raises(ArgumentError):
            SampleSet(tau=0.0, X0=np.zeros((2, 2)))


class TestFromCoefficients:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(1, 5), k=st.integers(2, 8),
           seed=st.integers(0, 2 ** 16))
    def test_forms_are_those_of_the_folded_tensor(self, n, k, seed):
        if n ** k > 20_000:
            n = 2
        tables = tc.multiset_tables(n, k - 1)
        coeffs = np.random.default_rng(seed).standard_normal(
            (n, tables[2][k - 1].size))
        dense = FORMATS["full"].from_coefficients(coeffs, tables, None)
        want = tc.fold(coeffs[:, tc._multiset_ranks(tables[1])], {k},
                       [n] * k)
        assert dense.shape == want.shape and dense.flags.c_contiguous
        assert dense.tobytes() == np.ascontiguousarray(want).tobytes()
        # decomposed from the coefficients at the dense unfoldings'
        # thresholds: the ranks of the dense decompositions
        train = FORMATS["tt"].from_coefficients(coeffs, tables, None)
        assert train.ranks == FORMATS["tt"].from_dense(dense, None).ranks
        tree = FORMATS["ht"].from_coefficients(coeffs, tables, None)
        dense_tree = FORMATS["ht"].from_dense(dense, None)
        for node, _ in tree.tree.walk():
            assert tree.rank_of(node.modes) == \
                dense_tree.rank_of(node.modes), node.modes
        norm = np.linalg.norm(dense)
        assert np.linalg.norm(tt_reconstruct(train) - dense) <= 1e-13 * norm
        assert np.linalg.norm(htd_reconstruct(tree) - dense) <= 1e-13 * norm

    def test_producers_take_no_dense_route(self, monkeypatch):
        # symmetric generation and autonomous identification build every
        # form from the coefficients, low_tt generation from its train: no
        # dense decomposition and no fold, under whatever module name they
        # are reached
        def refuse(*args, **kwargs):
            raise AssertionError("dense route taken")

        for module in [m for key, m in sys.modules.items()
                       if key.split(".")[0] == "hpdstensor"]:
            for name in ("tt_decompose", "htd_decompose", "fold"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        n, k = 3, 4
        low_tt = gen_instance("low_tt", n, k, rank_cap=2, seed=2)
        assert set(low_tt.forms()) == {"full", "tt", "ht"}
        inst = gen_instance("symmetric", n, k, seed=2)
        truth = HpdsModel(k, n, inst.dense)
        x0 = np.random.default_rng(2).standard_normal(
            (n, 2 * required_rank(n, k)))
        x1 = np.column_stack([eval_derivative(truth, x) for x in x0.T])
        samples = SampleSet(tau=0.1, X0=x0, X1=x1)
        norm = np.linalg.norm(inst.dense)
        for identify, rebuild in ((identify_full, np.asarray),
                                  (identify_tt, tt_reconstruct),
                                  (identify_ht, htd_reconstruct)):
            got = rebuild(identify(samples, k).dynamics)
            assert np.linalg.norm(got - inst.dense) <= 1e-10 * norm


def over_ranked_train(n, k, cap, seed):
    """A random train whose interior ranks n * cap + 1 exceed n^p at both
    ends, which rounding must cut."""
    rng = np.random.default_rng(seed)
    ranks = [1] + [n * cap + 1] * (k - 1) + [1]
    return TensorTrain(tuple(rng.uniform(-1, 1, (ranks[p], n, ranks[p + 1]))
                             for p in range(k)))


class TestFromTrain:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(n=st.integers(1, 6), k=st.integers(2, 8), cap=st.integers(1, 6),
           kind=st.sampled_from(("low_tt", "over_ranked", "zero")),
           seed=st.integers(0, 2 ** 16))
    # over-ranked at odd k: the tree node over the first half holds more
    # modes than its complement, so its rank is cut below the train's
    @example(n=3, k=3, cap=3, kind="over_ranked", seed=3)
    @example(n=2, k=5, cap=2, kind="over_ranked", seed=0)
    def test_forms_are_those_of_the_reconstructed_tensor(self, n, k, cap,
                                                         kind, seed):
        if n ** k > 20_000:
            n = 2
        train = {"low_tt": lambda: _random_tt(n, k, cap, seed),
                 "over_ranked": lambda: over_ranked_train(n, k, cap, seed),
                 "zero": lambda: tt_zero((n,) * k)}[kind]()
        dense = FORMATS["full"].from_train(train)
        assert dense.tobytes() == tt_reconstruct(train).tobytes()
        if kind == "low_tt":
            inst = gen_instance("low_tt", n, k, rank_cap=cap, seed=seed)
            assert inst.dense.tobytes() == dense.tobytes()
        # rounded and converted at the dense unfoldings' thresholds: the
        # ranks of the dense decompositions
        rounded = FORMATS["tt"].from_train(train)
        assert rounded.ranks == FORMATS["tt"].from_dense(dense, None).ranks
        tree = FORMATS["ht"].from_train(train)
        dense_tree = FORMATS["ht"].from_dense(dense, None)
        for node, _ in tree.tree.walk():
            assert tree.rank_of(node.modes) == \
                dense_tree.rank_of(node.modes), node.modes
        norm = np.linalg.norm(dense)
        assert np.linalg.norm(tt_reconstruct(rounded) - dense) <= 1e-13 * norm
        assert np.linalg.norm(htd_reconstruct(tree) - dense) <= 1e-13 * norm

    @pytest.mark.parametrize("n,k", [(4, 6), (3, 8), (5, 5)])
    def test_thresholds_are_those_of_the_dense_unfoldings(self, n, k):
        # a rank-1 part at 3e-14 of the rank-2 one: its singular values lie
        # below the default threshold at the dense unfoldings' shapes but
        # above it at the shapes of the small matrices factored
        train = train_sum(_random_tt(n, k, 2, 1), _random_tt(n, k, 1, 2),
                          3e-14)
        dense = tt_reconstruct(train)
        want = FORMATS["tt"].from_dense(dense, None).ranks
        assert max(want) == 2
        assert FORMATS["tt"].from_train(train).ranks == want
        tree = FORMATS["ht"].from_train(train)
        dense_tree = FORMATS["ht"].from_dense(dense, None)
        for node, _ in tree.tree.walk():
            assert tree.rank_of(node.modes) == \
                dense_tree.rank_of(node.modes), node.modes
