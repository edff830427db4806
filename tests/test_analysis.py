from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdstensor import tensor_core as tc
from hpdstensor.analysis import (_contraction, _lie_gradients,
                                 controllability_full, controllability_ht,
                                 controllability_tt, gradient_sum,
                                 lift_operator, observability_at_probes,
                                 observability_full, observability_ht,
                                 observability_tt)
from hpdstensor.benchmarks import gen_instance
from hpdstensor.errors import ArgumentError, ScaleError, ShapeError
from hpdstensor.hier_tucker import htd_decompose
from hpdstensor.kernels import compact_svd, numerical_rank, subspace_equal
from hpdstensor.tensor_train import tt_decompose


def linear_tensor(a_matrix):
    """Order-2 tensor whose 2-mode matricization is the given matrix."""
    return a_matrix.T.copy()


def kalman_controllability_basis(a, b):
    n = a.shape[0]
    blocks = [np.linalg.matrix_power(a, i) @ b for i in range(n)]
    return compact_svd(np.hstack(blocks)).U


def kalman_observability(a, c):
    n = a.shape[1]
    return np.vstack([c @ np.linalg.matrix_power(a, i) for i in range(n)])


def representations(tensor):
    return {"full": tensor, "tt": tt_decompose(tensor),
            "ht": htd_decompose(tensor)}


def production_blocks(dynamics, c, x, depth):
    n, k, contract = _contraction(dynamics)
    return _lie_gradients(n, k, contract, c, x, depth)


def reference_blocks(tensor, c, x, depth):
    """C A_(k) F_2 ... F_j gradient_sum(x, m_j), the paper's formula."""
    k = tensor.ndim
    a_k = tc.unfold(tensor, {k})
    blocks, prefix = [c], a_k
    for j in range(1, depth + 1):
        if j >= 2:
            prefix = prefix @ lift_operator(a_k, j, k)
        blocks.append(c @ prefix @ gradient_sum(x, j * k - 2 * j + 1))
    return blocks


class TestControllabilityFull:
    def test_identity_input_immediately_full(self):
        rng = np.random.default_rng(0)
        t = tc.almost_symmetrize(rng.standard_normal((3, 3, 3, 3)))
        res = controllability_full(t, np.eye(3))
        assert res.rank == 3
        assert res.verdict == "strongly_controllable"  # k = 4 is even
        assert res.iterations == 0

    def test_zero_dynamics_single_input(self):
        res = controllability_full(np.zeros((3, 3, 3, 3)), np.eye(3)[:, :1])
        assert res.rank == 1
        assert res.verdict == "not_controllable"

    def test_odd_k_uses_accessibility_vocabulary(self):
        rng = np.random.default_rng(1)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        res = controllability_full(t, np.eye(2))
        assert res.verdict in ("accessible", "not_accessible")

    def test_k2_kalman_reduction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 3))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, m))
            res = controllability_full(linear_tensor(a), b)
            kal = kalman_controllability_basis(a, b)
            assert res.rank == kal.shape[1]
            assert subspace_equal(res.basis, kal, 1e-10)

    def test_uncontrollable_linear_pair(self):
        # block-diagonal system driven only in the first block
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([[1.0], [1.0], [0.0]])
        res = controllability_full(linear_tensor(a), b)
        assert res.rank == 2
        assert res.verdict == "not_controllable"

    def test_basis_invariant_under_input_recombination(self):
        rng = np.random.default_rng(3)
        t = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        b = rng.standard_normal((3, 2))
        base = controllability_full(t, b)
        for _ in range(10):
            q = rng.standard_normal((2, 2))
            while abs(np.linalg.det(q)) < 1e-2:
                q = rng.standard_normal((2, 2))
            res = controllability_full(t, b @ q)
            assert res.rank == base.rank

    def test_stagnation_is_fixed_point(self):
        # once an iteration adds no rank, candidates stay inside the span
        rng = np.random.default_rng(4)
        a = np.diag([1.0, 2.0, 3.0])
        b = np.array([[1.0], [1.0], [0.0]])
        res = controllability_full(linear_tensor(a), b)
        cols = [res.basis[:, j] for j in range(res.rank)]
        for v in cols:
            extra = tc.contract_leading(linear_tensor(a), [v])
            resid = extra - res.basis @ (res.basis.T @ extra)
            assert np.max(np.abs(resid)) <= 1e-10

    def test_order_ten_symmetry_check_has_no_gate(self):
        inst = gen_instance("symmetric", 3, 10)
        b = np.random.default_rng(5).standard_normal((3, 1))
        full = controllability_full(inst.dense, b)
        assert full.rank == 3 == controllability_tt(inst.tt, b).rank
        assert controllability_ht(inst.ht, b).rank == 3

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            controllability_full(np.zeros((2, 3, 2)), np.zeros((2, 1)))
        with pytest.raises(ShapeError):
            controllability_full(np.zeros((2, 2, 2)), np.zeros((3, 1)))


class TestControllabilityDecomposed:
    @pytest.mark.parametrize("seed", range(5))
    def test_three_way_agreement(self, seed):
        rng = np.random.default_rng(100 + seed)
        t = tc.almost_symmetrize(rng.standard_normal((4, 4, 4, 4)))
        b = rng.standard_normal((4, 2))
        full = controllability_full(t, b)
        tt_res = controllability_tt(tt_decompose(t), b)
        ht_res = controllability_ht(htd_decompose(t), b)
        assert full.rank == tt_res.rank == ht_res.rank
        assert subspace_equal(full.basis, tt_res.basis, 1e-8)
        assert subspace_equal(full.basis, ht_res.basis, 1e-8)

    def test_zero_b(self):
        t = tc.almost_symmetrize(np.random.default_rng(5).standard_normal((3, 3, 3)))
        assert controllability_tt(tt_decompose(t), np.zeros((3, 2))).rank == 0
        assert controllability_ht(htd_decompose(t), np.zeros((3, 2))).rank == 0

    def test_identity_b_no_growth_iterations(self):
        t = tc.almost_symmetrize(np.random.default_rng(6).standard_normal((3, 3, 3)))
        res = controllability_ht(htd_decompose(t), np.eye(3))
        assert res.rank == 3 and res.iterations == 0

    def test_k2_kalman_reduction_decomposed(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 1))
        kal = kalman_controllability_basis(a, b)
        for res in (controllability_tt(tt_decompose(linear_tensor(a)), b),
                    controllability_ht(htd_decompose(linear_tensor(a)), b)):
            assert res.rank == kal.shape[1]
            assert subspace_equal(res.basis, kal, 1e-9)


class TestGradientSum:
    def test_m1_is_identity(self):
        assert np.array_equal(gradient_sum(np.array([1.0, 2.0]), 1), np.eye(2))

    def test_m2_symbolic_expansion(self):
        a, b = 1.3, -0.4
        x = np.array([a, b])
        eye = np.eye(2)
        expected = np.kron(x.reshape(-1, 1), eye) + np.kron(eye, x.reshape(-1, 1))
        assert np.allclose(gradient_sum(x, 2), expected)

    def test_matches_finite_difference_jacobian(self):
        rng = np.random.default_rng(8)
        n, k = 3, 4
        t = rng.standard_normal((n,) * k)
        a_k = tc.unfold(t, {k})
        x = rng.standard_normal(n)
        h = 1e-5
        jac = np.zeros((n, n))
        for c in range(n):
            e = np.zeros(n)
            e[c] = h
            jac[:, c] = (tc.hpds_eval_full(t, x + e) -
                         tc.hpds_eval_full(t, x - e)) / (2 * h)
        assert np.max(np.abs(a_k @ gradient_sum(x, k - 1) - jac)) <= 1e-6

    def test_bad_power(self):
        with pytest.raises(ArgumentError):
            gradient_sum(np.ones(2), 0)


class TestLiftOperator:
    def test_k2_single_summand(self):
        a = np.random.default_rng(9).standard_normal((3, 3))
        assert np.allclose(lift_operator(a, 2, 2), a)
        assert np.allclose(lift_operator(a, 3, 2), a)

    def test_j2_k3_two_term_sum(self):
        a = np.random.default_rng(10).standard_normal((2, 4))
        f2 = lift_operator(a, 2, 3)
        expected = np.kron(a, np.eye(2)) + np.kron(np.eye(2), a)
        assert f2.shape == (4, 8)
        assert np.allclose(f2, expected)

    def test_second_lie_derivative_against_finite_differences(self):
        rng = np.random.default_rng(11)
        n, k = 2, 3
        t = tc.almost_symmetrize(rng.standard_normal((n,) * k))
        a_k = tc.unfold(t, {k})
        c = rng.standard_normal((1, n))
        x = rng.standard_normal(n)
        f2 = lift_operator(a_k, 2, k)
        analytic = c @ a_k @ f2 @ gradient_sum(x, 2 * k - 3)

        def fvec(z):
            return tc.hpds_eval_full(t, z)

        def lie1(z):  # d/dt of C x along the flow
            return (c @ fvec(z)).ravel()

        def lie2(z):  # gradient of lie1 dotted with f
            h = 1e-5
            grad = np.zeros((c.shape[0], n))
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                grad[:, i] = (lie1(z + e) - lie1(z - e)) / (2 * h)
            return (grad @ fvec(z)).ravel()

        h = 1e-5
        numeric = np.zeros((1, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            numeric[:, i] = (lie2(x + e) - lie2(x - e)) / (2 * h)
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(numeric - analytic)) / scale <= 1e-5

    def test_j_below_two_rejected(self):
        with pytest.raises(ArgumentError):
            lift_operator(np.ones((2, 4)), 1, 3)

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            lift_operator(np.ones((10, 1000)), 3, 4)


class TestObservabilityFull:
    def test_identity_output_full_rank(self):
        t = tc.almost_symmetrize(np.random.default_rng(12).standard_normal((3, 3, 3)))
        res = observability_full(t, np.eye(3), np.ones(3), depth=2)
        assert res.verdict and res.matrix_rank == 3

    def test_zero_output_rank_zero(self):
        t = np.random.default_rng(13).standard_normal((3, 3, 3))
        res = observability_full(t, np.zeros((2, 3)), np.ones(3), depth=1)
        assert res.matrix_rank == 0 and not res.verdict

    def test_k2_kalman_reduction(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 4))
        c = rng.standard_normal((1, 4))
        res = observability_full(linear_tensor(a), c, np.zeros(4), depth=3)
        kal = kalman_observability(a, c)
        assert res.matrix_rank == numerical_rank(kal)
        # row spaces agree as subspaces
        ours = compact_svd(np.vstack(
            [c] + [c @ a @ np.linalg.matrix_power(a, i) for i in range(3)]).T).U
        assert subspace_equal(compact_svd(kal.T).U, ours, 1e-10)

    def test_depth_validation(self):
        t = np.zeros((2, 2, 2))
        with pytest.raises(ArgumentError):
            observability_full(t, np.eye(2), np.ones(2), depth=5)


def _block_case(n, k, symmetric, seed):
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal((n,) * k)
    if symmetric:
        tensor = tc.almost_symmetrize(tensor)
    return tensor, rng.standard_normal((2, n)), rng.standard_normal(n)


class TestLieGradientBlocks:
    @pytest.mark.parametrize("n,k,depth", [
        (2, 2, 1), (4, 2, 3), (2, 3, 1), (3, 3, 2), (4, 3, 3),
        (2, 4, 1), (3, 4, 2), (4, 4, 2)])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_blocks_match_lift_reference(self, n, k, depth, symmetric):
        tensor, c, x = _block_case(n, k, symmetric, 10 * n + k)
        expected = reference_blocks(tensor, c, x, depth)
        for name, dyn in representations(tensor).items():
            got = production_blocks(dyn, c, x, depth)
            assert len(got) == depth + 1
            for j, (g, e) in enumerate(zip(got, expected)):
                err = np.max(np.abs(g - e)) / np.max(np.abs(e))
                assert err <= 1e-12, (name, j, err)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_zero_state(self, k):
        # at x = 0 only the linear part of the flow survives: for k > 2
        # every block beyond C vanishes
        tensor, c, _ = _block_case(3, k, False, 30 + k)
        expected = reference_blocks(tensor, c, np.zeros(3), 2)
        for dyn in representations(tensor).values():
            got = production_blocks(dyn, c, np.zeros(3), 2)
            for g, e in zip(got, expected):
                assert np.allclose(g, e, rtol=0, atol=1e-12)
                if k > 2 and g is not c:
                    assert not np.any(g)

    def test_depth_two_against_nested_finite_differences(self):
        n, k = 3, 3
        tensor, c, x = _block_case(n, k, False, 40)
        c = c[:1]
        h = 1e-4

        def grad(fun, z):
            out = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                out[i] = (fun(z + e) - fun(z - e)) / (2 * h)
            return out

        def lie1(z):
            return float(c[0] @ tc.hpds_eval_full(tensor, z))

        def lie2(z):
            return float(grad(lie1, z) @ tc.hpds_eval_full(tensor, z))

        numeric = grad(lie2, x)
        for dyn in representations(tensor).values():
            block2 = production_blocks(dyn, c, x, 2)[2].ravel()
            assert np.max(np.abs(block2 - numeric)) <= \
                1e-6 * max(1.0, np.max(np.abs(numeric)))

    def test_default_depth_is_n_minus_one_in_every_representation(self):
        inst = gen_instance("symmetric", 7, 3)
        rng = np.random.default_rng(41)
        c, x = rng.random((1, 7)) * 2 - 1, rng.random(7) * 2 - 1
        results = [observe(dyn, c, x) for observe, dyn in (
            (observability_full, inst.dense), (observability_tt, inst.tt),
            (observability_ht, inst.ht))]
        assert {r.depth for r in results} == {6}
        assert {r.matrix_rank for r in results} == {7}


def _unobservable_last_state(tensor, c):
    """Make x_n invisible: C ignores it and it never feeds x_1..x_{n-1}."""
    n, k = tensor.shape[0], tensor.ndim
    tensor = tensor.copy()
    for s in range(k - 1):
        index = [slice(None)] * k
        index[s], index[-1] = n - 1, slice(0, n - 1)
        tensor[tuple(index)] = 0.0
    c = c.copy()
    c[:, -1] = 0.0
    return tensor, c


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.integers(2, 4), k=st.integers(2, 4), rows=st.integers(1, 2),
       scheme=st.sampled_from(["generic", "symmetric", "unobservable"]),
       seed=st.integers(0, 2 ** 16))
def test_observability_agrees_across_representations(n, k, rows, scheme, seed):
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal((n,) * k)
    c = rng.standard_normal((rows, n))
    x = rng.standard_normal(n)
    if scheme == "symmetric":
        tensor = tc.almost_symmetrize(tensor)
    elif scheme == "unobservable":
        tensor, c = _unobservable_last_state(tensor, c)
    results = [observability_full(tensor, c, x),
               observability_tt(tt_decompose(tensor), c, x),
               observability_ht(htd_decompose(tensor), c, x)]
    assert len({(r.matrix_rank, r.verdict, r.depth) for r in results}) == 1
    if scheme == "unobservable":
        assert results[0].matrix_rank < n and not results[0].verdict


class TestObservabilityDecomposed:
    def test_three_way_rank_agreement(self):
        rng = np.random.default_rng(16)
        t = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        c = rng.standard_normal((2, 3))
        train, tree = tt_decompose(t), htd_decompose(t)
        for _ in range(10):
            x = rng.standard_normal(3)
            rf = observability_full(t, c, x, depth=2)
            rt = observability_tt(train, c, x, depth=2)
            rh = observability_ht(tree, c, x, depth=2)
            assert rf.matrix_rank == rt.matrix_rank == rh.matrix_rank

    def test_identity_c(self):
        t = tc.almost_symmetrize(np.random.default_rng(17).standard_normal((3, 3, 3)))
        res = observability_tt(tt_decompose(t), np.eye(3),
                               np.random.default_rng(18).standard_normal(3),
                               depth=2)
        assert res.verdict

    def test_k2_kalman_reduction(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((3, 3))
        c = rng.standard_normal((1, 3))
        kal_rank = numerical_rank(kalman_observability(a, c))
        t = linear_tensor(a)
        assert observability_tt(tt_decompose(t), c, np.zeros(3),
                                depth=2).matrix_rank == kal_rank
        assert observability_ht(htd_decompose(t), c, np.zeros(3),
                                depth=2).matrix_rank == kal_rank

    def test_deficient_c_with_zero_dynamics(self):
        t = np.zeros((3, 3, 3))
        c = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        res = observability_ht(htd_decompose(t), c, np.ones(3), depth=2)
        assert res.matrix_rank == 1 and not res.verdict


class TestProbePolicy:
    def test_any_full_rank_probe_settles_verdict(self):
        t = tc.almost_symmetrize(np.random.default_rng(20).standard_normal((3, 3, 3)))
        c = np.random.default_rng(21).standard_normal((3, 3))
        observe = partial(observability_full, t, c, depth=2)
        res = observability_at_probes(lambda x: observe(x=x),
                                      [np.zeros(3), np.ones(3)])
        assert res.verdict
        assert len(res.probe_states) <= 2

    def test_all_probes_recorded_on_failure(self):
        t = np.zeros((3, 3, 3))
        c = np.zeros((1, 3))
        observe = partial(observability_full, t, c, depth=1)
        probes = [np.ones(3) * i for i in range(4)]
        res = observability_at_probes(lambda x: observe(x=x), probes)
        assert not res.verdict and len(res.probe_states) == 4
