"""Tests of the benchmark's own oracles.

The oracles must be right on their own, not by agreeing with the package:
each is checked against a second computation from the definitions (Kalman
matrices at k = 2, brute-force loops, finite differences, a numerical
integration).  The package is used here only to build inputs.
"""

import itertools

import numpy as np
import pytest

import oracles
from hpdstensor import serialize
from hpdstensor.hier_tucker import htd_decompose
from hpdstensor.model import HpdsModel
from hpdstensor.tensor_train import tt_decompose


def uniform(seed, shape):
    return np.random.default_rng(seed).random(shape) * 2 - 1


def test_rank_at_gap_decides_only_at_a_clear_gap():
    u, _ = np.linalg.qr(uniform(1, (6, 6)))
    clear = u @ np.diag([1.0, 0.5, 1e-3, 1e-15, 0, 0]) @ u.T
    rank, basis = oracles.rank_at_gap(clear)
    assert rank == 3 and basis.shape == (6, 3)
    with pytest.raises(oracles.OracleError):
        oracles.rank_at_gap(u @ np.diag([1.0, 0.5, 1e-10, 0, 0, 0]) @ u.T)
    assert oracles.rank_at_gap(np.zeros((3, 2)))[0] == 0


@pytest.mark.parametrize("seed", range(6))
def test_reachable_k2_is_the_kalman_span(seed):
    n, m = 2 + seed % 4, 1 + seed % 2
    a, b = uniform(seed, (n, n)), uniform(seed + 50, (n, m))
    kalman = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
    rank, basis = oracles.reachable_dense(a.T, b)
    k_rank, k_basis = oracles.rank_at_gap(kalman)
    assert rank == k_rank
    assert oracles.principal_sine(basis, k_basis) < 1e-10


def test_reachable_k2_uncontrollable_pair():
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    b = np.array([[1.0], [1.0], [0.0], [0.0]])
    rank, basis = oracles.reachable_dense(a.T, b)
    assert rank == 2
    assert np.allclose(basis[2:], 0)


def test_reachable_dense_matches_a_brute_force_loop():
    """Non-symmetric tensor: ordered tuples, by an explicit loop."""
    n, k = 4, 4
    core = uniform(3, (n, 2))
    tensor = np.einsum("ia,jb,lc,ma->ijlm", core, core[:, ::-1], core,
                       uniform(4, (n, 2)))
    b = uniform(5, (n, 1))
    rank, basis = oracles.rank_at_gap(b)
    while True:
        cols = [basis[:, j] for j in range(rank)]
        new = [oracles.contract_dense(tensor, list(sel))
               for sel in itertools.product(cols, repeat=k - 1)]
        new_rank, new_basis = oracles.rank_at_gap(
            np.column_stack([basis] + new))
        if new_rank == rank:
            break
        rank, basis = new_rank, new_basis
    got_rank, got_basis = oracles.reachable_dense(tensor, b)
    assert got_rank == rank < n
    assert oracles.principal_sine(got_basis, basis) < 1e-10


def test_train_and_tree_contractions_match_the_dense_tensor():
    n, k = 3, 5
    tensor = uniform(7, (n,) * k)
    args = [uniform(8 + p, n) for p in range(k - 1)]
    want = oracles.contract_dense(tensor, args)
    train = tt_decompose(tensor)
    tree = htd_decompose(tensor)
    assert np.allclose(oracles.contract_train(train.cores, args), want)
    assert np.allclose(oracles.contract_tree(
        tree.tree.root, tree.leaf_factors, tree.transfer, args), want)
    assert np.allclose(oracles.dense_from_train(train.cores), tensor)
    assert np.allclose(oracles.dense_from_tree(
        tree.tree.root, tree.leaf_factors, tree.transfer, [n] * k), tensor)


def test_reachable_sampled_finds_n_or_stops_at_the_closure():
    n, k = 5, 4
    generic = oracles.TrainContraction(
        tt_decompose(uniform(9, (n,) * k)).cores)
    b = uniform(10, (n, 1))
    assert oracles.reachable_sampled(generic, n, b, seed=0) == n
    # output mode of rank 1: every contraction is a multiple of u
    u, w = uniform(11, n), uniform(12, (n,) * (k - 1))
    degenerate = oracles.TrainContraction(
        tt_decompose(np.multiply.outer(w, u)).cores)
    assert oracles.reachable_sampled(degenerate, n, b, seed=0) == 2


@pytest.mark.parametrize("seed", range(4))
def test_observability_k2_is_the_kalman_matrix(seed):
    n = 2 + seed
    a, c, x = uniform(seed, (n, n)), uniform(seed + 20, (1, n)), \
        uniform(seed + 40, n)
    blocks = oracles.lie_gradients(a.T, c, x, n - 1)
    for j, block in enumerate(blocks):
        assert np.allclose(block, c @ np.linalg.matrix_power(a, j))
    kalman = np.vstack(blocks)
    assert oracles.observability_rank(a.T, c, x) == \
        oracles.rank_at_gap(kalman.T)[0] == n


def test_observability_k2_unobservable_pair():
    a = np.diag([1.0, 2.0, 3.0])
    c = np.array([[1.0, 1.0, 0.0]])
    assert oracles.observability_rank(a.T, c, np.ones(3)) == 2


def test_lie_gradients_match_finite_differences():
    """J_j = dx_j/dx_0 against central differences of the Taylor
    coefficients x_j(x_0), read off block j = j! C J_j with C = I."""
    n, k, depth, h = 3, 3, 3, 1e-6
    tensor = uniform(13, (n,) * k)
    x = uniform(14, n)
    blocks = oracles.lie_gradients(tensor, np.eye(n), x, depth)

    def coefficients(x0):
        taylor = oracles.lie_gradients(tensor, np.eye(n), x0, depth)
        # recover x_j from the Jacobian identity of a homogeneous map:
        # x_j is homogeneous of degree j(k-2)+1 in x_0 (Euler's theorem)
        return [blk @ x0 / (j * (k - 2) + 1) for j, blk in enumerate(taylor)]

    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        plus, minus = coefficients(x + step), coefficients(x - step)
        for j in range(depth + 1):
            fd = (plus[j] - minus[j]) / (2 * h)
            assert np.allclose(fd, blocks[j][:, i], rtol=1e-5, atol=1e-7)


def test_taylor_series_matches_an_integration():
    """sum_j x_j t^j, with x_j = block_j x_0 / (j! (j(k-2)+1)), follows a
    fine RK4 integration of dx/dt = A(x, x) for a short time."""
    n, k, depth, t = 3, 3, 8, 0.05
    tensor = uniform(15, (n,) * k)
    x0 = uniform(16, n)
    blocks = oracles.lie_gradients(tensor, np.eye(n), x0, depth)
    series = sum(blk @ x0 / (np.prod(range(1, j + 1)) * (j + 1)) * t ** j
                 for j, blk in enumerate(blocks))
    f = lambda z: oracles.contract_dense(tensor, [z, z])
    x, steps = x0.copy(), 2000
    dt = t / steps
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + dt / 2 * k1)
        k3 = f(x + dt / 2 * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.allclose(series, x, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("repr_name", ["full", "tt", "ht"])
def test_parse_model_reads_every_representation(repr_name):
    n, k = 3, 4
    tensor = uniform(17, (n,) * k)
    dyn = {"full": tensor, "tt": tt_decompose(tensor),
           "ht": htd_decompose(tensor)}[repr_name]
    b, c = uniform(18, (n, 2)), uniform(19, (4, n))
    obj = serialize.model_to_obj(HpdsModel(k, n, dyn, B=b, C=c))
    parsed = oracles.parse_model(obj)
    assert parsed["repr"] == repr_name
    assert np.allclose(parsed["A"], tensor)
    assert np.array_equal(parsed["B"], b) and np.array_equal(parsed["C"], c)


def test_step_discrete_is_the_finite_difference_map():
    tensor = uniform(20, (2, 2, 2))
    b, x, u = uniform(21, (2, 1)), uniform(22, 2), uniform(23, 1)
    want = x + 0.1 * np.einsum("ijk,i,j->k", tensor, x, x) + b @ u
    assert np.allclose(oracles.step_discrete(tensor, b, x, u, 0.1), want)
