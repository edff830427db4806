"""Random instance generation and memory/timing comparisons.

The three generation schemes mirror the numerical-experiment setup: fully
symmetric dense tensors, tensors built from low-rank trains, and tensors
built from low-rank trees.  A symmetric instance is decomposed from its
distinct values, the others from their dense tensor.  Memory reports
compare exact parameter counts;
timing reports measure controllability-matrix construction per
representation and refuse to record a run whose representations disagree on
the reachable rank.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import controllability
from .errors import ArgumentError, NumericError, ScaleError
from .hier_tucker import (HTucker, _symmetric_tree, build_tree, htd_decompose,
                          htd_reconstruct)
from .kernels import RankTolerance
from .model import FORMATS
from .randomness import generator
from .tensor_core import _multiset_ranks, multiset_tables
from .tensor_train import TensorTrain, _tt_svd, tt_decompose, tt_reconstruct

__all__ = ["SCHEMES", "BenchRecord", "Instance", "gen_instance",
           "memory_report", "timing_report"]

SCHEMES = ("symmetric", "low_tt", "low_ht")
DENSE_GUARD = 10_000_000


@dataclass(frozen=True)
class BenchRecord:
    scheme: str
    n: int
    k: int
    repr: str
    params: int
    elapsed_ms: float
    rank: int
    seed: int


@dataclass(frozen=True)
class Instance:
    """One generated dynamic tensor in every available representation."""

    scheme: str
    n: int
    k: int
    seed: int
    dense: np.ndarray | None
    tt: TensorTrain | None
    ht: HTucker | None

    def forms(self) -> dict:
        """The representations present, keyed by their model format name."""
        return {name: dyn for name, dyn in
                (("full", self.dense), ("tt", self.tt), ("ht", self.ht))
                if dyn is not None}


def _symmetric_dense(n: int, k: int, seed: int) -> np.ndarray:
    """Fully symmetric tensor: one uniform value per index multiset.

    Values are drawn in ``combinations_with_replacement(range(n), k)``
    order, the order in which :func:`multiset_tables` ranks them.
    """
    values = generator(seed).random(math.comb(n + k - 1, k)) * 2.0 - 1.0
    return values[_multiset_ranks(multiset_tables(n, k)[1])].reshape((n,) * k)


def _random_tt(n: int, k: int, rank_cap: int, seed: int) -> TensorTrain:
    g = generator(seed)
    ranks = [1] + [min(rank_cap, n ** p, n ** (k - p)) for p in range(1, k)] + [1]
    cores = [g.random((ranks[p], n, ranks[p + 1])) * 2.0 - 1.0
             for p in range(k)]
    return TensorTrain(tuple(cores))


def _random_ht(n: int, k: int, rank_cap: int, seed: int) -> HTucker:
    g = generator(seed)
    tree = build_tree(k)

    def node_rank(node):
        if node is tree.root:
            return 1
        size = len(node.modes)
        return min(rank_cap, n ** size, n ** (k - size))

    leaf_factors = {}
    transfer = {}
    for node, _ in tree.walk():
        if node.is_leaf:
            leaf_factors[node.modes[0]] = g.random((n, node_rank(node))) * 2 - 1
        else:
            rows = node_rank(node.left) * node_rank(node.right)
            transfer[node.modes] = g.random((rows, node_rank(node))) * 2 - 1
    return HTucker(tree, (n,) * k, leaf_factors, transfer)


def _symmetric_forms(dense: np.ndarray) -> tuple[TensorTrain, HTucker]:
    """The train and the balanced tree of a fully symmetric tensor, from its
    n x C(n+k-2, k-1) monomial coefficients.

    Column m of the coefficients is the fiber along mode k at the sorted
    multi-index of the (k-1)-multiset m, one row of ``dense``'s C-order
    reshape; only these n * C(n+k-2, k-1) entries are read.  They are
    decomposed by the loops identification runs, on distinct rows weighted
    by their counts, with every default threshold at the dense unfolding's
    shape, so the ranks are those of :func:`tt_decompose` and
    :func:`htd_decompose` on ``dense``.
    """
    n, k = dense.shape[0], dense.ndim
    tables = multiset_tables(n, k - 1)
    rows = tables[0][k - 1] @ n ** np.arange(k - 2, -1, -1)
    coeffs = dense.reshape(-1, n)[rows].T
    return (_tt_svd(coeffs.T, dense.shape, None, tables[1:]),
            _symmetric_tree(coeffs, tables, build_tree(k), None))


def gen_instance(scheme: str, n: int, k: int, rank_cap: int = 2,
                 seed: int = 0) -> Instance:
    """Generate one instance and decompose it into the other representations.

    The dense tensor is the interchange form, so the guard refuses sizes
    whose dense materialization exceeds the desk-scale limit.  Decomposed
    ranks are measured from the dense tensor, not assumed from the caps: a
    symmetric instance's by decomposing its distinct monomial coefficients
    (:func:`_symmetric_forms`), which give the dense tensor's ranks, the
    other schemes' by :func:`tt_decompose` and :func:`htd_decompose`.
    """
    if scheme not in SCHEMES:
        raise ArgumentError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if rank_cap < 1:
        raise ArgumentError("rank_cap must be >= 1")
    if n ** k > DENSE_GUARD:
        raise ScaleError(f"dense interchange needs n^k = {n ** k} entries")
    if scheme == "symmetric":
        dense = _symmetric_dense(n, k, seed)
        return Instance(scheme, n, k, seed, dense, *_symmetric_forms(dense))
    if scheme == "low_tt":
        dense = tt_reconstruct(_random_tt(n, k, rank_cap, seed))
    else:
        dense = htd_reconstruct(_random_ht(n, k, rank_cap, seed))
    return Instance(scheme, n, k, seed, dense,
                    tt_decompose(dense), htd_decompose(dense))


def memory_report(n: int, k_list, schemes=SCHEMES, rank_cap: int = 2,
                  seed: int = 0) -> list[BenchRecord]:
    """Exact parameter counts per representation per scheme and order.

    The rank column records the representation's own maximal rank (the
    k-mode unfolding rank for the full form).
    """
    records = []
    for scheme in schemes:
        for k in k_list:
            inst = gen_instance(scheme, n, int(k), rank_cap, seed)
            for name, dyn in inst.forms().items():
                fmt = FORMATS[name]
                records.append(BenchRecord(scheme, n, int(k), name,
                                           int(fmt.param_count(dyn)), 0.0,
                                           fmt.max_rank(dyn), seed))
    return records


def _generate_for_timing(scheme, n, k, rank_cap, seed) -> Instance:
    """Instance for timing; beyond the dense guard only the directly
    generated representation is available (the full path is recorded absent)."""
    try:
        return gen_instance(scheme, n, k, rank_cap, seed)
    except ScaleError:
        if scheme == "low_tt":
            return Instance(scheme, n, k, seed, None,
                            _random_tt(n, k, rank_cap, seed), None)
        if scheme == "low_ht":
            return Instance(scheme, n, k, seed, None, None,
                            _random_ht(n, k, rank_cap, seed))
        raise


def timing_report(n_list, k_list, schemes=SCHEMES, m: int = 5,
                  rank_cap: int = 2, seed: int = 0, repeats: int = 3,
                  tol: RankTolerance | None = None) -> list[BenchRecord]:
    """Median wall time of controllability construction per representation.

    Runs are sequential on a monotonic clock.  The representations present
    must agree on the reachable rank; disagreement raises instead of
    returning a bogus timing row.
    """
    if repeats < 1:
        raise ArgumentError("repeats must be >= 1")
    records = []
    for scheme in schemes:
        for n in n_list:
            n = int(n)
            for k in k_list:
                k = int(k)
                inst = _generate_for_timing(scheme, n, k, rank_cap, seed)
                b = generator(seed + 1).random((n, m)) * 2.0 - 1.0
                ranks = {}
                for name, dyn in inst.forms().items():
                    samples = []
                    for _ in range(repeats):
                        t0 = time.perf_counter()
                        result = controllability(dyn, b, tol)
                        samples.append((time.perf_counter() - t0) * 1e3)
                    ranks[name] = result.rank
                    records.append(BenchRecord(
                        scheme, n, k, name, int(FORMATS[name].param_count(dyn)),
                        float(np.median(samples)), result.rank, seed))
                if len(set(ranks.values())) > 1:
                    raise NumericError(
                        f"rank disagreement across representations: {ranks}")
    return records
