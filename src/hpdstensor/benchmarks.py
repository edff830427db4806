"""Random instance generation and memory/timing comparisons.

The three generation schemes mirror the numerical-experiment setup: fully
symmetric dense tensors, tensors built from low-rank trains, and tensors
built from low-rank trees.  Memory reports compare exact parameter counts;
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
from .hier_tucker import (DimensionTree, HTucker, build_tree, htd_decompose,
                          htd_reconstruct)
from .kernels import RankTolerance
from .model import FORMATS
from .randomness import generator
from .tensor_train import TensorTrain, tt_decompose, tt_reconstruct

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
    order, which is the ascending order of the codes of the sorted
    multi-indices, so an entry's multiset is the rank of its sorted code.
    """
    dims = (n,) * k
    values = generator(seed).random(math.comb(n + k - 1, k)) * 2.0 - 1.0
    index = np.indices(dims, dtype=np.min_scalar_type(n)).reshape(k, -1)
    codes = np.ravel_multi_index(np.sort(index, axis=0), dims)
    _, multiset = np.unique(codes, return_inverse=True)
    return values[multiset].reshape(dims)


def _random_tt(n: int, k: int, rank_cap: int, seed: int) -> TensorTrain:
    g = generator(seed)
    ranks = [1] + [min(rank_cap, n ** p, n ** (k - p)) for p in range(1, k)] + [1]
    cores = [g.random((ranks[p], n, ranks[p + 1])) * 2.0 - 1.0
             for p in range(k)]
    return TensorTrain(tuple(cores))


def _random_ht(n: int, k: int, rank_cap: int, seed: int,
               tree: DimensionTree | None = None) -> HTucker:
    g = generator(seed)
    if tree is None:
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


def gen_instance(scheme: str, n: int, k: int, rank_cap: int = 2,
                 seed: int = 0, tol: RankTolerance | None = None) -> Instance:
    """Generate one instance and decompose it into the other representations.

    The dense tensor is the interchange form, so the guard refuses sizes
    whose dense materialization exceeds the desk-scale limit.  Decomposed
    ranks are measured from the dense tensor, not assumed from the caps.
    """
    if scheme not in SCHEMES:
        raise ArgumentError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if rank_cap < 1:
        raise ArgumentError("rank_cap must be >= 1")
    if n ** k > DENSE_GUARD:
        raise ScaleError(f"dense interchange needs n^k = {n ** k} entries")
    if scheme == "symmetric":
        dense = _symmetric_dense(n, k, seed)
    elif scheme == "low_tt":
        dense = tt_reconstruct(_random_tt(n, k, rank_cap, seed))
    else:
        dense = htd_reconstruct(_random_ht(n, k, rank_cap, seed))
    return Instance(scheme, n, k, seed, dense,
                    tt_decompose(dense, tol=tol), htd_decompose(dense, tol=tol))


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
