"""Random instance generation and memory/timing comparisons.

The three generation schemes mirror the numerical-experiment setup: fully
symmetric dense tensors, tensors built from low-rank trains, and tensors
built from low-rank trees.  A symmetric instance is drawn as its monomial
coefficients, one value per index multiset, and every form of it is built
from them; a low-rank train is drawn as its cores, and every form of it is
built from them, so it never decomposes its dense tensor; a low-rank tree
is decomposed from its dense tensor.  Each form is built when it is first
read, so a caller that reads one form pays for that one alone.  Memory
reports compare exact parameter counts; timing reports measure
controllability-matrix construction per representation and refuse to
record a run whose representations disagree on the reachable rank.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import controllability
from .errors import ArgumentError, NumericError, ScaleError
from .hier_tucker import HTucker, build_tree, htd_reconstruct
from .kernels import RankTolerance
from .model import FORMATS
from .randomness import generator
from .tensor_core import multiset_tables
from .tensor_train import TensorTrain

__all__ = ["SCHEMES", "BenchRecord", "Instance", "gen_instance",
           "memory_report", "timing_report"]

SCHEMES = ("symmetric", "low_tt", "low_ht")
DENSE_GUARD = 10_000_000
# A train is rounded and converted on its cores, but each default threshold
# is stated at a dense unfolding, max(shape) eps sigma_max, and the largest
# has n^(k-1) rows.  Up to n^(k-1) = eps^(-1/2) = 2^26 that stays at most
# sqrt(eps) sigma_max, roundoff; beyond it it cuts the train's real rank.
TRAIN_GUARD = 2 ** 26


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


class Instance:
    """One generated dynamic tensor in every available representation.

    ``dense``, ``tt`` and ``ht`` read the full, tt and ht forms, None where
    a form is absent.  ``Instance(dense, tt, ht)`` keeps the forms it is
    given.  An instance from :func:`gen_instance` holds the ``names`` of the
    forms present and builds each on its first read, as
    ``build(FORMATS[name])``, keeping the result; :meth:`forms` builds them
    all.
    """

    def __init__(self, dense=None, tt=None, ht=None, *, build=None,
                 names=()):
        self._built = {name: dyn for name, dyn in
                       zip(("full", "tt", "ht"), (dense, tt, ht))
                       if dyn is not None}
        self._names = names or tuple(self._built)
        self._build = build

    def _form(self, name: str):
        if name in self._names and name not in self._built:
            self._built[name] = self._build(FORMATS[name])
        return self._built.get(name)

    dense = property(lambda self: self._form("full"))
    tt = property(lambda self: self._form("tt"))
    ht = property(lambda self: self._form("ht"))

    def forms(self) -> dict:
        """Every representation present, built, keyed by its model format
        name."""
        return {name: self._form(name) for name in self._names}


def _symmetric_coefficients(n: int, k: int, seed: int):
    """The monomial coefficients of a fully symmetric tensor, one uniform
    value per index multiset, and the :func:`multiset_tables` ``(n, k - 1)``
    they are read with.

    Values are drawn in ``combinations_with_replacement(range(n), k)``
    order, the order in which :func:`multiset_tables` ranks them.  Column
    m of the n x C(n+k-2, k-1) coefficients holds the values of the
    k-multisets m + {i}, i = 0..n-1.
    """
    values = generator(seed).random(math.comb(n + k - 1, k)) * 2.0 - 1.0
    members, grows, counts = multiset_tables(n, k)
    return values[grows[k - 1]].T, (members[:k], grows[:k - 1], counts[:k])


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


def gen_instance(scheme: str, n: int, k: int, rank_cap: int = 2,
                 seed: int = 0) -> Instance:
    """Generate one instance in every representation.

    Every guard is checked, and the instance drawn, here; each form is
    built on its first read from the instance, and :meth:`Instance.forms`
    builds every form present.  Every form is built through
    :data:`model.FORMATS`, with the dense tensor's ranks, measured, not
    assumed from the caps: a symmetric instance's from its monomial
    coefficients (``from_coefficients``), a low_tt instance's from its
    train (``from_train``: rounded, converted to the balanced tree, and
    contracted for the full form only), a low_ht instance's from its dense
    tensor (``from_dense``).  Past the desk-scale limit on the dense
    tensor, a low_ht instance is refused, and a symmetric or low_tt
    instance has no full form, up to the size where the default thresholds
    of its largest unfoldings leave roundoff; a symmetric instance also
    while its largest unfolding of distinct entries, which its train and
    tree are decomposed from, stays within that limit.  Every guard is
    checked before anything is drawn.
    """
    if scheme not in SCHEMES:
        raise ArgumentError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if n < 1:
        raise ArgumentError("dimension n must be >= 1")
    if rank_cap < 1:
        raise ArgumentError("rank_cap must be >= 1")
    if k < 2:
        raise ArgumentError("model order k must be >= 2")
    names = ("full", "tt", "ht")
    if n ** k > DENSE_GUARD:
        if scheme == "low_ht":
            raise ScaleError(f"dense interchange needs n^k = {n ** k} entries")
        if scheme == "symmetric":
            # the largest unfolding of distinct entries its train and tree
            # are decomposed from: i_k, a q-multiset and a (k-1-q)-multiset
            block = n * max(math.comb(n + q - 1, q)
                            * math.comb(n + k - q - 2, k - q - 1)
                            for q in range(k))
            if block > DENSE_GUARD:
                raise ScaleError(f"symmetric unfoldings need {block} entries")
        if n ** (k - 1) > TRAIN_GUARD:
            raise ScaleError(f"default thresholds at n^(k-1) = {n ** (k - 1)}"
                             " rows are past roundoff")
        names = ("tt", "ht")
    if scheme == "symmetric":
        coeffs, tables = _symmetric_coefficients(n, k, seed)
        build = lambda fmt: fmt.from_coefficients(coeffs, tables, None)
    elif scheme == "low_tt":
        train = _random_tt(n, k, rank_cap, seed)
        build = lambda fmt: fmt.from_train(train)
    else:
        dense = htd_reconstruct(_random_ht(n, k, rank_cap, seed))
        build = lambda fmt: fmt.from_dense(dense, None)
    return Instance(build=build, names=names)


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
    """Instance for timing; beyond the dense guard a low_ht instance has its
    tree only, and beyond the train guard a low_tt instance its drawn train
    only (the other paths are recorded absent)."""
    try:
        return gen_instance(scheme, n, k, rank_cap, seed)
    except ScaleError:
        if scheme == "low_tt":
            return Instance(None, _random_tt(n, k, rank_cap, seed), None)
        if scheme == "low_ht":
            return Instance(None, None, _random_ht(n, k, rank_cap, seed))
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
    if m < 1:
        raise ArgumentError("m must be >= 1")
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
