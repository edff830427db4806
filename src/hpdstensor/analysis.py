"""Controllability and observability analysis in all three representations.

Both analyses are written once against a single contraction: contract modes
1..k-1 of the dynamics with k-1 arguments, at most one of them an n x c
matrix.  Each entry of the model's ``FORMATS`` table supplies it
(:func:`contract_leading`, :func:`tt_contract`, :func:`htd_contract`), so
the three representations run the same algorithm.

Controllability iterates the reachability span: each round contracts the
dynamics against selections of k-1 current basis columns, appends the new
directions, and compresses with a compact SVD.  For even k a full-rank span
certifies strong controllability; for odd k the same test certifies
accessibility.

Observability stacks the gradients of successive Lie derivatives of the
output map in one Taylor-mode pass.  With x(t) = sum_i x_i t^i the
trajectory from x_0, the j-th Lie derivative of y = C x is j! C x_j, so
row block j is j! C J_j with J_j = dx_j/dx_0.  The coefficients obey
(i+1) x_{i+1} = sum A(x_{i_1}, ..., x_{i_{k-1}}) over the compositions
i_1 + ... + i_{k-1} = i, and J_{i+1} follows by putting J_{i_s} into one
slot at a time (Griewank & Walther, *Evaluating Derivatives*, 2008,
ch. 13).  :func:`lift_operator` and :func:`gradient_sum` build the same
blocks as C A_(k) F_2 ... F_j times the Kronecker-power gradient, the
paper's explicit formula; they are kept as the reference the tests compare
against and are not used by the analyses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ArgumentError, ScaleError, ShapeError
from .hier_tucker import HTucker
from .kernels import RankTolerance, compact_svd, numerical_rank
from .model import FORMATS, format_of
from .tensor_core import _require_cubical, is_almost_symmetric, kron_power
from .tensor_train import TensorTrain

__all__ = [
    "ControllabilityResult", "ObservabilityResult",
    "controllability", "controllability_full", "controllability_tt",
    "controllability_ht", "gradient_sum", "lift_operator",
    "observability", "observability_full", "observability_tt",
    "observability_ht", "observability_at_probes",
]

# The reference lift operators grow as n^(jk); refuse beyond this entry count.
SCALE_GUARD_ENTRIES = 10_000_000


@dataclass(frozen=True)
class ControllabilityResult:
    """Reachability-span outcome.

    ``basis`` has orthonormal columns spanning the space reached by the
    iteration; the verdict vocabulary depends on the parity of k (strong
    controllability is decidable for even k only, odd k reports
    accessibility).
    """

    basis: np.ndarray
    rank: int
    verdict: str
    iterations: int


@dataclass(frozen=True)
class ObservabilityResult:
    """Rank verdict of the state-dependent observability matrix.

    ``verdict`` is True when the matrix reaches full rank n at some probe
    state; a False verdict at finitely many probes is evidence, not proof,
    of unobservability.
    """

    matrix_rank: int
    n: int
    verdict: bool
    probe_states: list = field(default_factory=list)
    depth: int = 0


def _verdict(k: int, rank: int, n: int) -> str:
    if k % 2 == 0:
        return "strongly_controllable" if rank == n else "not_controllable"
    return "accessible" if rank == n else "not_accessible"


def _reachability(n: int, k: int, b: np.ndarray, candidate_fn,
                  tol: RankTolerance | None,
                  use_multisets: bool) -> ControllabilityResult:
    """Shared reachability iteration with compact-SVD compression.

    ``candidate_fn(columns)`` maps a length k-1 column selection to the
    contracted direction(s).  Stops at full rank, at rank stagnation (the
    candidates depend on the span only, so a stalled rank is a fixed
    point), or after n rounds.
    """
    basis = compact_svd(b, tol).U
    rank = basis.shape[1]
    iterations = 0
    while rank < n and iterations < n:
        cols = [basis[:, j] for j in range(rank)]
        if use_multisets:
            selections = itertools.combinations_with_replacement(cols, k - 1)
        else:
            selections = itertools.product(cols, repeat=k - 1)
        new_cols = [candidate_fn(sel) for sel in selections]
        iterations += 1
        if not new_cols:
            break
        stacked = np.column_stack([basis] + new_cols) if rank else \
            np.column_stack(new_cols)
        svd = compact_svd(stacked, tol)
        basis = svd.U
        if svd.rank == rank:
            break
        rank = svd.rank
    return ControllabilityResult(basis, rank, _verdict(k, rank, n), iterations)


def _contraction(dynamics):
    """(n, k, contract) for dynamics held in any of the model ``FORMATS``.

    ``contract(args)`` contracts modes 1..k-1 with k-1 arguments, at most
    one an n x c matrix; its result reshaped to n rows is the n x c matrix
    (or n x 1 column) with rows indexed by mode k.
    """
    fmt = FORMATS[format_of(dynamics)]
    dynamics = fmt.cast(dynamics)
    n, k = _require_cubical(fmt.dims(dynamics))
    return n, k, partial(fmt.contract, dynamics)


def controllability(dynamics, b: np.ndarray,
                    tol: RankTolerance | None = None) -> ControllabilityResult:
    """Reachability span of the dynamics with control matrix B.

    Candidate directions are A v_1 ... v_{k-1} over selections of current
    basis columns: multisets for a train, a tree, or an almost symmetric
    dense tensor (ordered selections would duplicate columns), full tuples
    for any other dense tensor.
    """
    n, k, contract = _contraction(dynamics)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != n:
        raise ShapeError(f"B must have {n} rows, got {b.shape}")
    multisets = (format_of(dynamics) != "full"
                 or is_almost_symmetric(dynamics, 1e-9))
    return _reachability(n, k, b, lambda sel: contract(sel).ravel(), tol,
                         multisets)


def controllability_full(tensor: np.ndarray, b: np.ndarray,
                         tol: RankTolerance | None = None
                         ) -> ControllabilityResult:
    """Reachability span of the dense tensor; see :func:`controllability`."""
    return controllability(tensor, b, tol)


def controllability_tt(train: TensorTrain, b: np.ndarray,
                       tol: RankTolerance | None = None
                       ) -> ControllabilityResult:
    """Reachability span through train contractions only."""
    return controllability(train, b, tol)


def controllability_ht(ht: HTucker, b: np.ndarray,
                       tol: RankTolerance | None = None
                       ) -> ControllabilityResult:
    """Reachability span through leaf-substituted tree sweeps."""
    return controllability(ht, b, tol)


def gradient_sum(x: np.ndarray, m: int) -> np.ndarray:
    """Jacobian factor of the Kronecker power: sum over q of
    x^[q-1] kron I kron x^[m-q], an n^m x n matrix; m = 1 gives I."""
    if m < 1:
        raise ArgumentError("power must be >= 1")
    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    eye = np.eye(n)
    total = np.zeros((n ** m, n))
    for q in range(1, m + 1):
        left = kron_power(x, q - 1).reshape(-1, 1)
        right = kron_power(x, m - q).reshape(-1, 1)
        total += np.kron(left, np.kron(eye, right))
    return total


def lift_operator(a_k: np.ndarray, j: int, k: int) -> np.ndarray:
    """Lift operator F_j threading the unfolding through Kronecker slots.

    F_j = sum over i of I^[i-1] kron A_(k) kron I^[L-i] with
    L = (j-1)k - 2j + 3 slots, mapping x^[jk-2j+1] variables to the
    previous Lie-derivative level.  Shapes are guarded against blow-up.
    """
    if j < 2:
        raise ArgumentError("lift operators are defined for j >= 2")
    a_k = np.atleast_2d(np.asarray(a_k, dtype=float))
    n = a_k.shape[0]
    if a_k.shape[1] != n ** (k - 1):
        raise ShapeError(f"A_(k) must be n x n^(k-1), got {a_k.shape}")
    slots = (j - 1) * k - 2 * j + 3
    rows = n ** slots
    cols = n ** (j * k - 2 * j + 1)
    if rows * cols > SCALE_GUARD_ENTRIES:
        raise ScaleError(
            f"F_{j} would hold {rows * cols} entries")
    total = np.zeros((rows, cols))
    for i in range(1, slots + 1):
        total += np.kron(np.eye(n ** (i - 1)),
                         np.kron(a_k, np.eye(n ** (slots - i))))
    return total


def _compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` nonnegative integers summing to ``total``."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _lie_gradients(n: int, k: int, contract, c: np.ndarray, x: np.ndarray,
                   depth: int) -> list[np.ndarray]:
    """Row blocks C, 1! C J_1, ..., depth! C J_depth with J_j = dx_j/dx_0."""
    coeffs = [x]            # Taylor coefficients x_i
    tangents = [np.eye(n)]  # J_i
    blocks = [c]
    for i in range(depth):
        coeff = np.zeros(n)
        tangent = np.zeros((n, n))
        for parts in _compositions(i, k - 1):
            args = [coeffs[p] for p in parts]
            if i + 1 < depth:  # no later step reads x_depth
                coeff += contract(args).ravel()
            for s, p in enumerate(parts):
                slot = args[:s] + [tangents[p]] + args[s + 1:]
                tangent += contract(slot).reshape(n, n)
        coeffs.append(coeff / (i + 1))
        tangents.append(tangent / (i + 1))
        blocks.append(math.factorial(i + 1) * (c @ tangents[-1]))
    return blocks


def observability(dynamics, c: np.ndarray, x: np.ndarray,
                  depth: int | None = None,
                  tol: RankTolerance | None = None) -> ObservabilityResult:
    """State-dependent observability matrix rank at a probe state.

    Row block 0 is C and row block j is the gradient of the j-th Lie
    derivative of y = C x, evaluated as j! C dx_j/dx_0 from the Taylor
    coefficients x_j of the trajectory through x.  ``depth`` defaults to
    n-1 in every representation.
    """
    n, k, contract = _contraction(dynamics)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape[1] != n:
        raise ShapeError(f"C must have {n} columns, got {c.shape}")
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != n:
        raise ShapeError(f"probe state must have length {n}, got {x.shape}")
    if depth is None:
        depth = n - 1
    if depth < 0 or depth > n - 1:
        raise ArgumentError(f"depth must be in 0..{n - 1}, got {depth}")
    rank = numerical_rank(
        np.vstack(_lie_gradients(n, k, contract, c, x, depth)), tol)
    return ObservabilityResult(rank, n, rank == n, [x], depth)


def observability_full(tensor: np.ndarray, c: np.ndarray, x: np.ndarray,
                       depth: int | None = None,
                       tol: RankTolerance | None = None
                       ) -> ObservabilityResult:
    """Observability rank of the dense tensor; see :func:`observability`."""
    return observability(tensor, c, x, depth, tol)


def observability_tt(train: TensorTrain, c: np.ndarray, x: np.ndarray,
                     depth: int | None = None,
                     tol: RankTolerance | None = None) -> ObservabilityResult:
    """Observability rank computed through train contractions only."""
    return observability(train, c, x, depth, tol)


def observability_ht(ht: HTucker, c: np.ndarray, x: np.ndarray,
                     depth: int | None = None,
                     tol: RankTolerance | None = None) -> ObservabilityResult:
    """Observability rank computed through tree contractions only."""
    return observability(ht, c, x, depth, tol)


def observability_at_probes(observe, probes, **kwargs) -> ObservabilityResult:
    """Evaluate an observability routine at several probe states.

    A full-rank outcome at any probe settles the generic (open dense set)
    verdict; otherwise the result records the best rank seen and every
    probe tested.
    """
    best: ObservabilityResult | None = None
    states = []
    for x in probes:
        res = observe(x=x, **kwargs)
        states.append(np.asarray(x, dtype=float).ravel())
        if best is None or res.matrix_rank > best.matrix_rank:
            best = res
        if best.verdict:
            break
    if best is None:
        raise ArgumentError("at least one probe state is required")
    return ObservabilityResult(best.matrix_rank, best.n, best.verdict,
                               states, best.depth)
