"""Controllability and observability analysis in all three representations.

Both analyses are written once against the one contraction kernel of the
model's ``FORMATS`` table, ``sweep``: it contracts mode p with an n x c_p
matrix and lets the caller merge argument indices wherever they meet.  The
two analyses differ only in their merge.

Controllability iterates the reachability span V = range(U).  The ordered
span reached in one round is the range of A_(k) (U kron ... kron U), the
directions A(v_1, ..., v_{k-1}) over every ordered tuple of span vectors.
One sweep with all k-1 arguments equal to U computes it: wherever two
argument indices meet, only the row space of the message matters, so a
reduced QR keeps at most as many rows as the message has columns, as in
tensor-train rounding (Oseledets, *Tensor-Train Decomposition*, SISC 2011)
and the hierarchical SVD (Grasedyck, SIMAX 2010).  The round's one rank
decision is the compact SVD of the current basis and the swept directions.
For even k a full-rank span certifies strong controllability; for odd k the
same test certifies accessibility.

Observability stacks the gradients of successive Lie derivatives of the
output map in one Taylor-mode pass.  With x(t) = sum_i x_i t^i the
trajectory from x_0, the j-th Lie derivative of y = C x is j! C x_j, so
row block j is j! C J_j with J_j = dx_j/dx_0.  The coefficients obey
(i+1) x_{i+1} = [t^i] A(x(t), ..., x(t)), and J_{i+1} is its derivative in
x_0.  One sweep per degree i computes both: every argument is the series
(x_d, J_d), d <= i, and wherever two arguments meet the merge multiplies
them as truncated series, a Cauchy product for the values and the product
rule for the tangents (Griewank & Walther, *Evaluating Derivatives*, 2008,
ch. 13).  :func:`lift_operator` and :func:`gradient_sum` build the same
blocks as C A_(k) F_2 ... F_j times the Kronecker-power gradient, the
paper's explicit formula; they are kept as the reference the tests compare
against and are not used by the analyses (the benchmark's tracer binds them
by name in this module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ScaleError, ShapeError
from .hier_tucker import HTucker
from .kernels import RankTolerance, compact_svd, numerical_rank
from .model import FORMATS, format_of
from .tensor_core import _require_cubical, kron_power
from .tensor_train import TensorTrain

__all__ = [
    "ControllabilityResult", "ObservabilityResult",
    "controllability", "controllability_full", "controllability_tt",
    "controllability_ht", "gradient_sum", "lift_operator",
    "observability", "observability_full", "observability_tt",
    "observability_ht",
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
    depth: int = 0


def _verdict(k: int, rank: int, n: int) -> str:
    if k % 2 == 0:
        return "strongly_controllable" if rank == n else "not_controllable"
    return "accessible" if rank == n else "not_accessible"


def _row_space(met: np.ndarray) -> np.ndarray:
    """Sweep merge that keeps the row space of the (a1, a2, m) message: the
    R factor of a reduced QR when a1 a2 > m rows would exceed the columns,
    the a1 a2 rows themselves otherwise.  It decides no rank."""
    a1, a2, m = met.shape
    rows = met.reshape(a1 * a2, m)
    return np.linalg.qr(rows, mode="r") if a1 * a2 > m else rows


def _format(dynamics):
    """(format, cast dynamics, n, k) for dynamics in any model format."""
    fmt = FORMATS[format_of(dynamics)]
    dynamics = fmt.cast(dynamics)
    n, k = _require_cubical(fmt.dims(dynamics))
    return fmt, dynamics, n, k


def controllability(dynamics, b: np.ndarray,
                    tol: RankTolerance | None = None) -> ControllabilityResult:
    """Reachability span of the dynamics with control matrix B.

    Each round sweeps the dynamics once with every argument equal to the
    current basis U, which gives columns spanning the ordered span
    range(A_(k) (U kron ... kron U)), and compresses the basis and those
    columns with one compact SVD.  Stops at rank 0 or n, at rank
    stagnation (the new directions depend on the span only, so a stalled
    rank is a fixed point), or after n rounds.
    """
    fmt, dynamics, n, k = _format(dynamics)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != n:
        raise ShapeError(f"B must have {n} rows, got {b.shape}")
    basis = compact_svd(b, tol).U
    rank = basis.shape[1]
    iterations = 0
    while 0 < rank < n and iterations < n:
        reached = fmt.sweep(dynamics, [basis] * (k - 1), _row_space)
        iterations += 1
        svd = compact_svd(np.column_stack([basis, reached]), tol)
        basis = svd.U
        if svd.rank == rank:
            break
        rank = svd.rank
    return ControllabilityResult(basis, rank, _verdict(k, rank, n), iterations)


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


def _taylor_merge(degree: int, n: int):
    """Sweep merge that multiplies two truncated Taylor series with tangents.

    An argument index is (d, e), e fastest: degree d = 0..``degree``, and
    part e = 0 for the value x_d or e = 1..n for column e of its tangent
    J_d.  Values combine as the Cauchy product truncated at ``degree``,
    tangents by the product rule; a side of size 1 is the unit series.
    """
    parts = n + 1

    def merge(met: np.ndarray) -> np.ndarray:
        a1, a2, m = met.shape
        if a1 == 1 or a2 == 1:
            return met.reshape(a1 * a2, m)
        # explicit sizes: a -1 is ambiguous once m is 0
        met = met.reshape(degree + 1, parts, degree + 1, parts, m)
        out = np.zeros((degree + 1, parts, m))
        for d in range(degree + 1):
            # left degree d meets right degree b <= degree - d: (e, b, e, m)
            pairs = met[d, :, :degree + 1 - d]
            out[d:] += pairs[0]                              # value x any
            out[d:, 1:] += pairs[1:, :, 0].swapaxes(0, 1)    # tangent x value
        return out.reshape((degree + 1) * parts, m)

    return merge


def _lie_gradients(fmt, dynamics, k: int, c: np.ndarray, x: np.ndarray,
                   depth: int) -> list[np.ndarray]:
    """Row blocks C, 1! C J_1, ..., depth! C J_depth with J_j = dx_j/dx_0.

    Sweep i passes the series (x_d, J_d), d <= i, as every argument; the
    degree-i columns of its result are (i+1) (x_{i+1}, J_{i+1}).
    """
    n = x.shape[0]
    series = np.column_stack([x, np.eye(n)])
    blocks = [c]
    for i in range(depth):
        swept = fmt.sweep(dynamics, [series] * (k - 1), _taylor_merge(i, n))
        step = swept[:, i * (n + 1):] / (i + 1)
        series = np.column_stack([series, step])
        blocks.append(math.factorial(i + 1) * (c @ step[:, 1:]))
    return blocks


def observability(dynamics, c: np.ndarray, x: np.ndarray,
                  depth: int | None = None,
                  tol: RankTolerance | None = None) -> ObservabilityResult:
    """State-dependent observability matrix rank at a probe state.

    Row block 0 is C and row block j is the gradient of the j-th Lie
    derivative of y = C x, evaluated as j! C dx_j/dx_0 from the Taylor
    coefficients x_j of the trajectory through x, one sweep per degree.
    ``depth`` defaults to n-1 in every representation.
    """
    fmt, dynamics, n, k = _format(dynamics)
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
        np.vstack(_lie_gradients(fmt, dynamics, k, c, x, depth)), tol)
    return ObservabilityResult(rank, n, rank == n, depth)


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

