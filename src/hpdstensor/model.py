"""HPDS model abstraction, the representation table, and simulation.

A model is ``dx/dt = A x^{k-1} + B u`` with outputs ``y = C x``; the dynamic
tensor A may live in full, tensor-train, or hierarchical Tucker form.
:data:`FORMATS` is the one place that knows the three forms: per format name
it gives the dims, the contraction kernel, the evaluator that simulation
steps on, parameter count, maximal rank, and the three constructors: from a
dense tensor; from an almost symmetric tensor's monomial coefficients,
which symmetric generation and identification use; and from a tensor
train, which low-rank train generation uses.
:func:`format_of` names the format of a dynamics object.  Sampled
trajectories are held in :class:`SampleSet` matrices matching the data
layout used by the identification routines.  A simulation prepares its
model's evaluator once and checks its initial state and inputs once; each
step then checks only that the state stayed finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ArgumentError, DivergenceError, ShapeError
from .hier_tucker import (HTucker, _symmetric_tree, _train_tree, build_tree,
                          htd_decompose, htd_evaluator, htd_param_count,
                          htd_sweep)
from .kernels import numerical_rank
from .randomness import gaussian, next_seed
from .tensor_core import (_multiset_ranks, hpds_evaluator, sweep_leading,
                          unfold)
from .tensor_train import (TensorTrain, _tt_round, _tt_svd, tt_decompose,
                           tt_evaluator, tt_param_count, tt_reconstruct,
                           tt_sweep)

__all__ = ["Format", "FORMATS", "format_of", "HpdsModel", "SampleSet",
           "eval_derivative", "simulate_continuous", "simulate_discrete",
           "add_noise"]


@dataclass(frozen=True)
class Format:
    """What the package needs to know of one representation of A.

    ``cast(dynamics)`` is the dynamics as a model stores them and ``dims``
    their mode sizes.  ``sweep(dynamics, mats, merge)`` is the one
    contraction kernel: it contracts each mode p = 1..k-1 with the n x c_p
    matrix ``mats[p - 1]``, calling ``merge`` on the (a1, a2, m) array
    wherever two argument indices meet (the running message and mode p's
    columns, or two children of a tree node) and going on with the (a', m)
    array it returns; it gives the n x a' matrix with rows indexed by mode
    k.  ``evaluator(dynamics)`` lays the format's arrays out once and returns
    the map ``x -> A x^[k-1]`` on float n-vectors, which checks nothing and
    is what simulation steps on.  ``param_count`` is the number of stored
    entries, ``max_rank`` the largest rank of the format (the k-mode
    unfolding rank of a dense tensor).  Three constructors build the
    format: ``from_dense(tensor, tol)`` from a dense tensor;
    ``from_coefficients(coeffs, tables, tol)`` from the almost symmetric
    one whose k-mode unfolding has column coeffs[:, m] wherever modes
    1..k-1 read the multiset m, ``tables`` being :func:`multiset_tables`
    (n, k - 1); and ``from_train(train)`` from the tensor a
    :class:`TensorTrain` represents, by TT-rounding for tt and an exact
    conversion to the balanced tree for ht.  The last two form the n^k
    entries for the full form only.  ``from_train``, and
    ``from_coefficients`` with a None ``tol``, give the ranks of
    ``from_dense`` with a None ``tol``.
    """

    cast: Callable
    dims: Callable
    sweep: Callable
    evaluator: Callable
    param_count: Callable
    max_rank: Callable
    from_dense: Callable
    from_coefficients: Callable
    from_train: Callable


# sweep and the constructors look the kernels up at call time, so a wrapper
# rebound on this module (as a tracer installs) sees calls made via the
# table.
FORMATS = {
    "full": Format(
        cast=lambda t: np.asarray(t, dtype=float), dims=np.shape,
        sweep=lambda t, mats, merge: sweep_leading(t, mats, merge),
        evaluator=hpds_evaluator, param_count=np.size,
        max_rank=lambda t: numerical_rank(unfold(t, {t.ndim})),
        from_dense=lambda t, tol: np.asarray(t, dtype=float),
        from_coefficients=lambda c, tables, tol: c.T[
            _multiset_ranks(tables[1])].reshape((len(c),) * len(tables[0])),
        from_train=lambda d: tt_reconstruct(d)),
    "tt": Format(
        cast=lambda d: d, dims=lambda d: d.dims,
        sweep=lambda d, mats, merge: tt_sweep(d, mats, merge),
        evaluator=tt_evaluator, param_count=tt_param_count,
        max_rank=lambda d: max(d.ranks),
        from_dense=lambda t, tol: tt_decompose(t, tol=tol),
        from_coefficients=lambda c, tables, tol: _tt_svd(
            c.T, (len(c),) * len(tables[0]), tol, tables[1:]),
        from_train=lambda d: _tt_round(d)),
    "ht": Format(
        cast=lambda d: d, dims=lambda d: d.dims,
        sweep=lambda d, mats, merge: htd_sweep(d, mats, merge),
        evaluator=htd_evaluator, param_count=htd_param_count,
        max_rank=lambda d: d.max_rank(),
        from_dense=lambda t, tol: htd_decompose(t, tol=tol),
        from_coefficients=lambda c, tables, tol: _symmetric_tree(
            c, tables, build_tree(len(tables[0])), tol),
        from_train=lambda d: _train_tree(d)),
}


def format_of(dynamics) -> str:
    """The :data:`FORMATS` name of ``dynamics``: "tt" for a TensorTrain, "ht"
    for an HTucker, "full" for a dense array (or anything array-like)."""
    if isinstance(dynamics, TensorTrain):
        return "tt"
    if isinstance(dynamics, HTucker):
        return "ht"
    return "full"


@dataclass(frozen=True)
class HpdsModel:
    """Degree k-1 homogeneous polynomial system with optional input/output.

    ``dynamics`` is held in one of the :data:`FORMATS` (a cubical order-k
    ndarray, a TensorTrain, or an HTucker), all of dimension n.  B is n x m,
    C is l x n; both optional.
    """

    k: int
    n: int
    dynamics: object
    B: np.ndarray | None = None
    C: np.ndarray | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ArgumentError("model order k must be >= 2")
        fmt = FORMATS[format_of(self.dynamics)]
        object.__setattr__(self, "dynamics", fmt.cast(self.dynamics))
        dims = fmt.dims(self.dynamics)
        if len(dims) != self.k or set(dims) != {self.n}:
            raise ShapeError(
                f"dynamics dims {dims} do not match k={self.k}, n={self.n}")
        if self.B is not None:
            b = np.asarray(self.B, dtype=float)
            if b.ndim != 2 or b.shape[0] != self.n:
                raise ShapeError(f"B must be {self.n} x m, got {b.shape}")
            object.__setattr__(self, "B", b)
        if self.C is not None:
            c = np.asarray(self.C, dtype=float)
            if c.ndim != 2 or c.shape[1] != self.n:
                raise ShapeError(f"C must be l x {self.n}, got {c.shape}")
            object.__setattr__(self, "C", c)

    @property
    def representation(self) -> str:
        return format_of(self.dynamics)


@dataclass(frozen=True)
class SampleSet:
    """Sampled trajectory data.

    X0 holds states column per sample and X1 the derivatives at those
    states; discrete-time samples carry no X1.  U0 and Y0 hold inputs and
    outputs when present.
    """

    tau: float
    X0: np.ndarray | None = None
    X1: np.ndarray | None = None
    U0: np.ndarray | None = None
    Y0: np.ndarray | None = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ArgumentError("sampling interval tau must be positive")
        counts = set()
        for name in ("X0", "X1", "U0", "Y0"):
            mat = getattr(self, name)
            if mat is not None:
                mat = np.asarray(mat, dtype=float)
                if mat.ndim != 2:
                    raise ShapeError(f"{name} must be a 2-D matrix")
                object.__setattr__(self, name, mat)
                counts.add(mat.shape[1])
        if len(counts) > 1:
            raise ShapeError(f"inconsistent sample counts {sorted(counts)}")


def eval_derivative(model: HpdsModel, x: np.ndarray,
                    u: np.ndarray | None = None) -> np.ndarray:
    """dx/dt at state x (plus B u when an input is given)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != model.n:
        raise ShapeError(f"state length {x.shape[0]} != dimension {model.n}")
    dx = FORMATS[model.representation].evaluator(model.dynamics)(x)
    if u is not None:
        if model.B is None:
            raise ArgumentError("input given but the model has no B matrix")
        u = np.asarray(u, dtype=float).ravel()
        if u.shape[0] != model.B.shape[1]:
            raise ShapeError(f"input length {u.shape[0]} != m={model.B.shape[1]}")
        dx = dx + model.B @ u
    return dx


def _start(model: HpdsModel, x0: np.ndarray, u, tau: float, steps: int):
    """The checked initial state and input columns of a simulation, and the
    model's evaluator, which the steps then call on raw arrays."""
    if steps < 1:
        raise ArgumentError("need at least one sample")
    if not tau > 0:
        raise ArgumentError("tau must be positive")
    x = np.asarray(x0, dtype=float).ravel()
    if x.shape[0] != model.n:
        raise ShapeError(f"x0 length {x.shape[0]} != n={model.n}")
    if u is not None:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] < steps:
            raise ShapeError(f"need {steps} input samples, got {u.shape[1]}")
        if model.B is None:
            raise ArgumentError("input given but the model has no B matrix")
        if u.shape[0] != model.B.shape[1]:
            raise ShapeError(
                f"input length {u.shape[0]} != m={model.B.shape[1]}")
    return x, u, FORMATS[model.representation].evaluator(model.dynamics)


def _check_finite(x: np.ndarray, step: int):
    if not np.isfinite(x).all():
        raise DivergenceError(step)


def simulate_continuous(model: HpdsModel, x0: np.ndarray,
                        u: np.ndarray | None = None, tau: float = 0.01,
                        steps: int = 100, method: str = "rk4") -> SampleSet:
    """Integrate the continuous model with a fixed step, zero-order-hold input.

    Returns states X0 at t_0 + i tau and the exact model derivatives X1 at
    those states, which is the data layout the autonomous identification
    assumes.  Divergence raises with the offending step index.
    """
    if method not in ("rk4", "euler"):
        raise ArgumentError(f"unknown method {method!r}")
    x, uu, evaluate = _start(model, x0, u, tau, steps)

    states = np.zeros((model.n, steps))
    derivs = np.zeros((model.n, steps))
    for i in range(steps):
        if uu is None:
            f = evaluate
        else:
            # the held input's B u joins every stage's derivative
            bu = model.B @ uu[:, i].ravel()
            f = lambda z, bu=bu: evaluate(z) + bu
        states[:, i] = x
        derivs[:, i] = f(x)
        _check_finite(derivs[:, i], i)
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
        _check_finite(x, i + 1)

    y = None if model.C is None else model.C @ states
    return SampleSet(tau=tau, X0=states, X1=derivs,
                     U0=None if uu is None else uu[:, :steps].copy(), Y0=y)


def simulate_discrete(model: HpdsModel, x0: np.ndarray,
                      u: np.ndarray | None = None, tau: float = 0.01,
                      steps: int = 100) -> SampleSet:
    """Iterate the finite-difference map x+ = x + tau A x^[k-1] + B u.

    X0 carries x[0..T-1], U0 the applied inputs, and Y0 = C X0 when the
    model has an output matrix.  X1 is None: the next states are X0's later
    columns.
    """
    x, uu, evaluate = _start(model, x0, u, tau, steps)

    states = np.zeros((model.n, steps))
    for i in range(steps):
        states[:, i] = x
        # tau scales the polynomial drift only; the input enters unscaled,
        # matching the finite-difference map the io identification inverts
        x = x + tau * evaluate(x)
        if uu is not None:
            x = x + model.B @ uu[:, i]
        _check_finite(x, i + 1)

    y = None if model.C is None else model.C @ states
    return SampleSet(tau=tau, X0=states,
                     U0=None if uu is None else uu[:, :steps].copy(), Y0=y)


def add_noise(samples: SampleSet, sigma: float, seed: int = 0) -> SampleSet:
    """Add i.i.d. zero-mean Gaussian noise to the measured channels X1, Y0.

    Deterministic for a fixed seed; sigma = 0 returns the data unchanged.
    """
    if not 0 <= sigma < math.inf:
        raise ArgumentError(f"sigma must be finite and nonnegative: {sigma}")
    if sigma == 0:
        return samples
    x1, y0 = samples.X1, samples.Y0
    if x1 is not None:
        x1 = x1 + gaussian(x1.shape, seed=seed, sigma=sigma)
    if y0 is not None:
        y0 = y0 + gaussian(y0.shape, seed=next_seed(seed), sigma=sigma)
    return replace(samples, X1=x1, Y0=y0)
