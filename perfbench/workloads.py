"""The benchmark's four workloads: inputs made from a seed, and operations.

Each workload is built in two steps.  ``setup`` does what a user of the
package would do before the first analysis call (generate instances,
decompose them, make identification data or input files) and is what
``setup_s`` times.  ``operations`` then computes the reference answers with
the benchmark's own oracles, untimed, and returns the operations: each one
public call of the package, with a check of its result.

Package functions are always reached through their module attribute at call
time (``analysis.controllability_tt``, not an imported name), so that the
traced run's rebinding sees every call.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hpdstensor.analysis as analysis
import hpdstensor.benchmarks as benchmarks
import hpdstensor.cli as cli
import hpdstensor.hier_tucker as hier_tucker
import hpdstensor.model as model
import hpdstensor.serialize as serialize
import hpdstensor.sysid as sysid
import hpdstensor.tensor_train as tensor_train
from hpdstensor.errors import ArgumentError

import oracles

WORKLOADS = ("reach", "observe", "identify", "pipeline")


class Mismatch(AssertionError):
    """An operation's output disagrees with the oracle."""


@dataclass
class Op:
    """One public call and the check of its result.

    ``fault`` names a known fault of the package; ``is_fault(result, exc)``
    says whether this outcome is that fault.  Such an outcome counts as a
    failed operation and is never timed.
    """

    name: str
    repr: str
    call: Callable[[], object]
    check: Callable[[object], None]
    fault: str | None = None
    is_fault: Callable[[object, BaseException | None], bool] | None = None


@dataclass
class Workload:
    """The operations, and (params_tt, params_ht) from warm-up results."""

    ops: list[Op]
    params: Callable[[dict], tuple[int, int]]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _uniform(g: np.random.Generator, shape) -> np.ndarray:
    return g.random(shape) * 2.0 - 1.0


def _require(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


def _instance_seed(seed: int, index: int) -> int:
    return (seed * 7919 + index * 104729) % 2 ** 31


def _param_counts(states: list) -> tuple[int, int]:
    tt = sum(tensor_train.tt_param_count(s["tt"]) for s in states
             if s.get("tt") is not None)
    ht = sum(hier_tucker.htd_param_count(s["ht"]) for s in states
             if s.get("ht") is not None)
    return tt, ht


# ------------------------------------------------------------------- reach

# (label, scheme, n, k, rank cap); "random" builds a train and a tree
# directly, too large to densify.
REACH_INSTANCES = (
    ("sym5k7", "symmetric", 5, 7, 2),
    ("sym3k8", "symmetric", 3, 8, 2),
    ("sym3k10", "symmetric", 3, 10, 2),
    ("lowtt8k6", "low_tt", 8, 6, 4),
    ("rand10k7", "random", 10, 7, 10),
)

GATE_FAULT = ("controllability_full raises ArgumentError at k >= 10: "
              "is_almost_symmetric hits the MAX_SYMMETRIZE_ORDER gate")


def _random_train(n: int, k: int, cap: int, g) -> tensor_train.TensorTrain:
    ranks = [1] + [min(cap, n ** p, n ** (k - p)) for p in range(1, k)] + [1]
    return tensor_train.TensorTrain(tuple(
        _uniform(g, (ranks[p], n, ranks[p + 1])) for p in range(k)))


def _random_tree(n: int, k: int, cap: int, g) -> hier_tucker.HTucker:
    tree = hier_tucker.build_tree(k)

    def rank(node):
        if node is tree.root:
            return 1
        size = len(node.modes)
        return min(cap, n ** size, n ** (k - size))

    leaves, transfer = {}, {}
    for node, _ in tree.walk():
        if node.is_leaf:
            leaves[node.modes[0]] = _uniform(g, (n, rank(node)))
        else:
            rows = rank(node.left) * rank(node.right)
            transfer[node.modes] = _uniform(g, (rows, rank(node)))
    return hier_tucker.HTucker(tree, (n,) * k, leaves, transfer)


def _make_instance(seed: int, index: int, scheme: str, n: int, k: int,
                   cap: int) -> dict:
    s = _instance_seed(seed, index)
    if scheme == "random":
        g = _rng(s, 1)
        return {"n": n, "k": k, "dense": None,
                "tt": _random_train(n, k, cap, g),
                "ht": _random_tree(n, k, cap, g)}
    inst = benchmarks.gen_instance(scheme, n, k, rank_cap=cap, seed=s)
    return {"n": n, "k": k, "dense": inst.dense, "tt": inst.tt, "ht": inst.ht}


def setup_reach(seed: int, workdir: str) -> list[dict]:
    states = []
    for index, (label, scheme, n, k, cap) in enumerate(REACH_INSTANCES):
        state = _make_instance(seed, index, scheme, n, k, cap)
        state["label"] = label
        state["b"] = _uniform(_rng(seed, 100 + index), (n, 1))
        states.append(state)
    return states


def _verdict(k: int, rank: int, n: int) -> str:
    if k % 2 == 0:
        return "strongly_controllable" if rank == n else "not_controllable"
    return "accessible" if rank == n else "not_accessible"


def _reach_check(state: dict, rank: int, basis) -> Callable:
    n, k = state["n"], state["k"]

    def check(result):
        _require(result.rank == rank,
                 f"reachable rank {result.rank}, oracle {rank}")
        _require(result.verdict == _verdict(k, rank, n),
                 f"verdict {result.verdict} at rank {rank}")
        if basis is not None:
            sine = oracles.principal_sine(basis, result.basis)
            _require(sine <= 1e-8, f"basis off the oracle span by {sine:.1e}")
    return check


def operations_reach(states: list[dict], seed: int) -> Workload:
    ops = []
    for state in states:
        n, b, label = state["n"], state["b"], state["label"]
        if state["dense"] is not None:
            rank, basis = oracles.reachable_dense(state["dense"], b)
        else:
            rank, basis = _sampled_reach_rank(state, seed), None
        check = _reach_check(state, rank, basis)
        if state["dense"] is not None:
            dense = state["dense"]
            op = Op(f"{label}/full", "full",
                    lambda t=dense, b=b: analysis.controllability_full(t, b),
                    check)
            if label == "sym3k10":
                op.fault = GATE_FAULT
                op.is_fault = lambda r, e: isinstance(e, ArgumentError)
            ops.append(op)
        ops.append(Op(f"{label}/tt", "tt",
                      lambda t=state["tt"], b=b:
                      analysis.controllability_tt(t, b), check))
        ops.append(Op(f"{label}/ht", "ht",
                      lambda t=state["ht"], b=b:
                      analysis.controllability_ht(t, b), check))
    return Workload(ops, lambda _: _param_counts(states))


def _sampled_reach_rank(state: dict, seed: int) -> int:
    n, b = state["n"], state["b"]
    tt, ht = state["tt"], state["ht"]
    rank_tt = oracles.reachable_sampled(
        oracles.TrainContraction(tt.cores), n, b, seed)
    rank_ht = oracles.reachable_sampled(
        oracles.TreeContraction(ht.tree.root, ht.leaf_factors, ht.transfer),
        n, b, seed)
    if rank_tt != n or rank_ht != n:
        raise oracles.OracleError(
            f"sampled reachable ranks {rank_tt}, {rank_ht} below n={n}")
    return n


# ----------------------------------------------------------------- observe

OBSERVE_INSTANCES = (
    ("sym5k3", "symmetric", 5, 3, 2, True),
    ("sym7k3", "symmetric", 7, 3, 2, True),
    ("lowtt5k4", "low_tt", 5, 4, 2, False),
)

DEPTH_FAULT = ("observability_full silently lowers the default depth n-1 to "
               "fit SCALE_GUARD_ENTRIES and reports a rank below the oracle")


def setup_observe(seed: int, workdir: str) -> list[dict]:
    states = []
    for index, (label, scheme, n, k, cap, with_full) in \
            enumerate(OBSERVE_INSTANCES):
        state = _make_instance(seed, 20 + index, scheme, n, k, cap)
        g = _rng(seed, 200 + index)
        state.update(label=label, with_full=with_full,
                     c=_uniform(g, (1, n)), x=_uniform(g, n))
        states.append(state)
    return states


def operations_observe(states: list[dict], seed: int) -> Workload:
    ops = []
    for state in states:
        n, c, x, label = state["n"], state["c"], state["x"], state["label"]
        rank = oracles.observability_rank(state["dense"], c, x)

        def check(result, rank=rank, n=n):
            _require(result.matrix_rank == rank,
                     f"observability rank {result.matrix_rank}, oracle {rank}")
            _require(result.verdict == (rank == n), "verdict disagrees")
            _require(result.depth == n - 1, f"depth {result.depth} != n-1")

        if state["with_full"]:
            op = Op(f"{label}/full", "full",
                    lambda t=state["dense"], c=c, x=x:
                    analysis.observability_full(t, c, x), check)
            op.fault = DEPTH_FAULT
            op.is_fault = lambda r, e, rank=rank, n=n: (
                e is None and r.depth < n - 1 and r.matrix_rank < rank)
            ops.append(op)
        ops.append(Op(f"{label}/tt", "tt",
                      lambda t=state["tt"], c=c, x=x:
                      analysis.observability_tt(t, c, x), check))
        ops.append(Op(f"{label}/ht", "ht",
                      lambda t=state["ht"], c=c, x=x:
                      analysis.observability_ht(t, c, x), check))
    return Workload(ops, lambda _: _param_counts(states))


# ---------------------------------------------------------------- identify

IDENTIFY_INSTANCES = ((4, 7), (5, 6), (8, 4), (3, 9))
HELD_OUT = 8
IDENTIFY_TOL = 1e-8


def setup_identify(seed: int, workdir: str) -> list[dict]:
    states = []
    for index, (n, k) in enumerate(IDENTIFY_INSTANCES):
        inst = benchmarks.gen_instance("symmetric", n, k,
                                       seed=_instance_seed(seed, 40 + index))
        truth = model.HpdsModel(k, n, inst.dense)
        g = _rng(seed, 400 + index)
        count = 2 * sysid.required_rank(n, k)
        x0 = _uniform(g, (n, count))
        x1 = np.column_stack([model.eval_derivative(truth, x0[:, i])
                              for i in range(count)])
        states.append({
            "label": f"sym{n}k{k}", "n": n, "k": k, "dense": inst.dense,
            "samples": model.SampleSet(tau=0.01, X0=x0, X1=x1),
            "held_out": _uniform(g, (n, HELD_OUT))})
    return states


def _identify_check(state: dict, repr_name: str) -> Callable:
    truth = oracles.eval_dense(state["dense"], state["held_out"])

    def check(result):
        dyn = result.dynamics
        if repr_name == "full":
            got = oracles.eval_dense(dyn, state["held_out"])
        elif repr_name == "tt":
            got = oracles.eval_contraction(
                oracles.TrainContraction(dyn.cores), state["held_out"])
        else:
            got = oracles.eval_contraction(
                oracles.TreeContraction(dyn.tree.root, dyn.leaf_factors,
                                        dyn.transfer), state["held_out"])
        err = oracles.relative_error(got, truth)
        _require(err <= IDENTIFY_TOL,
                 f"held-out derivative error {err:.1e} > {IDENTIFY_TOL}")
    return check


def operations_identify(states: list[dict], seed: int) -> Workload:
    ops = []
    for state in states:
        samples, k, label = state["samples"], state["k"], state["label"]
        ops.append(Op(f"{label}/full", "full",
                      lambda s=samples, k=k: sysid.identify_full(s, k),
                      _identify_check(state, "full")))
        ops.append(Op(f"{label}/tt", "tt",
                      lambda s=samples, k=k: sysid.identify_tt(s, k),
                      _identify_check(state, "tt")))
        ops.append(Op(f"{label}/ht", "ht",
                      lambda s=samples, k=k: sysid.identify_ht(s, k),
                      _identify_check(state, "ht")))

    def params(results: dict) -> tuple[int, int]:
        tt = sum(tensor_train.tt_param_count(results[op.name].dynamics)
                 for op in ops if op.repr == "tt" and op.name in results)
        ht = sum(hier_tucker.htd_param_count(results[op.name].dynamics)
                 for op in ops if op.repr == "ht" and op.name in results)
        return tt, ht
    return Workload(ops, params)


# ---------------------------------------------------------------- pipeline

PIPE_N, PIPE_K, PIPE_M, PIPE_L = 3, 4, 2, 4
PIPE_STEPS = 480
PIPE_HELD_OUT = 24
PIPE_TAU = 0.05
PIPE_SIGMA = 1e-3
# Bound on the RMS one-step output error over the held-out steps.  The
# regression behind identify --io sees noise on both x_t and x_{t+1}, about
# sqrt(2) sigma per entry; its least-squares one-step prediction from
# p = C(n+k-2, k-1) + m = 12 regressors and T samples should then err by
# about sqrt(2) sigma sqrt(p / T) = 0.22 sigma.  2 sigma, more than the
# sqrt(2) sigma of predicting from the noisy data itself, leaves room for
# poorly excited draws.
PIPE_PREDICT_BOUND = 2.0 * PIPE_SIGMA


def _dissipative_model(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, k, m, l = PIPE_N, PIPE_K, PIPE_M, PIPE_L
    base = np.zeros((n,) * k)
    for i in range(n):
        for j in range(n):
            base[j, j, i, i] -= 1.0
    tensor = base + 0.2 * _uniform(g, (n,) * k)
    # average over permutations of the first k-1 modes: the almost
    # symmetric normal form that identify --io also returns
    perms = list(itertools.permutations(range(k - 1)))
    tensor = sum(np.transpose(tensor, p + (k - 1,)) for p in perms) \
        / len(perms)
    b = 0.4 * _uniform(g, (n, m))
    c, _ = np.linalg.qr(_uniform(g, (l, n)))
    return tensor, b, c


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(serialize.format_float(v) for v in row) for row in rows]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def setup_pipeline(seed: int, workdir: str) -> dict:
    g = _rng(seed, 500)
    tensor, b, c = _dissipative_model(g)
    total = PIPE_STEPS + PIPE_HELD_OUT
    u = 0.4 * _uniform(g, (PIPE_M, total))
    x0 = 0.4 * _uniform(g, PIPE_N)
    probe = _uniform(g, PIPE_N)
    files = {"x0": os.path.join(workdir, "x0.csv"),
             "u": os.path.join(workdir, "u.csv"),
             "probe": os.path.join(workdir, "probe.csv")}
    _write_csv(files["x0"], [f"x{i + 1}" for i in range(PIPE_N)], [x0])
    _write_csv(files["u"], [f"u{i + 1}" for i in range(PIPE_M)],
               u[:, :PIPE_STEPS].T)
    _write_csv(files["probe"], [f"x{i + 1}" for i in range(PIPE_N)], [probe])
    truths = {"full": tensor,
              "tt": tensor_train.tt_decompose(tensor),
              "ht": hier_tucker.htd_decompose(tensor)}
    for name, dyn in truths.items():
        files[f"truth_{name}"] = os.path.join(workdir, f"truth_{name}.json")
        serialize.write_model(files[f"truth_{name}"], model.HpdsModel(
            PIPE_K, PIPE_N, dyn, B=b, C=c))
    return {"dir": workdir, "files": files, "tensor": tensor, "b": b,
            "c": c, "u": u, "x0": x0, "probe": probe,
            "noise_seed": int(_rng(seed, 501).integers(2 ** 31))}


def _round_trip_argv(state: dict, repr_name: str) -> tuple[list, dict]:
    d, f = state["dir"], state["files"]
    out = {name: os.path.join(d, f"{name}_{repr_name}.{ext}")
           for name, ext in (("traj", "csv"), ("fit", "json"),
                             ("con", "json"), ("obs", "json"))}
    commands = [
        ["simulate", "--model", f[f"truth_{repr_name}"], "--x0", f["x0"],
         "--input", f["u"], "--tau", repr(PIPE_TAU),
         "--steps", str(PIPE_STEPS), "--method", "discrete",
         "--noise-std", repr(PIPE_SIGMA), "--seed", str(state["noise_seed"]),
         "--out", out["traj"]],
        ["identify", "--data", out["traj"], "--order", str(PIPE_K), "--io",
         "--repr", repr_name, "--out", out["fit"]],
        ["analyze", "controllability", "--model", out["fit"],
         "--out", out["con"]],
        ["analyze", "observability", "--model", out["fit"],
         "--x", state["files"]["probe"], "--out", out["obs"]],
    ]
    return commands, out


def _run_commands(commands: list) -> list[int]:
    return [cli.run(argv) for argv in commands]


def _truth_outputs(state: dict) -> np.ndarray:
    """Noise-free outputs of the truth over the whole input."""
    x = state["x0"]
    states = [x]
    for u in state["u"].T:
        x = oracles.step_discrete(state["tensor"], state["b"], x, u, PIPE_TAU)
        states.append(x)
    return state["c"] @ np.column_stack(states)


def _one_step_error(fit: dict, state: dict, outputs: np.ndarray) -> float:
    """RMS error of the fitted model's one-step output predictions over the
    held-out steps, each started from the noise-free output's state
    estimate in the fitted basis."""
    errs = []
    for t in range(PIPE_STEPS, PIPE_STEPS + PIPE_HELD_OUT):
        z, *_ = np.linalg.lstsq(fit["C"], outputs[:, t], rcond=None)
        z_next = oracles.step_discrete(fit["A"], fit["B"], z,
                                       state["u"][:, t], PIPE_TAU)
        errs.append(fit["C"] @ z_next - outputs[:, t + 1])
    return float(np.sqrt(np.mean(np.square(errs))))


def operations_pipeline(state: dict, seed: int) -> Workload:
    outputs = _truth_outputs(state)
    reference: dict[str, dict] = {}
    ops = []
    for repr_name in ("full", "tt", "ht"):
        commands, out = _round_trip_argv(state, repr_name)

        def check(codes, repr_name=repr_name, out=out):
            _require(codes == [0, 0, 0, 0], f"exit codes {codes}")
            blobs = {}
            for name, path in out.items():
                with open(path, "rb") as handle:
                    blobs[name] = handle.read()
                # the next round then writes new files: on ext4, renaming
                # over an existing file starts its writeback, which made the
                # round trip's time swing with the disk
                os.remove(path)
            if repr_name in reference:
                _require(blobs == reference[repr_name]["blobs"],
                         "rerun output is not byte-identical")
                return
            reference[repr_name] = {"blobs": blobs}
            _check_round_trip(state, outputs, blobs, repr_name, reference)

        ops.append(Op(f"dissipative3k4/{repr_name}", repr_name,
                      lambda c=commands: _run_commands(c), check))

    def params(_results) -> tuple[int, int]:
        return reference["tt"]["params"], reference["ht"]["params"]

    return Workload(ops, params)


def _check_round_trip(state: dict, outputs: np.ndarray, blobs: dict,
                      repr_name: str, reference: dict) -> None:
    fit_obj = json.loads(blobs["fit"])
    _require(fit_obj["repr"] == repr_name,
             f"identified model is {fit_obj['repr']}, asked for {repr_name}")
    fit = oracles.parse_model(fit_obj)
    if repr_name != "full":
        count = tensor_train.tt_param_count if repr_name == "tt" \
            else hier_tucker.htd_param_count
        reference[repr_name]["params"] = count(
            serialize.model_from_obj(fit_obj).dynamics)
    con, obs = json.loads(blobs["con"]), json.loads(blobs["obs"])
    n, k = fit["n"], fit["k"]
    rank, _ = oracles.reachable_dense(fit["A"], fit["B"])
    _require(con["rank"] == rank and con["verdict"] == _verdict(k, rank, n),
             f"controllability {con['rank']}/{con['verdict']}, oracle {rank}")
    obs_rank = oracles.observability_rank(fit["A"], fit["C"], state["probe"])
    _require(obs["rank"] == obs_rank and obs["verdict"] == (obs_rank == n),
             f"observability {obs['rank']}, oracle {obs_rank}")
    err = _one_step_error(fit, state, outputs)
    _require(err <= PIPE_PREDICT_BOUND,
             f"held-out one-step output error {err:.2e} > {PIPE_PREDICT_BOUND}")


SETUP = {"reach": setup_reach, "observe": setup_observe,
         "identify": setup_identify, "pipeline": setup_pipeline}
OPERATIONS = {"reach": operations_reach, "observe": operations_observe,
              "identify": operations_identify,
              "pipeline": operations_pipeline}
