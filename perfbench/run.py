"""End-to-end benchmark of hpdstensor's three representations.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reach --seed 1 --seconds 25 --trace 0

One process runs one workload: it sets the workload up, computes the
oracle answers, makes one warm-up call per operation, then runs whole rounds
of every operation in a fixed interleaved order until the rounds have taken
``--seconds``.  Between rounds it sets the workload up again whenever the
repeated set-ups have taken less than SETUP_SHARE of the time so far;
``setup_s`` is the median of all set-ups.  Every result is checked.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds alternately untraced and traced, prints the per-layer metrics, and
writes the spans of one setup and one round to
``perfbench/results/trace-<workload>-seed<seed>.jsonl``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os

# BLAS and OpenMP on one thread: set before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
import tracer as tracing  # noqa: E402

# Repeated set-ups are spread over the run like the operations, so that a
# slow phase of the machine weighs on setup_s as it does on the rest.
SETUP_SHARE = 0.2
MIN_ROUNDS = 3
RESULTS = os.path.join(HERE, "results")

END_TO_END_UNITS = {"setup_s": "s", "full_s": "s", "tt_s": "s", "ht_s": "s",
                    "params_tt": "entries", "params_ht": "entries",
                    "peak_rss_mb": "MB"}

# Per-layer metrics and their units.  Most are keys of
# tracer.layer_totals; the cli ones are renamed from the command functions,
# and useful_ratio and overhead are derived below.
PER_LAYER = {
    "tensor_core.is_almost_symmetric.s": "s",
    "tensor_core.contract_leading.calls": "count",
    "tensor_core.contract_leading.s": "s",
    "tensor_core.khatri_rao_power.calls": "count",
    "tensor_core.khatri_rao_power.s": "s",
    "tensor_core.khatri_rao_power.max_rows": "rows",
    "tensor_core.almost_symmetrize.s": "s",
    "kernels.compact_svd.calls": "count",
    "kernels.compact_svd.s": "s",
    "kernels.compact_svd.max_rows": "rows",
    "kernels.compact_svd.max_cols": "cols",
    "kernels.compact_svd.flops": "flop_computed",
    "tensor_train.tt_contract.calls": "count",
    "tensor_train.tt_contract.s": "s",
    "tensor_train.tt_decompose.s": "s",
    "hier_tucker.htd_contract.calls": "count",
    "hier_tucker.htd_contract.s": "s",
    "hier_tucker.htd_decompose.s": "s",
    "analysis.reach.rounds": "count",
    "analysis.reach.candidates": "count",
    "analysis.reach.useful_ratio": "rank/candidate",
    "analysis.lift_operator.s": "s",
    "analysis.gradient_sum.s": "s",
    "analysis.controllability_tt.self_s": "s",
    "analysis.controllability_ht.self_s": "s",
    "analysis.observability_tt.self_s": "s",
    "analysis.observability_ht.self_s": "s",
    "sysid.check_identifiability_autonomous.s": "s",
    "sysid.identify_full.self_s": "s",
    "sysid.identify_tt.self_s": "s",
    "sysid.identify_ht.self_s": "s",
    "sysid.identify_io_noisy.s": "s",
    "model.eval_derivative.calls": "count",
    "model.eval_derivative.s": "s",
    "model.simulate_discrete.s": "s",
    "benchmarks.gen_instance.s": "s",
    "serialize.bytes_written": "B",
    "serialize.bytes_read": "B",
    "serialize.write.s": "s",
    "serialize.read.s": "s",
    "cli.simulate.s": "s",
    "cli.identify.s": "s",
    "cli.analyze_controllability.s": "s",
    "cli.analyze_observability.s": "s",
    "trace.overhead": "ratio",
}


class Tally:
    """Attempted and failed operations, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.wrong: dict[str, int] = {}

    def restart(self):
        """Count from zero again (after warm-up); wrong outputs are kept."""
        self.attempted = 0
        self.failed.clear()

    def _add(self, table: dict, key: str):
        table[key] = table.get(key, 0) + 1

    def record(self, op: workloads.Op, result, error) -> bool:
        """Check one outcome; True when it is a success to be timed."""
        self.attempted += 1
        if op.is_fault is not None and op.is_fault(result, error):
            self._add(self.failed, f"{op.name}: {op.fault}")
            return False
        if error is not None:
            key = f"{op.name}: {type(error).__name__}: {error}"
            self._add(self.failed, key)
            self._add(self.wrong, key)
            return False
        try:
            op.check(result)
        except workloads.Mismatch as exc:
            self._add(self.wrong, f"{op.name}: {exc}")
        return True


def call(op: workloads.Op):
    """Run one operation with garbage collection off; (result, error, s)."""
    gc.collect()
    gc.disable()
    result, error = None, None
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # the tally decides whether it was expected
        error = exc
    elapsed = time.perf_counter() - start
    gc.enable()
    return result, error, elapsed


def set_up(name: str, seed: int, directory: str, times: list):
    """Set the workload up once in ``directory``, which must be new, so that
    no set-up replaces existing files (see the pipeline check); garbage
    collection is off while timing, and the time is appended to ``times``."""
    os.makedirs(directory)
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    state = workloads.SETUP[name](seed, directory)
    times.append(time.perf_counter() - start)
    gc.enable()
    return state


def median_sum(samples: dict, ops, repr_name: str) -> float:
    return sum(statistics.median(samples[op.name]) for op in ops
               if op.repr == repr_name and samples[op.name])


def run_untraced(name: str, seed: int, seconds: float, workdir: str):
    setup_times = []
    state = set_up(name, seed, os.path.join(workdir, "setup"), setup_times)
    work = workloads.OPERATIONS[name](state, seed)
    tally = Tally()
    warm = {}
    for op in work.ops:
        result, error, _ = call(op)
        if tally.record(op, result, error):
            warm[op.name] = result
    tally.restart()
    samples = {op.name: [] for op in work.ops}
    start = time.perf_counter()
    rounds = 0
    again = os.path.join(workdir, "again")
    while rounds < MIN_ROUNDS or \
            time.perf_counter() - start - sum(setup_times[1:]) < seconds:
        for op in work.ops:
            result, error, elapsed = call(op)
            if tally.record(op, result, error):
                samples[op.name].append(elapsed)
        rounds += 1
        if sum(setup_times[1:]) < SETUP_SHARE * (time.perf_counter() - start):
            set_up(name, seed, again, setup_times)
            shutil.rmtree(again)
    params_tt, params_ht = work.params(warm)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "full_s": median_sum(samples, work.ops, "full"),
        "tt_s": median_sum(samples, work.ops, "tt"),
        "ht_s": median_sum(samples, work.ops, "ht"),
        "params_tt": params_tt,
        "params_ht": params_ht,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = END_TO_END_UNITS
    return tally, rounds, {key: {"value": float(value), "unit": units[key]}
                           for key, value in metrics.items()}


def run_traced(name: str, seed: int, seconds: float, workdir: str):
    tracer = tracing.Tracer()
    os.makedirs(RESULTS, exist_ok=True)
    span_path = os.path.join(RESULTS, f"trace-{name}-seed{seed}.jsonl")
    if os.path.exists(span_path):
        os.remove(span_path)

    tracer.install()
    try:
        state = workloads.SETUP[name](seed, workdir)
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()
    tracing.write_spans(span_path, setup_spans, "setup")
    setup_totals = tracing.layer_totals(setup_spans)

    work = workloads.OPERATIONS[name](state, seed)
    tally = Tally()
    for op in work.ops:
        tally.record(op, *call(op)[:2])
    tally.restart()
    plain = {op.name: [] for op in work.ops}
    traced = {op.name: [] for op in work.ops}
    round_totals = []
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 * MIN_ROUNDS or time.perf_counter() - start < seconds:
        with_trace = rounds % 2 == 1
        for op in work.ops:
            if with_trace:
                tracer.install()
            try:
                result, error, elapsed = call(op)
            finally:
                tracer.uninstall()
            if tally.record(op, result, error):
                (traced if with_trace else plain)[op.name].append(elapsed)
        if with_trace:
            spans = tracer.take()
            if not round_totals:
                tracing.write_spans(span_path, spans, "round")
            round_totals.append(tracing.layer_totals(spans))
        rounds += 1

    layer = {}
    for key in set(setup_totals).union(*round_totals):
        in_round = statistics.median(t.get(key, 0.0) for t in round_totals)
        in_setup = setup_totals.get(key, 0.0)
        layer[key] = max(in_setup, in_round) if ".max_" in key \
            else in_setup + in_round
    for command in ("simulate", "identify", "analyze_controllability",
                    "analyze_observability"):
        layer[f"cli.{command}.s"] = layer.get(f"cli.cmd_{command}.s", 0.0)
    candidates = layer.get("analysis.reach.candidates", 0.0)
    layer["analysis.reach.useful_ratio"] = \
        layer.get("analysis.reach.gained", 0.0) / candidates \
        if candidates else 0.0
    layer["trace.overhead"] = \
        sum(median_sum(traced, work.ops, r) for r in ("full", "tt", "ht")) \
        / sum(median_sum(plain, work.ops, r) for r in ("full", "tt", "ht")) \
        - 1.0
    metrics = {metric: {"value": float(layer.get(metric, 0.0)), "unit": unit}
               for metric, unit in PER_LAYER.items()}
    return tally, rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = run_traced if args.trace else run_untraced
        tally, rounds, metrics = runner(args.workload, args.seed,
                                        args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(os.path.dirname(workdir)):
            os.rmdir(os.path.dirname(workdir))

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{tally.attempted} operations attempted, "
          f"{sum(tally.failed.values())} failed")
    for what, count in sorted(tally.failed.items()):
        print(f"failed x{count}  {what}")
    for what, count in sorted(tally.wrong.items()):
        print(f"WRONG x{count}  {what}")
    print(json.dumps({"correct": not tally.wrong,
                      "attempted": tally.attempted,
                      "failed": sum(tally.failed.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
