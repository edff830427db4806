"""Spans around the package's public functions, and the per-layer metrics.

The traced run rebinds each function listed in ``TRACED`` in every loaded
``hpdstensor`` module that holds it, since the package imports names with
``from .x import y``.  Each call records a
span (name, start, end, parent) in memory, plus a few facts about its
arguments or result that the metrics need.  ``uninstall`` restores the
original functions, so untraced code pays nothing.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "tensor_core": ("is_almost_symmetric", "contract_leading",
                    "khatri_rao_power", "almost_symmetrize"),
    "kernels": ("compact_svd",),
    "tensor_train": ("tt_contract", "tt_decompose"),
    "hier_tucker": ("htd_contract", "htd_decompose"),
    "analysis": ("controllability_full", "controllability_tt",
                 "controllability_ht", "observability_full",
                 "observability_tt", "observability_ht", "lift_operator",
                 "gradient_sum"),
    "sysid": ("check_identifiability_autonomous", "identify_full",
              "identify_tt", "identify_ht", "identify_io_noisy"),
    "model": ("eval_derivative", "simulate_discrete"),
    "benchmarks": ("gen_instance",),
    "serialize": ("write_text_atomic", "write_json_file", "write_model",
                  "write_trajectory_csv", "read_json_file", "read_model",
                  "read_trajectory_csv", "read_vector_csv", "read_input_csv",
                  "read_matrix_file"),
    "cli": ("cmd_simulate", "cmd_identify", "cmd_analyze_controllability",
            "cmd_analyze_observability"),
}

CONTRACTIONS = ("tensor_core.contract_leading", "tensor_train.tt_contract",
                "hier_tucker.htd_contract")
REACH = ("analysis.controllability_full", "analysis.controllability_tt",
         "analysis.controllability_ht")
READERS = ("serialize.read_json_file", "serialize.read_trajectory_csv",
           "serialize.read_vector_csv", "serialize.read_input_csv")


def _facts(name: str, args, result) -> dict | None:
    """Argument and result facts recorded with a span."""
    if name == "kernels.compact_svd":
        rows, cols = np.atleast_2d(np.asarray(args[0])).shape
        return {"rows": rows, "cols": cols}
    if name == "tensor_core.khatri_rao_power":
        return {"rows": np.atleast_2d(args[0]).shape[0] ** int(args[1])}
    if name in REACH and result is not None:
        b = np.atleast_2d(np.asarray(args[1], dtype=float))
        return {"iterations": result.iterations, "rank": result.rank,
                "rank0": int(np.linalg.matrix_rank(b))}
    if name == "serialize.write_text_atomic":
        return {"bytes": len(args[1].encode())}
    if name in READERS:
        return {"bytes": os.path.getsize(args[0])}
    return None


class Tracer:
    """Records spans while installed; ``take`` hands them over in order.

    A span is (name, start, end, parent index or -1, exception name or
    None, facts or None).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, error,
                                _facts(name, args, result))
        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hpdstensor" or key.startswith("hpdstensor.")]
        for short, names in TRACED.items():
            home = sys.modules[f"hpdstensor.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._originals.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def layer_totals(spans: list[tuple]) -> dict[str, float]:
    """Per-layer totals of one list of spans (one setup or one round)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    maxima = defaultdict(int)
    candidates = rounds = gained = 0
    flops = 0.0
    for index, (name, start, end, parent, error, facts) in enumerate(spans):
        duration = end - start
        parent_name = spans[parent][0] if parent >= 0 else ""
        calls[name] += 1
        if parent_name != name:
            total[f"{name}.s"] += duration
        total[f"{name}.self_s"] += duration - child_time[index]
        if name in CONTRACTIONS and parent_name in REACH:
            candidates += 1
        if name in REACH and facts:
            rounds += facts["iterations"]
            gained += facts["rank"] - facts["rank0"]
        if name == "kernels.compact_svd":
            rows, cols = facts["rows"], facts["cols"]
            maxima["kernels.compact_svd.max_rows"] = max(
                maxima["kernels.compact_svd.max_rows"], rows)
            maxima["kernels.compact_svd.max_cols"] = max(
                maxima["kernels.compact_svd.max_cols"], cols)
            flops += rows * cols * min(rows, cols)
        if name == "tensor_core.khatri_rao_power":
            maxima["tensor_core.khatri_rao_power.max_rows"] = max(
                maxima["tensor_core.khatri_rao_power.max_rows"],
                facts["rows"])
        if name.startswith("serialize.") and not parent_name.startswith(
                "serialize."):
            kind = "write" if ".write_" in name else "read"
            total[f"serialize.{kind}.s"] += duration
        if facts and "bytes" in facts:
            kind = "written" if name.endswith("write_text_atomic") else "read"
            total[f"serialize.bytes_{kind}"] += facts["bytes"]
    out = dict(total)
    out.update({f"{name}.calls": float(c) for name, c in calls.items()})
    out.update({name: float(v) for name, v in maxima.items()})
    out["kernels.compact_svd.flops"] = flops
    out["analysis.reach.rounds"] = float(rounds)
    out["analysis.reach.candidates"] = float(candidates)
    out["analysis.reach.gained"] = float(gained)
    return out


def write_spans(path: str, spans: list[tuple], phase: str) -> None:
    """Append spans as JSON lines: index, name, start, end, parent."""
    with open(path, "a") as handle:
        for index, (name, start, end, parent, error, facts) in \
                enumerate(spans):
            handle.write(json.dumps({
                "phase": phase, "id": index, "name": name, "start": start,
                "end": end, "parent": parent, "error": error,
                "facts": facts}) + "\n")
