"""Command-line interface wiring the pipelines to files.

Exit codes: 0 success, 1 usage error, 2 identifiability condition failed
(a machine-readable report is still written), 3 numerical failure or
divergence, 4 scale guard tripped.  Outputs are written atomically and,
apart from the wall-clock rows of ``bench time``, reruns of the same
command produce byte-identical files.  Format names (``--repr``,
``decompose --method``) are keys of ``model.FORMATS``, which builds each
format, and of ``serialize.CODECS``, which stores it.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import analysis, benchmarks, serialize
from .errors import (ArgumentError, DivergenceError, HpdsError,
                     IdentifiabilityError, NumericError, ScaleError)
from .kernels import RankTolerance
from .model import FORMATS, add_noise, simulate_continuous, simulate_discrete
from .randomness import generator
from .sysid import identify_full, identify_ht, identify_io_noisy, identify_tt

SCHEME_ALIASES = {"sym": "symmetric", "lowtt": "low_tt", "lowht": "low_ht",
                  "symmetric": "symmetric", "low_tt": "low_tt",
                  "low_ht": "low_ht"}


def _tolerance(args) -> RankTolerance | None:
    return None if args.tol is None else RankTolerance("relative", args.tol)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def cmd_simulate(args) -> int:
    model = serialize.read_model(args.model)
    x0 = serialize.read_vector_csv(args.x0)
    u = serialize.read_input_csv(args.input) if args.input else None
    if args.method == "discrete":
        samples = simulate_discrete(model, x0, u=u, tau=args.tau,
                                    steps=args.steps)
    else:
        samples = simulate_continuous(model, x0, u=u, tau=args.tau,
                                      steps=args.steps, method=args.method)
    if args.noise_std:
        samples = add_noise(samples, args.noise_std, seed=args.seed)
    serialize.write_trajectory_csv(args.out, samples)
    return 0


def cmd_identify(args) -> int:
    samples = serialize.read_trajectory_csv(args.data)
    tol = _tolerance(args)
    try:
        if args.io:
            model = identify_io_noisy(samples, args.order, tol=tol,
                                      form=args.repr)
        else:
            # tt and ht convert at the recovery's own conversion tolerance
            identify = {"full": identify_full, "tt": identify_tt,
                        "ht": identify_ht}[args.repr]
            model = identify(samples, args.order, tol=tol)
    except IdentifiabilityError as exc:
        fields = ("observed_rank", "required_rank", "satisfied", "margin",
                  "ill_conditioned")
        serialize.write_json_file(args.out, {"error": "identifiability", **{
            name: getattr(exc.report, name) for name in fields}})
        print(f"identifiability condition failed: {exc}", file=sys.stderr)
        return 2
    serialize.write_model(args.out, model)
    return 0


def cmd_analyze_controllability(args) -> int:
    model = serialize.read_model(args.model)
    b = serialize.read_matrix_file(args.B) if args.B else model.B
    if b is None:
        raise ArgumentError("no control matrix: pass --B or store B in the model")
    result = analysis.controllability(model.dynamics, b, _tolerance(args))
    serialize.write_json_file(args.out, {
        "rank": result.rank,
        "n": model.n,
        "verdict": result.verdict,
        "iterations": result.iterations,
        "representation": model.representation,
    })
    return 0


def cmd_analyze_observability(args) -> int:
    model = serialize.read_model(args.model)
    c = serialize.read_matrix_file(args.C) if args.C else model.C
    if c is None:
        raise ArgumentError("no output matrix: pass --C or store C in the model")
    if args.x:
        probes = [serialize.read_vector_csv(args.x)]
    else:
        g = generator(args.seed)
        probes = [g.random(model.n) * 2.0 - 1.0 for _ in range(args.probes)]
    if not probes:
        raise ArgumentError("at least one probe state is required")
    tol = _tolerance(args)
    # a full-rank probe settles the generic verdict; else keep the best rank
    best = None
    for tried, x in enumerate(probes, 1):
        result = analysis.observability(model.dynamics, c, x, args.depth, tol)
        if best is None or result.matrix_rank > best.matrix_rank:
            best = result
        if best.verdict:
            break
    serialize.write_json_file(args.out, {
        "rank": best.matrix_rank,
        "n": best.n,
        "verdict": bool(best.verdict),
        "depth": best.depth,
        "probes": tried,
        "representation": model.representation,
    })
    return 0


def cmd_decompose(args) -> int:
    tensor = serialize.read_tensor_file(args.tensor)
    dynamics = FORMATS[args.method].from_dense(tensor, _tolerance(args))
    to_obj, _ = serialize.CODECS[args.method]
    serialize.write_json_file(args.out, to_obj(dynamics))
    return 0


def _schemes(arg: str):
    if arg == "all":
        return benchmarks.SCHEMES
    names = []
    for part in arg.split(","):
        part = part.strip()
        if part not in SCHEME_ALIASES:
            raise ArgumentError(f"unknown scheme {part!r}")
        names.append(SCHEME_ALIASES[part])
    return tuple(names)


def cmd_bench(args) -> int:
    schemes = _schemes(args.scheme)
    ks = list(range(args.k_min, args.k_max + 1))
    if not ks:
        raise ArgumentError("empty order range")
    ns = _int_list(args.n)
    if not ns:
        raise ArgumentError("empty --n list")
    if args.mode == "memory":
        if len(ns) != 1:
            raise ArgumentError("bench memory takes a single n")
        records = benchmarks.memory_report(ns[0], ks, schemes,
                                           rank_cap=args.rank_cap,
                                           seed=args.seed)
    else:
        records = benchmarks.timing_report(ns, ks, schemes, m=args.m,
                                           rank_cap=args.rank_cap,
                                           seed=args.seed,
                                           repeats=args.repeats,
                                           tol=_tolerance(args))
    serialize.write_bench_csv(args.out, records)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand names its
    ``cmd_*`` handler, which :func:`run` looks up at call time, so a wrapper
    rebound on this module (as a tracer installs) is the one called."""
    parser = argparse.ArgumentParser(
        prog="hpdstensor",
        description="Identify and analyze homogeneous polynomial dynamical "
                    "systems in full, tensor-train, or hierarchical Tucker "
                    "representation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a model and write a "
                                          "trajectory csv")
    sim.add_argument("--model", required=True)
    sim.add_argument("--x0", required=True, help="csv with the initial state")
    sim.add_argument("--input", help="csv of input samples, one row per step")
    sim.add_argument("--tau", type=float, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--method", choices=["rk4", "euler", "discrete"],
                     default="rk4")
    sim.add_argument("--noise-std", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(handler="cmd_simulate")

    ident = sub.add_parser("identify", help="fit a model from a trajectory csv")
    ident.add_argument("--data", required=True)
    ident.add_argument("--order", type=int, required=True)
    ident.add_argument("--repr", choices=list(FORMATS), default="full")
    ident.add_argument("--io", action="store_true",
                       help="use the input-output regression path")
    ident.add_argument("--tol", type=float)
    ident.add_argument("--out", required=True)
    ident.set_defaults(handler="cmd_identify")

    ana = sub.add_parser("analyze", help="controllability or observability")
    ana_sub = ana.add_subparsers(dest="what", required=True)

    con = ana_sub.add_parser("controllability")
    con.add_argument("--model", required=True)
    con.add_argument("--B", help="control matrix json (defaults to model B)")
    con.add_argument("--tol", type=float)
    con.add_argument("--out", required=True)
    con.set_defaults(handler="cmd_analyze_controllability")

    obs = ana_sub.add_parser("observability")
    obs.add_argument("--model", required=True)
    obs.add_argument("--C", help="output matrix json (defaults to model C)")
    obs.add_argument("--x", help="csv with one probe state")
    obs.add_argument("--probes", type=int, default=5)
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--depth", type=int)
    obs.add_argument("--tol", type=float)
    obs.add_argument("--out", required=True)
    obs.set_defaults(handler="cmd_analyze_observability")

    dec = sub.add_parser("decompose", help="decompose a dense tensor json")
    dec.add_argument("--tensor", required=True)
    dec.add_argument("--method", choices=["tt", "ht"], required=True)
    dec.add_argument("--tol", type=float)
    dec.add_argument("--out", required=True)
    dec.set_defaults(handler="cmd_decompose")

    bench = sub.add_parser("bench", help="memory or timing comparison csv")
    bench.add_argument("mode", choices=["memory", "time"])
    bench.add_argument("--n", required=True,
                       help="dimension, or comma list for bench time")
    bench.add_argument("--k-max", dest="k_max", type=int, required=True)
    bench.add_argument("--k-min", dest="k_min", type=int, default=3)
    bench.add_argument("--scheme", default="all",
                       help="sym|lowtt|lowht, comma list, or all")
    bench.add_argument("--rank-cap", dest="rank_cap", type=int, default=2)
    bench.add_argument("--m", type=int, default=5)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--tol", type=float)
    bench.add_argument("--out", required=True)
    bench.set_defaults(handler="cmd_bench")

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return globals()[args.handler](args)
    except (DivergenceError, NumericError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ScaleError as exc:
        print(f"scale guard: {exc}", file=sys.stderr)
        return 4
    except (HpdsError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
