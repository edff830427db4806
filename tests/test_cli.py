import json
import math

import numpy as np
import pytest

from hpdstensor import cli, serialize
from hpdstensor import model as model_module
from hpdstensor import tensor_core as tc
from hpdstensor.benchmarks import gen_instance
from hpdstensor.cli import run
from hpdstensor.errors import (ArgumentError, AssumptionError,
                               DivergenceError, HpdsError, NumericError,
                               ScaleError, ShapeError)
from hpdstensor.hier_tucker import build_tree, htd_decompose, htd_reconstruct
from hpdstensor.model import HpdsModel, eval_derivative, simulate_discrete
from hpdstensor.tensor_train import tt_reconstruct


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    tensor = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
    model = HpdsModel(3, 3, tensor, B=0.3 * rng.standard_normal((3, 2)),
                      C=np.linalg.qr(rng.standard_normal((4, 3)))[0])
    paths = {
        "model": tmp_path / "model.json",
        "x0": tmp_path / "x0.csv",
        "B": tmp_path / "B.json",
        "eye": tmp_path / "eye.json",
        "dir": tmp_path,
    }
    serialize.write_model(str(paths["model"]), model)
    paths["x0"].write_text("0.2,-0.1,0.15\n")
    serialize.write_json_file(str(paths["B"]),
                              serialize.matrix_to_obj(model.B))
    serialize.write_json_file(str(paths["eye"]),
                              serialize.matrix_to_obj(np.eye(3)))
    return model, paths


def test_simulate_then_identify_round_trip(workspace):
    model, paths = workspace
    traj = paths["dir"] / "traj.csv"
    assert run(["simulate", "--model", str(paths["model"]),
                "--x0", str(paths["x0"]), "--tau", "0.02", "--steps", "40",
                "--out", str(traj)]) == 0
    out = paths["dir"] / "ident.json"
    assert run(["identify", "--data", str(traj), "--order", "3",
                "--repr", "full", "--out", str(out)]) == 0
    fitted = serialize.read_model(str(out))
    rel = np.linalg.norm(fitted.dynamics - np.asarray(model.dynamics)) \
        / np.linalg.norm(model.dynamics)
    assert rel <= 1e-8
    # re-simulating the identified model reproduces the data
    rng = np.random.default_rng(1)
    x = 0.3 * rng.standard_normal(3)
    assert np.allclose(eval_derivative(fitted, x), eval_derivative(model, x),
                       atol=1e-9)


@pytest.mark.parametrize("rep,reconstruct", [
    ("tt", tt_reconstruct), ("ht", htd_reconstruct)])
def test_identify_decomposed_representations(workspace, rep, reconstruct):
    model, paths = workspace
    traj = paths["dir"] / "traj.csv"
    run(["simulate", "--model", str(paths["model"]), "--x0", str(paths["x0"]),
         "--tau", "0.02", "--steps", "40", "--out", str(traj)])
    out = paths["dir"] / f"ident_{rep}.json"
    assert run(["identify", "--data", str(traj), "--order", "3",
                "--repr", rep, "--out", str(out)]) == 0
    fitted = serialize.read_model(str(out))
    assert fitted.representation == rep
    assert np.allclose(reconstruct(fitted.dynamics),
                       np.asarray(model.dynamics), atol=1e-8)


def test_identify_underdetermined_exits_2_with_report(workspace):
    model, paths = workspace
    traj = paths["dir"] / "short.csv"
    run(["simulate", "--model", str(paths["model"]), "--x0", str(paths["x0"]),
         "--tau", "0.02", "--steps", "3", "--out", str(traj)])
    out = paths["dir"] / "fail.json"
    assert run(["identify", "--data", str(traj), "--order", "3",
                "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["error"] == "identifiability"
    assert report["observed_rank"] < report["required_rank"]
    assert report["satisfied"] is False


def test_identify_io_from_discrete_csv(workspace, tmp_path):
    model, paths = workspace
    rng = np.random.default_rng(2)
    t_count = 30
    u = 0.1 * rng.standard_normal((2, t_count))
    u_csv = tmp_path / "u.csv"
    u_csv.write_text("\n".join(",".join(serialize.format_float(v)
                                        for v in u[:, i])
                               for i in range(t_count)) + "\n")
    traj = tmp_path / "io.csv"
    assert run(["simulate", "--model", str(paths["model"]),
                "--x0", str(paths["x0"]), "--input", str(u_csv),
                "--tau", "0.05", "--steps", str(t_count),
                "--method", "discrete", "--out", str(traj)]) == 0
    out = tmp_path / "io_model.json"
    assert run(["identify", "--data", str(traj), "--order", "3", "--io",
                "--out", str(out)]) == 0
    fitted = serialize.read_model(str(out))
    # outputs reproduced in the identified basis
    reference = simulate_discrete(model, np.array([0.2, -0.1, 0.15]), u=u,
                                  tau=0.05, steps=t_count)
    z0 = fitted.C.T @ reference.Y0[:, 0]
    replay = simulate_discrete(fitted, z0, u=u, tau=0.05, steps=t_count)
    assert np.max(np.abs(replay.Y0 - reference.Y0)) <= 1e-7


def test_identify_io_on_zero_outputs_exits_2_with_report(workspace, tmp_path):
    model, paths = workspace
    silent = tmp_path / "silent.json"
    serialize.write_model(str(silent),
                          HpdsModel(3, 3, model.dynamics, B=model.B,
                                    C=np.zeros((4, 3))))
    u_csv = tmp_path / "u.csv"
    u = 0.1 * np.random.default_rng(2).standard_normal((30, 2))
    u_csv.write_text("".join(",".join(map(serialize.format_float, row)) + "\n"
                             for row in u))
    traj = tmp_path / "silent.csv"
    assert run(["simulate", "--model", str(silent), "--x0", str(paths["x0"]),
                "--input", str(u_csv), "--tau", "0.05", "--steps", "30",
                "--method", "discrete", "--out", str(traj)]) == 0
    out = tmp_path / "silent_fit.json"
    assert run(["identify", "--data", str(traj), "--order", "3", "--io",
                "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["error"] == "identifiability"
    assert report["satisfied"] is False
    assert report["observed_rank"] < report["required_rank"]


def test_analyze_controllability_report(workspace):
    model, paths = workspace
    out = paths["dir"] / "con.json"
    assert run(["analyze", "controllability", "--model", str(paths["model"]),
                "--B", str(paths["eye"]), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rank"] == 3
    assert report["verdict"] == "accessible"  # k = 3 is odd
    assert report["representation"] == "full"
    assert set(report) == {"rank", "n", "verdict", "iterations",
                           "representation"}
    # the report depends only on the inputs: there is no wall-clock option
    timed = paths["dir"] / "timed.json"
    assert run(["analyze", "controllability", "--model", str(paths["model"]),
                "--B", str(paths["eye"]), "--timing",
                "--out", str(timed)]) == 1
    assert not timed.exists()

    # even-k model with identity input is strongly controllable
    rng = np.random.default_rng(3)
    t4 = tc.almost_symmetrize(rng.standard_normal((3, 3, 3, 3)))
    even_model = paths["dir"] / "even.json"
    serialize.write_model(str(even_model), HpdsModel(4, 3, t4))
    out4 = paths["dir"] / "con4.json"
    assert run(["analyze", "controllability", "--model", str(even_model),
                "--B", str(paths["eye"]), "--out", str(out4)]) == 0
    assert json.loads(out4.read_text())["verdict"] == "strongly_controllable"


def test_analyze_controllability_uses_model_b(workspace):
    _, paths = workspace
    out = paths["dir"] / "con_default.json"
    assert run(["analyze", "controllability", "--model", str(paths["model"]),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rank"] >= 1


def test_analyze_observability_probes(workspace):
    _, paths = workspace
    out = paths["dir"] / "obs.json"
    assert run(["analyze", "observability", "--model", str(paths["model"]),
                "--probes", "4", "--seed", "1", "--depth", "2",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] is True
    assert report["rank"] == 3
    assert report["representation"] == "full"
    # a full-rank probe settles the verdict: the first one ends the search
    assert report["probes"] == 1
    assert set(report) == {"rank", "n", "verdict", "depth", "probes",
                           "representation"}
    timed = paths["dir"] / "timed.json"
    assert run(["analyze", "observability", "--model", str(paths["model"]),
                "--timing", "--out", str(timed)]) == 1
    assert not timed.exists()


def test_analyze_observability_tries_every_probe_short_of_full_rank(
        tmp_path, capsys):
    path = tmp_path / "zero.json"
    serialize.write_model(str(path), HpdsModel(3, 3, np.zeros((3, 3, 3)),
                                               C=np.zeros((1, 3))))
    out = tmp_path / "obs.json"
    argv = ["analyze", "observability", "--model", str(path), "--depth", "1"]
    assert run(argv + ["--probes", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["probes"] == 4 and report["verdict"] is False
    assert report["rank"] == 0
    none = tmp_path / "none.json"
    assert run(argv + ["--probes", "0", "--out", str(none)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not none.exists()


def _leftovers(directory) -> list[str]:
    """Temporary files an atomic write left behind in ``directory``."""
    return [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")]


def test_simulate_refuses_a_mistyped_input_row(workspace, capsys):
    _, paths = workspace
    rows = ["u1,u2"] + [f"0.0{i},0.1" for i in range(12)]
    rows[4] = "0.03,0.0x3"   # the fourth data row, line 5 of the file
    u_csv = paths["dir"] / "u.csv"
    u_csv.write_text("\n".join(rows) + "\n")
    traj = paths["dir"] / "traj.csv"
    assert run(["simulate", "--model", str(paths["model"]),
                "--x0", str(paths["x0"]), "--input", str(u_csv),
                "--tau", "0.05", "--steps", "10", "--method", "discrete",
                "--out", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(u_csv) in err and "line 5" in err
    assert not traj.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_simulate_refuses_a_non_finite_noise_std(workspace, capsys, sigma):
    _, paths = workspace
    traj = paths["dir"] / "traj.csv"
    assert run(["simulate", "--model", str(paths["model"]),
                "--x0", str(paths["x0"]), "--tau", "0.02", "--steps", "5",
                "--noise-std", sigma, "--out", str(traj)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not traj.exists() and not _leftovers(paths["dir"])


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_a_seed_outside_64_bits_exits_1(workspace, capsys, seed):
    _, paths = workspace
    out = paths["dir"] / "out"
    for argv in (
            ["simulate", "--model", str(paths["model"]),
             "--x0", str(paths["x0"]), "--tau", "0.02", "--steps", "5",
             "--noise-std", "0.1"],
            ["analyze", "observability", "--model", str(paths["model"])],
            ["bench", "memory", "--n", "2", "--k-min", "3", "--k-max", "3"]):
        assert run(argv + ["--seed", seed, "--out", str(out)]) == 1, argv
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists() and not _leftovers(paths["dir"])


def _input_csv(path, t_count=30):
    u = 0.1 * np.random.default_rng(2).standard_normal((t_count, 2))
    path.write_text("".join(",".join(map(serialize.format_float, row)) + "\n"
                            for row in u))
    return path


@pytest.mark.parametrize("seed,code", [(2 ** 64 - 1, 0), (2 ** 64, 1)])
def test_the_top_seed_draws_a_second_stream(workspace, tmp_path, capsys,
                                            seed, code):
    # simulate's Y0 noise and bench time's B take the next seed's stream,
    # which wraps at 2^64 - 1, while 2^64 stays refused
    _, paths = workspace
    u_csv = _input_csv(tmp_path / "u.csv")
    out = tmp_path / "out"
    simulate = ["simulate", "--model", str(paths["model"]),
                "--x0", str(paths["x0"]), "--tau", "0.05", "--steps", "30",
                "--noise-std", "1e-3"]
    for argv in (simulate, simulate + ["--input", str(u_csv),
                                       "--method", "discrete"],
                 ["bench", "time", "--n", "3", "--k-min", "3", "--k-max",
                  "3", "--scheme", "lowtt", "--m", "2", "--repeats", "1"]):
        assert run(argv + ["--seed", str(seed), "--out", str(out)]) == code
        assert out.exists() == (code == 0), argv
        out.unlink(missing_ok=True)
    assert capsys.readouterr().err.count("error: seed must be") == 3 * code


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-6"]])
@pytest.mark.parametrize("rep,rebuild", [
    ("tt", tt_reconstruct), ("ht", htd_reconstruct)])
def test_identify_io_builds_the_format_from_coefficients(
        workspace, tmp_path, monkeypatch, tol, rep, rebuild):
    # --io --repr tt|ht never forms the n^k tensor, and gives the tensor of
    # the full io fit
    _, paths = workspace
    commands, out = _io_round_trip(paths, _input_csv(tmp_path / "u.csv"),
                                   tmp_path, "full")
    assert run(commands[0]) == 0 and run(commands[1] + tol) == 0
    full = serialize.read_model(str(out["fit.json"])).dynamics

    def refuse(*args, **kwargs):
        raise AssertionError("dense route taken")

    for name in ("tt_decompose", "htd_decompose", "_multiset_ranks"):
        monkeypatch.setattr(model_module, name, refuse)
    fit = tmp_path / f"fit_{rep}.json"
    assert run(["identify", "--data", str(out["traj.csv"]), "--order", "3",
                "--io", "--repr", rep, "--out", str(fit)] + tol) == 0
    fitted = serialize.read_model(str(fit))
    assert fitted.representation == rep
    assert np.linalg.norm(rebuild(fitted.dynamics) - full) <= \
        1e-12 * np.linalg.norm(full)


def test_a_directory_as_model_or_out_exits_1(workspace, capsys):
    _, paths = workspace
    folder = paths["dir"] / "folder"
    folder.mkdir()
    traj = paths["dir"] / "traj.csv"
    argv = ["simulate", "--x0", str(paths["x0"]), "--tau", "0.02",
            "--steps", "5"]
    for files in (["--model", str(folder), "--out", str(traj)],
                  ["--model", str(paths["model"]), "--out", str(folder)]):
        assert run(argv + files) == 1, files
        assert capsys.readouterr().err.startswith("error:")
        assert not traj.exists() and not _leftovers(paths["dir"])
    assert folder.is_dir() and not any(folder.iterdir())


def test_decompose_round_trip(tmp_path):
    t = np.random.default_rng(4).standard_normal((2, 3, 2))
    src = tmp_path / "T.json"
    serialize.write_tensor_file(str(src), t)
    out = tmp_path / "T_tt.json"
    assert run(["decompose", "--tensor", str(src), "--method", "tt",
                "--out", str(out)]) == 0
    train = serialize.tt_from_obj(serialize.read_json_file(str(out)))
    assert np.allclose(tt_reconstruct(train), t, atol=1e-10)
    out_h = tmp_path / "T_ht.json"
    assert run(["decompose", "--tensor", str(src), "--method", "ht",
                "--out", str(out_h)]) == 0
    h = serialize.ht_from_obj(serialize.read_json_file(str(out_h)))
    assert np.allclose(htd_reconstruct(h), t, atol=1e-10)


def test_decompose_ht_truncates_at_tol(tmp_path):
    clean = gen_instance("low_tt", 4, 5, rank_cap=2, seed=3).dense
    noise = np.random.default_rng(51).standard_normal(clean.shape)
    src = tmp_path / "T.json"
    serialize.write_tensor_file(str(src), clean + 1e-10 * noise)
    out = tmp_path / "T_ht.json"
    assert run(["decompose", "--tensor", str(src), "--method", "ht",
                "--tol", "1e-6", "--out", str(out)]) == 0
    h = serialize.ht_from_obj(serialize.read_json_file(str(out)))
    want = htd_decompose(clean)
    for node, _ in h.tree.walk():
        assert h.rank_of(node.modes) == want.rank_of(node.modes)
    assert np.linalg.norm(htd_reconstruct(h) - clean) <= \
        1e-8 * np.linalg.norm(clean)


def test_bench_memory_csv(tmp_path):
    out = tmp_path / "mem.csv"
    assert run(["bench", "memory", "--n", "2", "--k-min", "5", "--k-max", "6",
                "--scheme", "lowtt", "--seed", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,n,k,repr,params,elapsed_ms,rank,seed"
    assert len(lines) == 1 + 2 * 3  # two orders, three representations
    assert all(line.startswith("low_tt") for line in lines[1:])


def test_bench_time_csv(tmp_path):
    out = tmp_path / "time.csv"
    assert run(["bench", "time", "--n", "4", "--k-min", "4", "--k-max", "4",
                "--scheme", "lowtt", "--m", "2", "--repeats", "1",
                "--seed", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    ranks = {line.split(",")[6] for line in lines[1:]}
    assert len(ranks) == 1  # representations agree on the rank


def generic_symmetric_counts(n, k):
    """Parameter counts of a generic fully symmetric tensor: every
    unfolding's rank is the smaller of its distinct row and column counts,
    C(n+s-1, s) multisets of the s row modes against those of the rest."""
    def rank(s):
        return min(math.comb(n + s - 1, s), math.comb(n + k - s - 1, k - s))

    ranks = [1] + [rank(p) for p in range(1, k)] + [1]
    tt = sum(ranks[p] * n * ranks[p + 1] for p in range(k))
    tree = build_tree(k)
    ht = 0
    for node, _ in tree.walk():
        r = 1 if node is tree.root else rank(len(node.modes))
        ht += (n if node.is_leaf else rank(len(node.left.modes)) *
               rank(len(node.right.modes))) * r
    return {"full": n ** k, "tt": tt, "ht": ht}


def test_bench_memory_csv_lists_generic_symmetric_counts(tmp_path):
    out = tmp_path / "mem.csv"
    assert run(["bench", "memory", "--n", "3", "--k-min", "4", "--k-max", "6",
                "--scheme", "sym", "--seed", "0", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 3
    for scheme, n, k, name, params, *_ in rows:
        assert scheme == "symmetric"
        assert int(params) == generic_symmetric_counts(3, int(k))[name]


@pytest.mark.parametrize("m", ["0", "-1"])
def test_bench_time_without_inputs_exits_1(tmp_path, m):
    out = tmp_path / "time.csv"
    assert run(["bench", "time", "--n", "3", "--k-min", "3", "--k-max", "3",
                "--m", m, "--out", str(out)]) == 1
    assert not out.exists()


def test_bench_time_csv_sym(tmp_path):
    # timing_report raises when the representations disagree on the rank,
    # so the symmetric forms are cross-checked end to end
    out = tmp_path / "time.csv"
    assert run(["bench", "time", "--n", "3", "--k-min", "4", "--k-max", "6",
                "--scheme", "sym", "--m", "2", "--repeats", "1",
                "--seed", "0", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 3
    for k in ("4", "5", "6"):
        assert len({row[6] for row in rows if row[2] == k}) == 1


def test_train_with_a_bad_core_order_exits_1(tmp_path, capsys):
    # an order-2 last core is refused as a shape error, not an IndexError
    core = serialize.tensor_to_obj(np.ones((1, 2, 2)))
    path = tmp_path / "bad.json"
    serialize.write_json_file(str(path), {
        "k": 2, "n": 2, "repr": "tt", "B": serialize.matrix_to_obj(np.eye(2)),
        "C": None, "A": {"cores": [core, serialize.tensor_to_obj(
            np.ones((2, 2)))]}})
    assert run(["analyze", "controllability", "--model", str(path),
                "--out", str(tmp_path / "con.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("mode", ["memory", "time"])
def test_bench_empty_n_list_exits_1(tmp_path, mode):
    out = tmp_path / "bench.csv"
    assert run(["bench", mode, "--n", ",", "--k-min", "3", "--k-max", "3",
                "--out", str(out)]) == 1
    assert not out.exists()


def test_usage_errors_exit_1(tmp_path):
    assert run(["identify", "--data", "missing.csv", "--order", "3",
                "--out", str(tmp_path / "x.json")]) == 1
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


@pytest.mark.parametrize("error, code", [
    (ArgumentError("bad"), 1), (ShapeError("bad"), 1),
    (AssumptionError("bad"), 1), (HpdsError("bad"), 1),
    (NumericError("bad"), 3), (DivergenceError(7), 3),
    (ScaleError("bad"), 4)])
def test_package_errors_map_to_documented_exit_codes(tmp_path, monkeypatch,
                                                     error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_decompose", fail)
    assert run(["decompose", "--tensor", str(tmp_path / "t.json"),
                "--method", "tt", "--out", str(tmp_path / "o.json")]) == code


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_exits_3(tmp_path):
    t = np.zeros((1, 1, 1))
    t[0, 0, 0] = 1.0
    model_path = tmp_path / "blow.json"
    serialize.write_model(str(model_path), HpdsModel(3, 1, t))
    x0 = tmp_path / "x0.csv"
    x0.write_text("5.0\n")
    assert run(["simulate", "--model", str(model_path), "--x0", str(x0),
                "--tau", "10.0", "--steps", "500", "--method", "euler",
                "--out", str(tmp_path / "t.csv")]) == 3


def test_determinism_byte_identical_outputs(workspace, tmp_path):
    _, paths = workspace
    specs = [
        (["simulate", "--model", str(paths["model"]), "--x0", str(paths["x0"]),
          "--tau", "0.02", "--steps", "25", "--noise-std", "1e-3",
          "--seed", "7"], "sim.csv"),
        (["analyze", "controllability", "--model", str(paths["model"]),
          "--B", str(paths["B"])], "con.json"),
        (["analyze", "observability", "--model", str(paths["model"]),
          "--probes", "3", "--seed", "2"], "obs.json"),
        (["bench", "memory", "--n", "2", "--k-min", "4", "--k-max", "5",
          "--scheme", "all", "--seed", "1"], "mem.csv"),
    ]
    for argv, name in specs:
        first = tmp_path / f"a_{name}"
        second = tmp_path / f"b_{name}"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_json_outputs_are_strict_json(workspace, tmp_path):
    # the JSON files of the determinism commands above, and identify's and
    # decompose's, hold no NaN or Infinity
    _, paths = workspace
    tensor = tmp_path / "T.json"
    serialize.write_tensor_file(str(tensor), gen_instance(
        "symmetric", 3, 3, seed=1).dense)
    traj = tmp_path / "traj.csv"
    assert run(["simulate", "--model", str(paths["model"]), "--x0",
                str(paths["x0"]), "--tau", "0.02", "--steps", "25",
                "--out", str(traj)]) == 0
    specs = [
        ["analyze", "controllability", "--model", str(paths["model"]),
         "--B", str(paths["B"])],
        ["analyze", "observability", "--model", str(paths["model"]),
         "--probes", "3", "--seed", "2"],
        ["identify", "--data", str(traj), "--order", "3", "--repr", "ht"],
        ["decompose", "--tensor", str(tensor), "--method", "tt"],
    ]
    for i, argv in enumerate(specs):
        out = tmp_path / f"out{i}.json"
        assert run(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text(), parse_constant=_reject_constant)


def test_tolerance_flag(workspace, tmp_path, monkeypatch):
    _, paths = workspace
    argv = ["analyze", "controllability", "--model", str(paths["model"]),
            "--B", str(paths["B"])]
    baseline = tmp_path / "con_base.json"
    assert run(argv + ["--out", str(baseline)]) == 0
    base_rank = json.loads(baseline.read_text())["rank"]
    # a near-one relative tolerance keeps only the top singular direction
    # of the random B, collapsing the reachable rank
    out = tmp_path / "con_tol.json"
    assert run(argv + ["--tol", "0.99999", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rank"] < base_rank
    # the environment does not change a command's output
    monkeypatch.setenv("HPDS_TOL", "0.99999")
    env = tmp_path / "con_env.json"
    assert run(argv + ["--out", str(env)]) == 0
    assert env.read_bytes() == baseline.read_bytes()


def _io_round_trip(paths, u_csv, out_dir, repr_name):
    """simulate -> identify --io -> analyze, as argv lists and out files."""
    out = {name: out_dir / name for name in
           ("traj.csv", "fit.json", "con.json", "obs.json")}
    return [
        ["simulate", "--model", str(paths["model"]), "--x0", str(paths["x0"]),
         "--input", str(u_csv), "--tau", "0.05", "--steps", "30",
         "--method", "discrete", "--noise-std", "1e-6", "--seed", "3",
         "--out", str(out["traj.csv"])],
        ["identify", "--data", str(out["traj.csv"]), "--order", "3", "--io",
         "--repr", repr_name, "--out", str(out["fit.json"])],
        ["analyze", "controllability", "--model", str(out["fit.json"]),
         "--out", str(out["con.json"])],
        ["analyze", "observability", "--model", str(out["fit.json"]),
         "--x", str(paths["x0"]), "--out", str(out["obs.json"])],
    ], out


@pytest.mark.parametrize("repr_name", ["full", "tt", "ht"])
def test_in_process_reruns_are_byte_identical(workspace, tmp_path, repr_name,
                                              capsys):
    _, paths = workspace
    u = 0.1 * np.random.default_rng(2).standard_normal((30, 2))
    u_csv = tmp_path / "u.csv"
    u_csv.write_text("\n".join(",".join(serialize.format_float(v) for v in row)
                               for row in u) + "\n")
    blobs = []
    for attempt in range(3):
        out_dir = tmp_path / f"run{attempt}"
        out_dir.mkdir()
        commands, out = _io_round_trip(paths, u_csv, out_dir, repr_name)
        assert [run(argv) for argv in commands] == [0, 0, 0, 0]
        blobs.append({name: path.read_bytes() for name, path in out.items()})
        # a failed parse and a --help between runs leave the parser as it was
        assert run(["simulate", "--model", str(paths["model"]),
                    "--steps", "ten"]) == 1
        assert run(["identify", "--help"]) == 0
    capsys.readouterr()
    assert blobs[0] == blobs[1] == blobs[2]


def test_handlers_are_looked_up_at_call_time(workspace, tmp_path,
                                             monkeypatch):
    # the parser is built once per process; a command function rebound on
    # the module afterwards (as a tracer does) must still be the one called
    _, paths = workspace
    argv = ["analyze", "controllability", "--model", str(paths["model"]),
            "--out", str(tmp_path / "con.json")]
    assert run(argv) == 0
    calls = []
    original = cli.cmd_analyze_controllability

    def wrapped(args):
        calls.append(args.model)
        return original(args)

    monkeypatch.setattr(cli, "cmd_analyze_controllability", wrapped)
    assert run(argv) == 0
    assert calls == [str(paths["model"])]
