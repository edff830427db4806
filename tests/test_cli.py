import json

import numpy as np
import pytest

from hpdstensor import serialize
from hpdstensor import tensor_core as tc
from hpdstensor.cli import run
from hpdstensor.hier_tucker import htd_reconstruct
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


def test_analyze_controllability_report(workspace):
    model, paths = workspace
    out = paths["dir"] / "con.json"
    assert run(["analyze", "controllability", "--model", str(paths["model"]),
                "--B", str(paths["eye"]), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rank"] == 3
    assert report["verdict"] == "accessible"  # k = 3 is odd
    assert report["representation"] == "full"
    assert report["elapsed_ms"] is None

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


def test_usage_errors_exit_1(tmp_path):
    assert run(["identify", "--data", "missing.csv", "--order", "3",
                "--out", str(tmp_path / "x.json")]) == 1
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


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


def test_tolerance_env_fallback(workspace, tmp_path, monkeypatch):
    _, paths = workspace
    baseline = tmp_path / "con_base.json"
    assert run(["analyze", "controllability", "--model", str(paths["model"]),
                "--B", str(paths["B"]), "--out", str(baseline)]) == 0
    base_rank = json.loads(baseline.read_text())["rank"]
    # a near-one relative tolerance keeps only the top singular direction
    # of the random B, collapsing the reachable rank
    monkeypatch.setenv("HPDS_TOL", "0.99999")
    out = tmp_path / "con_env.json"
    assert run(["analyze", "controllability", "--model", str(paths["model"]),
                "--B", str(paths["B"]), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rank"] < base_rank
