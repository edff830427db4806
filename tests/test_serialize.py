import json

import numpy as np
import pytest

from hpdstensor import serialize
from hpdstensor import tensor_core as tc
from hpdstensor.cli import run
from hpdstensor.errors import ArgumentError, ShapeError
from hpdstensor.hier_tucker import htd_decompose, htd_reconstruct
from hpdstensor.model import FORMATS, HpdsModel, simulate_continuous, \
    simulate_discrete
from hpdstensor.tensor_train import tt_decompose, tt_reconstruct


class TestJsonText:
    def test_float_17_digits_round_trip(self):
        values = [0.1, 1.0 / 3.0, 1e-300, -2.5e17, np.pi]
        for v in values:
            assert float(serialize.format_float(v)) == v

    def test_dump_deterministic(self):
        obj = {"a": [1, 2.5, None], "b": {"c": True, "d": "x"}}
        assert serialize.dump_json(obj) == serialize.dump_json(obj)
        parsed = json.loads(serialize.dump_json(obj))
        assert parsed == {"a": [1, 2.5, None], "b": {"c": True, "d": "x"}}

    def test_rejects_unknown_types(self):
        with pytest.raises(ArgumentError):
            serialize.dump_json({"v": object()})


class TestTensorMatrixObjects:
    def test_tensor_values_in_psi_order(self):
        t = tc.fold(np.arange(1.0, 9.0).reshape(8, 1), {1, 2, 3}, (2, 2, 2))
        obj = serialize.tensor_to_obj(t)
        assert obj["dims"] == [2, 2, 2]
        assert obj["values"] == list(range(1, 9))
        assert np.array_equal(serialize.tensor_from_obj(obj), t)

    def test_tensor_value_count_checked(self):
        with pytest.raises(ShapeError):
            serialize.tensor_from_obj({"dims": [2, 2], "values": [1, 2, 3]})

    def test_matrix_column_major(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        obj = serialize.matrix_to_obj(m)
        assert obj["values"] == [1.0, 2.0, 3.0, 4.0]
        assert np.array_equal(serialize.matrix_from_obj(obj), m)


class TestRepresentationFiles:
    def test_tt_round_trip(self, tmp_path):
        t = np.random.default_rng(0).standard_normal((2, 3, 2))
        train = tt_decompose(t)
        path = tmp_path / "tt.json"
        serialize.write_json_file(str(path), serialize.tt_to_obj(train))
        loaded = serialize.tt_from_obj(serialize.read_json_file(str(path)))
        assert loaded.dims == train.dims and loaded.ranks == train.ranks
        assert np.allclose(tt_reconstruct(loaded), t, atol=1e-12)

    def test_ht_round_trip(self, tmp_path):
        t = np.random.default_rng(1).standard_normal((2, 2, 2, 2))
        h = htd_decompose(t)
        path = tmp_path / "ht.json"
        serialize.write_json_file(str(path), serialize.ht_to_obj(h))
        loaded = serialize.ht_from_obj(serialize.read_json_file(str(path)))
        assert np.allclose(htd_reconstruct(loaded), t, atol=1e-12)

    @pytest.mark.parametrize("rep", list(FORMATS))
    def test_model_round_trip(self, rep, tmp_path):
        rng = np.random.default_rng(2)
        t = tc.almost_symmetrize(rng.standard_normal((3, 3, 3)))
        dyn = FORMATS[rep].from_dense(t, None)
        model = HpdsModel(3, 3, dyn, B=rng.standard_normal((3, 2)),
                          C=rng.standard_normal((4, 3)))
        path = tmp_path / "model.json"
        serialize.write_model(str(path), model)
        loaded = serialize.read_model(str(path))
        assert loaded.representation == rep
        assert loaded.k == 3 and loaded.n == 3
        assert np.array_equal(loaded.B, model.B)
        assert np.array_equal(loaded.C, model.C)
        x = rng.standard_normal(3)
        from hpdstensor.model import eval_derivative
        assert np.allclose(eval_derivative(loaded, x),
                           eval_derivative(model, x), atol=1e-12)

    def test_unknown_format_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        obj = serialize.model_to_obj(
            HpdsModel(3, 2, rng.standard_normal((2, 2, 2))))
        obj["repr"] = "cp"
        with pytest.raises(ArgumentError):
            serialize.model_from_obj(obj)
        path = tmp_path / "cp.json"
        serialize.write_json_file(str(path), obj)
        x0 = tmp_path / "x0.csv"
        x0.write_text("0.1,0.2\n")
        assert run(["simulate", "--model", str(path), "--x0", str(x0),
                    "--tau", "0.1", "--steps", "3",
                    "--out", str(tmp_path / "t.csv")]) == 1


class TestTrajectoryCsv:
    def test_continuous_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        model = HpdsModel(3, 2, t, C=rng.standard_normal((3, 2)))
        samples = simulate_continuous(model, 0.3 * rng.standard_normal(2),
                                      tau=0.05, steps=12)
        path = tmp_path / "traj.csv"
        serialize.write_trajectory_csv(str(path), samples)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,dx1,dx2,y1,y2,y3"
        loaded = serialize.read_trajectory_csv(str(path))
        assert np.array_equal(loaded.X0, samples.X0)
        assert np.array_equal(loaded.X1, samples.X1)
        assert np.array_equal(loaded.Y0, samples.Y0)
        assert loaded.tau == samples.tau

    def test_discrete_omits_dx(self, tmp_path):
        rng = np.random.default_rng(4)
        t = tc.almost_symmetrize(rng.standard_normal((2, 2, 2)))
        model = HpdsModel(3, 2, t, B=rng.standard_normal((2, 1)),
                          C=rng.standard_normal((3, 2)))
        samples = simulate_discrete(model, 0.2 * rng.standard_normal(2),
                                    u=0.1 * rng.standard_normal((1, 9)),
                                    tau=0.05, steps=9)
        path = tmp_path / "traj.csv"
        serialize.write_trajectory_csv(str(path), samples)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,u1,y1,y2,y3"
        loaded = serialize.read_trajectory_csv(str(path))
        assert loaded.X1 is None
        assert np.array_equal(loaded.U0, samples.U0)

    def test_nonuniform_sampling_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n0,1\n1,1\n3,1\n")
        with pytest.raises(ArgumentError):
            serialize.read_trajectory_csv(str(path))

    def test_vector_and_input_csv(self, tmp_path):
        vec = tmp_path / "x0.csv"
        vec.write_text("0.5,-1\n")
        assert np.array_equal(serialize.read_vector_csv(str(vec)),
                              [0.5, -1.0])
        col = tmp_path / "col.csv"
        col.write_text("x\n1\n2\n3\n")
        assert np.array_equal(serialize.read_vector_csv(str(col)), [1, 2, 3])
        u = tmp_path / "u.csv"
        u.write_text("u1,u2\n1,2\n3,4\n")
        assert np.array_equal(serialize.read_input_csv(str(u)),
                              [[1.0, 3.0], [2.0, 4.0]])


class TestAtomicWrite:
    def test_no_partial_on_failure(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("original")
        with pytest.raises(ArgumentError):
            serialize.write_json_file(str(target), {"bad": object()})
        assert target.read_text() == "original"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []
