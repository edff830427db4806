import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdstensor import serialize
from hpdstensor import tensor_core as tc
from hpdstensor.benchmarks import BenchRecord
from hpdstensor.cli import run
from hpdstensor.errors import ArgumentError, NumericError, ShapeError
from hpdstensor.hier_tucker import HTucker, htd_decompose, htd_reconstruct
from hpdstensor.model import FORMATS, HpdsModel, SampleSet, \
    simulate_continuous, simulate_discrete
from hpdstensor.tensor_train import TensorTrain, tt_decompose, tt_reconstruct


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

    def test_float_text_is_the_shortest_repr(self):
        assert serialize.format_float(0.1) == "0.1"
        assert serialize.format_float(-0.0) == "-0.0"
        assert serialize.format_float(1) == "1.0"
        assert serialize.format_float(np.float64(1e300)) == "1e+300"
        assert serialize.dump_json([0.1, -0.0, 1.0, 5e-324]) == \
            "[0.1,-0.0,1.0,5e-324]\n"

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"),
        np.array([[1.0], [-np.inf]])])
    def test_non_finite_raises_numeric_error(self, value):
        with pytest.raises(NumericError):
            serialize.dump_json({"v": [1.0, value]})

    def test_numpy_values_write_as_plain_json(self):
        obj = {"f32": np.float32(0.1), "i64": np.int64(-7),
               "b": np.bool_(True), "f64": np.float64(0.25),
               "nested": [np.arange(6.0).reshape(2, 3), np.arange(2)]}
        assert serialize.dump_json(obj) == (
            '{"f32":0.10000000149011612,"i64":-7,"b":true,"f64":0.25,'
            '"nested":[[[0.0,1.0,2.0],[3.0,4.0,5.0]],[0,1]]}\n')


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

    @pytest.mark.parametrize("with_x1", [True, False],
                             ids=["derivative", "discrete"])
    def test_text_is_the_format_float_loop(self, with_x1, tmp_path):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((2, 6))
        x0[:, 0] = [-0.0, 0.0]
        x0[:, 1] = [1e-300, -1e300]
        x0[:, 2] = [3.0, -17.0]
        x0[:, 3] = [5e-324, 1e16]
        x1 = rng.standard_normal((2, 6))
        samples = SampleSet(tau=0.1, X0=x0, X1=x1 if with_x1 else None,
                            U0=np.array([[1.0, -0.0, 2.5, 1e300, 7.0, 0.1]]),
                            Y0=rng.standard_normal((3, 6)) * 1e-5)
        path = tmp_path / "traj.csv"
        serialize.write_trajectory_csv(str(path), samples)
        # the writer's text, one format_float call per value
        blocks = [samples.X0] + ([samples.X1] if with_x1 else [])
        blocks += [samples.U0, samples.Y0]
        rows = []
        for i in range(6):
            row = [serialize.format_float(i * samples.tau)]
            for block in blocks:
                row.extend(serialize.format_float(v) for v in block[:, i])
            rows.append(",".join(row))
        body = path.read_text().split("\n", 1)[1]
        assert body == "\n".join(rows) + "\n"
        assert "-0.0," in body and "e-300," in body and "e+300," in body

    def test_nonuniform_sampling_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n0,1\n1,1\n3,1\n")
        with pytest.raises(ArgumentError):
            serialize.read_trajectory_csv(str(path))

    @pytest.mark.parametrize("body, error", [
        ("0,1\n0.1,2,3\n", ValueError),    # ragged
        ("0,1\n#0.1,2\n", ValueError),     # not a number, not a comment
        ("0,1\n0.1,2#3\n", ValueError),
        ("0,1\n0.1,2\n", ShapeError),      # fewer columns than the header
    ])
    def test_malformed_rows_rejected(self, tmp_path, body, error):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,x2\n" + body)
        with pytest.raises(error):
            serialize.read_trajectory_csv(str(path))
        assert run(["identify", "--data", str(path), "--order", "2",
                    "--out", str(tmp_path / "fit.json")]) == 1

    @pytest.mark.parametrize("header, column", [
        ("t,x1,z1", "z1"), ("t,x1,x1", "x1"), ("t,x1,t", "t"),
        ("t,x0,x1", "x0"), ("t,x1,dy1", "dy1"), ("t,x2,x1", "x2"),
        ("t,x1,x3", "x3"), ("t,x1,x2,dx1", "dx1"), ("t,u1,x1", "u1")])
    def test_unknown_or_repeated_column_raises(self, tmp_path, header,
                                               column):
        # the one layout is the writer's, t,x1..xn[,dx1..dxn][,u..][,y..]
        path = tmp_path / "traj.csv"
        ones = ",1" * header.count(",")
        path.write_text(header + "".join(f"\n{t}{ones}" for t in (0, 0.1, 0.2))
                        + "\n")
        named = f"{re.escape(str(path))}.*'{column}'"
        with pytest.raises(ArgumentError, match=named):
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

    @pytest.mark.parametrize("text", [
        "x1,x2,x3\n0.5,abc,2\n1,2,3\n",
        "0.03,0.0x3\n1,2\n",   # has numbers, so it is data, not a header
        "u1,u2\n1,2\n3\n",
        "0.5,-1,\n",
    ], ids=["not_a_number", "first_line", "another_width", "empty_field"])
    def test_a_line_that_fails_to_parse_raises(self, tmp_path, text):
        path = tmp_path / "bad_line.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            serialize.read_vector_csv(str(path))
        with pytest.raises(ValueError):
            serialize.read_input_csv(str(path))

    @pytest.mark.parametrize("text, line", [
        ("u1,u2\n1,2\n\n3,4x\n5,6\n", 4),   # not a number
        ("\n1,2\n3,4\n5\n", 4),              # another width
    ])
    def test_a_parse_error_names_the_file_and_line(self, tmp_path, text,
                                                   line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        named = f"{re.escape(str(path))}, line {line}:"
        for read in (serialize.read_vector_csv, serialize.read_input_csv):
            with pytest.raises(ValueError, match=named):
                read(str(path))

    def test_a_header_is_optional_and_blank_lines_are_skipped(self, tmp_path):
        bare, headed = tmp_path / "bare.csv", tmp_path / "headed.csv"
        bare.write_text("1,2\n3,4\n")
        headed.write_text("\nu1,u2\n\n1,2\n3,4\n\n")
        for read in (serialize.read_vector_csv, serialize.read_input_csv):
            assert np.array_equal(read(str(bare)), read(str(headed)))
        # a trajectory is read by its column names, so it needs its header
        with pytest.raises(ArgumentError):
            serialize.read_trajectory_csv(str(bare))
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("u1,u2\n")
        with pytest.raises(ArgumentError):
            serialize.read_input_csv(str(header_only))


# values a file must carry bitwise, beside hypothesis' finite floats
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 0.1, 1 / 3]
FINITE = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  max_size=30)


def _filled(shape, pool, start):
    """An array of ``shape`` taking ``pool``'s values cyclically from
    ``start``."""
    index = np.arange(start, start + math.prod(shape))
    return np.take(pool, index, mode="wrap").reshape(shape)


def _arrays(dynamics) -> list:
    """The numeric arrays of a dynamics object, in a fixed order."""
    if isinstance(dynamics, TensorTrain):
        return list(dynamics.cores)
    if isinstance(dynamics, HTucker):
        return [dynamics.leaf_factors[p] for p in sorted(
            dynamics.leaf_factors)] + [dynamics.transfer[key] for key in
                                       sorted(dynamics.transfer)]
    return [dynamics]


def _refilled(dynamics, pool, start):
    """``dynamics`` with the same shapes and every value from ``pool``."""
    if isinstance(dynamics, TensorTrain):
        return TensorTrain(tuple(_filled(c.shape, pool, start + i)
                                 for i, c in enumerate(dynamics.cores)))
    if isinstance(dynamics, HTucker):
        return HTucker(
            dynamics.tree, dynamics.dims,
            {p: _filled(f.shape, pool, start + p)
             for p, f in dynamics.leaf_factors.items()},
            {key: _filled(t.shape, pool, start + len(key))
             for key, t in dynamics.transfer.items()})
    return _filled(dynamics.shape, pool, start)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestBitwiseRoundTrip:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(rep=st.sampled_from(list(FORMATS)), drawn=FINITE,
           start=st.integers(0, 50))
    def test_models_read_back_bitwise(self, rep, drawn, start):
        pool = np.array(SPECIAL + drawn)
        rng = np.random.default_rng(6)
        shape = FORMATS[rep].from_dense(
            tc.almost_symmetrize(rng.standard_normal((3, 3, 3, 3))), None)
        model = HpdsModel(4, 3, _refilled(shape, pool, start),
                          B=_filled((3, 2), pool, start + 1),
                          C=_filled((2, 3), pool, start + 2))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "model.json")
            serialize.write_model(path, model)
            loaded = serialize.read_model(path)
        assert loaded.representation == rep
        got = _arrays(loaded.dynamics) + [loaded.B, loaded.C]
        want = _arrays(model.dynamics) + [model.B, model.C]
        assert len(got) == len(want)
        assert all(_same_bits(a, b) for a, b in zip(got, want))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(with_x1=st.booleans(), drawn=FINITE,
           start=st.integers(0, 50), n=st.integers(1, 3),
           samples=st.integers(2, 9), tau=st.sampled_from([0.02, 0.1, 0.5]),
           inputs=st.integers(0, 2), outputs=st.integers(0, 2))
    def test_trajectories_read_back_bitwise(self, with_x1, drawn, start, n,
                                            samples, tau, inputs, outputs):
        pool = np.array(SPECIAL + drawn)
        block = {name: _filled((rows, samples), pool, start + i)
                 if rows else None for i, (name, rows) in enumerate(
                     (("X0", n), ("X1", n * with_x1), ("U0", inputs),
                      ("Y0", outputs)))}
        data = SampleSet(tau=tau, **block)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "traj.csv")
            serialize.write_trajectory_csv(path, data)
            loaded = serialize.read_trajectory_csv(path)
            # the same file read as an input file and as a vector file
            as_input = serialize.read_input_csv(path)
            as_vector = serialize.read_vector_csv(path)
        assert loaded.tau == tau
        for name, values in block.items():
            if values is None:
                assert getattr(loaded, name) is None
            else:
                assert _same_bits(getattr(loaded, name), values), name
        # the columns in file order, one row of the input matrix each
        table = np.vstack([np.arange(samples) * tau] +
                          [v for v in block.values() if v is not None])
        assert _same_bits(as_input, table)
        assert _same_bits(as_vector, table.T.ravel())


def test_bench_csv_bytes(tmp_path):
    records = [BenchRecord("symmetric", 2, 4, "full", 5, 0.1, 2, 0),
               BenchRecord("low_tt", 3, 5, "tt", 18, 12.5, 1, 7),
               BenchRecord("low_ht", 3, 5, "ht", 21, 1 / 3, 1, 7)]
    path = tmp_path / "bench.csv"
    serialize.write_bench_csv(str(path), records)
    assert path.read_bytes() == (
        b"scheme,n,k,repr,params,elapsed_ms,rank,seed\n"
        b"symmetric,2,4,full,5,0.1,2,0\n"
        b"low_tt,3,5,tt,18,12.5,1,7\n"
        b"low_ht,3,5,ht,21,0.3333333333333333,1,7\n")


class TestAtomicWrite:
    def test_no_partial_on_failure(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("original")
        with pytest.raises(ArgumentError):
            serialize.write_json_file(str(target), {"bad": object()})
        assert target.read_text() == "original"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []
