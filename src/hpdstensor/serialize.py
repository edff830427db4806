"""File formats: tensor/matrix/train/tree/model JSON, trajectory and bench CSV.

All floating point numbers are written with 17 significant digits so the
decimal text round-trips 64-bit values exactly and reruns produce
byte-identical files.  Writers stage to a temporary file in the target
directory and rename, so readers never observe partial output.

Layouts: tensor values are flat in psi (first-index-fastest) order, matrix
values are column-major.  A model file names its dynamics' format in
``"repr"``, and :data:`CODECS` maps that name to the dynamics' codec.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ArgumentError, ShapeError
from .hier_tucker import DimensionTree, HTucker, TreeNode
from .model import HpdsModel, SampleSet
from .tensor_train import TensorTrain

__all__ = [
    "format_float", "dump_json", "write_text_atomic",
    "tensor_to_obj", "tensor_from_obj", "matrix_to_obj", "matrix_from_obj",
    "tt_to_obj", "tt_from_obj", "ht_to_obj", "ht_from_obj", "CODECS",
    "model_to_obj", "model_from_obj", "write_model", "read_model",
    "write_tensor_file", "read_tensor_file", "read_matrix_file",
    "write_trajectory_csv", "read_trajectory_csv", "write_bench_csv",
    "write_json_file", "read_json_file", "read_vector_csv",
    "read_input_csv",
]


def format_float(x: float) -> str:
    """Decimal text with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def dump_json(obj) -> str:
    """Deterministic JSON text with floats at 17 significant digits."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces) + "\n"


def _emit(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _emit(value, out)
        out.append("]")
    else:
        raise ArgumentError(f"cannot serialize {type(obj).__name__}")


def write_text_atomic(path: str, text: str):
    """Write via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_file(path: str, obj):
    write_text_atomic(path, dump_json(obj))


def read_json_file(path: str):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------- tensors

def tensor_to_obj(tensor: np.ndarray) -> dict:
    tensor = np.asarray(tensor, dtype=float)
    return {"dims": list(tensor.shape),
            "values": [float(v) for v in tensor.ravel(order="F")]}


def tensor_from_obj(obj: dict) -> np.ndarray:
    dims = [int(d) for d in obj["dims"]]
    values = np.asarray(obj["values"], dtype=float)
    if values.size != int(np.prod(dims)):
        raise ShapeError(f"value count {values.size} != product of dims {dims}")
    return values.reshape(dims, order="F")


def matrix_to_obj(matrix: np.ndarray) -> dict:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    return {"rows": matrix.shape[0], "cols": matrix.shape[1],
            "values": [float(v) for v in matrix.ravel(order="F")]}


def matrix_from_obj(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    values = np.asarray(obj["values"], dtype=float)
    if values.size != rows * cols:
        raise ShapeError(f"value count {values.size} != {rows} * {cols}")
    return values.reshape(rows, cols, order="F")


def tt_to_obj(train: TensorTrain) -> dict:
    return {"dims": list(train.dims), "ranks": list(train.ranks),
            "cores": [tensor_to_obj(core) for core in train.cores]}


def tt_from_obj(obj: dict) -> TensorTrain:
    train = TensorTrain(tuple(tensor_from_obj(c) for c in obj["cores"]))
    if "dims" in obj and tuple(int(d) for d in obj["dims"]) != train.dims:
        raise ShapeError("stored dims disagree with core shapes")
    return train


def _node_to_obj(h: HTucker, node: TreeNode) -> dict:
    if node.is_leaf:
        return {"modes": list(node.modes),
                "factor": matrix_to_obj(h.leaf_factors[node.modes[0]])}
    return {"modes": list(node.modes),
            "transfer": matrix_to_obj(h.transfer[node.modes]),
            "left": _node_to_obj(h, node.left),
            "right": _node_to_obj(h, node.right)}


def ht_to_obj(h: HTucker) -> dict:
    """The file is the nested root node object; leaves carry their factor
    matrices, internal nodes their transfer matrices and children."""
    return _node_to_obj(h, h.tree.root)


def ht_from_obj(obj: dict) -> HTucker:
    leaf_factors: dict[int, np.ndarray] = {}
    transfer: dict[tuple[int, ...], np.ndarray] = {}

    def parse(node_obj: dict) -> TreeNode:
        modes = tuple(int(p) for p in node_obj["modes"])
        if "factor" in node_obj:
            if len(modes) != 1:
                raise ShapeError("factor nodes must be singleton leaves")
            leaf_factors[modes[0]] = matrix_from_obj(node_obj["factor"])
            return TreeNode(modes)
        node = TreeNode(modes, parse(node_obj["left"]),
                        parse(node_obj["right"]))
        transfer[node.modes] = matrix_from_obj(node_obj["transfer"])
        return node

    root = parse(obj)
    tree = DimensionTree(root)
    dims = tuple(leaf_factors[p].shape[0] for p in range(1, tree.order + 1))
    return HTucker(tree, dims, leaf_factors, transfer)


# ----------------------------------------------------------------- models

# (to_obj, from_obj) of the dynamics, per model format name
CODECS = {"full": (tensor_to_obj, tensor_from_obj),
          "tt": (tt_to_obj, tt_from_obj),
          "ht": (ht_to_obj, ht_from_obj)}


def model_to_obj(model: HpdsModel) -> dict:
    rep = model.representation
    return {"k": model.k, "n": model.n, "repr": rep,
            "A": CODECS[rep][0](model.dynamics),
            "B": None if model.B is None else matrix_to_obj(model.B),
            "C": None if model.C is None else matrix_to_obj(model.C)}


def model_from_obj(obj: dict) -> HpdsModel:
    rep = obj["repr"]
    if rep not in CODECS:
        raise ArgumentError(f"unknown representation {rep!r}")
    dynamics = CODECS[rep][1](obj["A"])
    b = None if obj.get("B") is None else matrix_from_obj(obj["B"])
    c = None if obj.get("C") is None else matrix_from_obj(obj["C"])
    return HpdsModel(int(obj["k"]), int(obj["n"]), dynamics, B=b, C=c)


def write_model(path: str, model: HpdsModel):
    write_json_file(path, model_to_obj(model))


def read_model(path: str) -> HpdsModel:
    return model_from_obj(read_json_file(path))


def write_tensor_file(path: str, tensor: np.ndarray):
    write_json_file(path, tensor_to_obj(tensor))


def read_tensor_file(path: str) -> np.ndarray:
    return tensor_from_obj(read_json_file(path))


def read_matrix_file(path: str) -> np.ndarray:
    return matrix_from_obj(read_json_file(path))


# ------------------------------------------------------------------- CSV

def write_trajectory_csv(path: str, samples: SampleSet):
    """Header t,x1..xn[,dx1..dxn][,u1..um][,y1..yl], one row per sample.

    Derivative columns are written only for derivative-kind sample sets;
    the discrete path's shifted states are reproducible from the state
    columns and are not stored.
    """
    if samples.X0 is None:
        raise ArgumentError("trajectory output needs states X0")
    n, t_count = samples.X0.shape
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    columns = [samples.X0]
    if samples.X1 is not None and samples.x1_kind == "derivative":
        header += [f"dx{i + 1}" for i in range(n)]
        columns.append(samples.X1)
    if samples.U0 is not None:
        header += [f"u{i + 1}" for i in range(samples.U0.shape[0])]
        columns.append(samples.U0)
    if samples.Y0 is not None:
        header += [f"y{i + 1}" for i in range(samples.Y0.shape[0])]
        columns.append(samples.Y0)
    lines = [",".join(header)]
    for i in range(t_count):
        row = [format_float(i * samples.tau)]
        for block in columns:
            row.extend(format_float(v) for v in block[:, i])
        lines.append(",".join(row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: str) -> SampleSet:
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [list(map(float, line.strip().split(",")))
                for line in handle if line.strip()]
    if not rows:
        raise ArgumentError(f"{path} holds no samples")
    data = np.asarray(rows, dtype=float).T

    groups: dict[str, list[int]] = {}
    for idx, name in enumerate(header):
        key = name.rstrip("0123456789")
        groups.setdefault(key, []).append(idx)
    if "t" not in groups or "x" not in groups:
        raise ArgumentError("trajectory csv needs t and x columns")
    t_row = data[groups["t"][0]]
    tau = float(t_row[1] - t_row[0]) if t_row.size > 1 else 1.0
    if t_row.size > 2 and not np.allclose(np.diff(t_row), tau,
                                          rtol=1e-9, atol=1e-12):
        raise ArgumentError("trajectory csv is not uniformly sampled")

    def block(key):
        return data[groups[key]] if key in groups else None

    return SampleSet(tau=tau, X0=block("x"), X1=block("dx"),
                     U0=block("u"), Y0=block("y"), x1_kind="derivative")


def read_vector_csv(path: str) -> np.ndarray:
    """Flat numeric CSV (one row or one column) as a vector."""
    values = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                values.extend(float(p) for p in parts if p.strip())
            except ValueError:
                continue  # header line
    if not values:
        raise ArgumentError(f"{path} holds no numbers")
    return np.asarray(values, dtype=float)


def read_input_csv(path: str) -> np.ndarray:
    """Input samples as an m x T matrix; rows of the file are time steps."""
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            parts = [p for p in line.split(",") if p.strip()]
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                continue  # header line
    if not rows:
        raise ArgumentError(f"{path} holds no numbers")
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ShapeError("ragged input csv")
    return np.asarray(rows, dtype=float).T


def write_bench_csv(path: str, records):
    lines = ["scheme,n,k,repr,params,elapsed_ms,rank,seed"]
    for r in records:
        lines.append(",".join([r.scheme, str(r.n), str(r.k), r.repr,
                               str(r.params), format_float(r.elapsed_ms),
                               str(r.rank), str(r.seed)]))
    write_text_atomic(path, "\n".join(lines) + "\n")
