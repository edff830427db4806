"""File formats: tensor/matrix/train/tree/model JSON, trajectory and bench CSV.

Every float is written as Python's shortest round-trip ``repr``, in JSON and
CSV alike, so values read back bitwise and reruns produce byte-identical
files; a non-finite float in JSON is an error.  Writers stage to a temporary
file in the target directory and rename, so readers never observe partial
output.  A CSV file's first non-blank line is its header when no field of it
is a number.  Every other non-blank line is a data row; a row with a field
that is not a number, or of another width, raises ValueError naming the
file and the line.

Layouts: tensor values are flat in psi (first-index-fastest) order, matrix
values are column-major.  A model file names its dynamics' format in
``"repr"``, and :data:`CODECS` maps that name to the dynamics' codec.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError
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
    """The shortest decimal text that reads back as ``x`` (its ``repr``)."""
    return repr(float(x))


def _plain(obj):
    """NumPy arrays and scalars as Python values, for :func:`json.dumps`."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise ArgumentError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    """Compact JSON, floats as :func:`format_float`; NaN or inf raises
    :class:`NumericError`, as no JSON parser reads them."""
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False,
                          default=_plain) + "\n"
    except ArgumentError:
        raise
    except ValueError as exc:
        raise NumericError(f"cannot write JSON: {exc}") from exc


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
            "values": tensor.ravel(order="F").tolist()}


def tensor_from_obj(obj: dict) -> np.ndarray:
    dims = [int(d) for d in obj["dims"]]
    values = np.asarray(obj["values"], dtype=float)
    if values.size != int(np.prod(dims)):
        raise ShapeError(f"value count {values.size} != product of dims {dims}")
    return values.reshape(dims, order="F")


def matrix_to_obj(matrix: np.ndarray) -> dict:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    return {"rows": matrix.shape[0], "cols": matrix.shape[1],
            "values": matrix.ravel(order="F").tolist()}


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

def _write_csv(path: str, header: list[str], rows):
    """The header line, then one comma-separated line per row; ``str`` of a
    Python float is its ``repr``."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_csv(path: str) -> tuple[list[str] | None, np.ndarray]:
    """The header of ``path``, or None, and its data lines as matrix rows."""
    with open(path) as handle:
        numbered = [(number, line) for number, line in enumerate(handle, 1)
                    if line.strip()]
    header = None
    if numbered and not any(map(_is_number, numbered[0][1].split(","))):
        header = numbered.pop(0)[1].strip().split(",")
    if not numbered:
        raise ArgumentError(f"{path} holds no numbers")
    try:
        return header, np.loadtxt([line for _, line in numbered],
                                  delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # name the first line in the file that is not a row of numbers
        width = len(numbered[0][1].split(","))
        for number, line in numbered:
            fields = line.split(",")
            if len(fields) != width or not all(map(_is_number, fields)):
                raise ValueError(f"{path}, line {number}: {line.strip()!r} "
                                 f"is not {width} numbers") from exc
        raise ValueError(f"{path}: {exc}") from exc


def write_trajectory_csv(path: str, samples: SampleSet):
    """Header t,x1..xn[,dx1..dxn][,u1..um][,y1..yl], one row per sample;
    the dx columns appear exactly when the samples carry derivatives X1."""
    if samples.X0 is None:
        raise ArgumentError("trajectory output needs states X0")
    blocks = [samples.X0] + [b for b in (samples.X1, samples.U0, samples.Y0)
                             if b is not None]
    header = _trajectory_header(
        samples.X0.shape[0], samples.X1 is not None,
        0 if samples.U0 is None else samples.U0.shape[0],
        0 if samples.Y0 is None else samples.Y0.shape[0])
    times = np.arange(samples.X0.shape[1]) * float(samples.tau)
    _write_csv(path, header, np.vstack([times] + blocks).T.tolist())


def _trajectory_header(n: int, with_dx: bool, m: int, l: int) -> list[str]:
    """t,x1..xn[,dx1..dxn][,u1..um][,y1..yl]: the one trajectory layout."""
    return (["t"] + [f"x{i + 1}" for i in range(n)]
            + [f"dx{i + 1}" for i in range(n if with_dx else 0)]
            + [f"u{i + 1}" for i in range(m)]
            + [f"y{i + 1}" for i in range(l)])


def read_trajectory_csv(path: str) -> SampleSet:
    header, rows = _read_csv(path)
    if header is None:
        raise ArgumentError(f"{path}: trajectory csv needs a header")
    data = rows.T
    if data.shape[0] != len(header):
        raise ShapeError(f"{path}: rows and header differ in width")
    kinds = [name.rstrip("0123456789") for name in header]
    n, m, l = kinds.count("x"), kinds.count("u"), kinds.count("y")
    if not n or header != _trajectory_header(n, "dx" in kinds, m, l):
        raise ArgumentError(f"{path}: columns {header} are not "
                            "t,x1..xn[,dx1..dxn][,u1..um][,y1..yl]")
    t_row = data[0]
    tau = float(t_row[1] - t_row[0]) if t_row.size > 1 else 1.0
    if t_row.size > 2 and not np.allclose(np.diff(t_row), tau,
                                          rtol=1e-9, atol=1e-12):
        raise ArgumentError("trajectory csv is not uniformly sampled")
    ends = np.cumsum([1, n, n if "dx" in kinds else 0, m, l])
    x0, x1, u0, y0 = (data[a:b].copy() if b > a else None
                      for a, b in zip(ends[:-1], ends[1:]))
    return SampleSet(tau=tau, X0=x0, X1=x1, U0=u0, Y0=y0)


def read_vector_csv(path: str) -> np.ndarray:
    """Flat numeric CSV (one row or one column) as a vector."""
    return _read_csv(path)[1].ravel()


def read_input_csv(path: str) -> np.ndarray:
    """Input samples as an m x T matrix; rows of the file are time steps."""
    return _read_csv(path)[1].T


def write_bench_csv(path: str, records):
    _write_csv(path, "scheme,n,k,repr,params,elapsed_ms,rank,seed".split(","),
               ([r.scheme, r.n, r.k, r.repr, r.params, r.elapsed_ms, r.rank,
                 r.seed] for r in records))
