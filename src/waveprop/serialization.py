"""JSON and CSV artifacts: matrices, vectors, grid fields, and reports.

All writers are deterministic: keys are sorted, floats use the shortest
round-trip representation, and no timestamps or host details enter the
payload, so identical inputs produce byte-identical artifacts.

Every CSV goes through one table writer, which joins `_CSV_BLOCK` rows of
cells per write, so the text never exists whole and no Python loop runs per
row.  A float column that repeats its values (grid coordinates, rule nodes
and weights) has each distinct bit pattern formatted once and mapped back by
index; a mostly distinct one is formatted value by value.  JSON goes
through the standard library's C encoder: a printed report is
`json.dumps(obj, sort_keys=True, indent=2)`, and an artifact written to a
file is the compact one-line text, encoded in one call.  A grid field whose
samples are all real writes them as one flat list of floats, and any other
field, matrix or vector writes [re, im] pairs.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from .fields import GridField
from .operators import random_hermitian, random_state

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "field_to_json",
    "field_to_csv",
    "series_to_csv",
    "rule_to_csv",
    "dump_json",
    "load_json_file",
    "hermitian_pair_fixture",
    "commuting_family_fixture",
    "fixture_from_json",
]


def _pairs(z: np.ndarray) -> list:
    """[re, im] pairs of a complex array, nested as the array is."""
    return np.stack([z.real, z.imag], -1).tolist()


def _real_pair(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise ValueError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices serialize")
    return {"dim": m.shape[0], "rows": _pairs(m)}


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "rows" not in obj:
        raise ValueError(f"{where}: expected an object with 'dim' and 'rows'")
    dim = obj["dim"]
    rows = obj["rows"]
    if not isinstance(dim, int) or dim <= 0:
        raise ValueError(f"{where}.dim: expected a positive integer, got {dim!r}")
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValueError(f"{where}.rows: expected {dim} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{where}.rows[{i}]: expected {dim} entries")
        for j, cell in enumerate(row):
            out[i, j] = _real_pair(cell, f"{where}.rows[{i}][{j}]")
    return out


def vector_to_json(vector) -> dict:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    return {"dim": v.shape[0], "entries": _pairs(v)}


def vector_from_json(obj, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError(f"{where}: expected an object with 'dim' and 'entries'")
    dim = obj["dim"]
    entries = obj["entries"]
    if not isinstance(dim, int) or dim <= 0:
        raise ValueError(f"{where}.dim: expected a positive integer, got {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError(f"{where}.entries: expected {dim} entries")
    return np.array([_real_pair(e, f"{where}.entries[{i}]") for i, e in enumerate(entries)])


def field_to_json(field: GridField, t: float | None = None) -> dict:
    """The grid layout and the samples: a flat list of floats when no
    sample has a nonzero imaginary part, else [re, im] pairs."""
    flat = field.values.reshape(-1)
    header = {
        "dims": list(field.shape),
        "lengths": list(field.lengths),
        "origins": list(field.origins),
        "spacing": [field.spacing(axis) for axis in range(field.dim)],
        "values": flat.real.tolist() if not flat.imag.any() else _pairs(flat),
    }
    if t is not None:
        header["t"] = float(t)
    return header


_CSV_BLOCK = 4096  # rows formatted per write, so the text never exists whole


def _write_table(stream, header: list[str], columns, rows: int) -> None:
    """A header line, then `rows` lines of comma-joined cells.

    Each column maps a row range `(lo, hi)` to its cell strings.  No cell
    needs csv quoting: the cells are numbers.
    """
    stream.write(",".join(header) + "\n")
    for lo in range(0, rows, _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, rows)
        cells = [column(lo, hi) for column in columns]
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _float_column(values):
    """Cells of a float column: the repr of each value.

    The distinct values are found on the int64 bit view, so -0.0 and 0.0
    stay apart; when at most half the values are distinct, each distinct
    pattern is formatted once and the strings are gathered by index.
    """
    values = np.asarray(values, dtype=np.float64)
    patterns, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * patterns.size > values.size:
        return lambda lo, hi: map(repr, values[lo:hi].tolist())
    text = np.array(list(map(repr, patterns.view(np.float64).tolist())), dtype=object)
    inverse = inverse.astype(np.min_scalar_type(patterns.size))  # 1 byte a row for <= 256 patterns
    return lambda lo, hi: text[inverse[lo:hi]].tolist()


def _index_column(lo: int, hi: int):
    return map(str, range(lo, hi))


def field_to_csv(field: GridField, stream, t: float | None = None) -> None:
    """Rows of flat index, grid coordinates, and the complex sample."""
    header = ["index"] + [f"x{axis}" for axis in range(field.dim)] + ["re", "im"]
    coords = np.meshgrid(*(field.axis_coordinates(axis) for axis in range(field.dim)),
                         indexing="ij")
    flat = field.values.reshape(-1)
    columns = [grid.reshape(-1) for grid in coords] + [flat.real, flat.imag]
    if t is not None:
        header.append("t")
        columns.append(np.broadcast_to(float(t), flat.size))
    _write_table(stream, header, [_index_column] + [_float_column(c) for c in columns], flat.size)


def series_to_csv(header: list[str], rows, stream) -> None:
    """Rows of numbers of equal length: floats as their repr, others (ints) as str."""
    rows = list(rows)
    columns = [[repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in column]
               for column in zip(*rows)]
    _write_table(stream, header, [lambda lo, hi, c=c: c[lo:hi] for c in columns], len(rows))


def rule_to_csv(rule, stream) -> None:
    header = [f"w{i + 1}" for i in range(rule.nodes.shape[1])] + ["weight"]
    columns = [_float_column(column) for column in (*rule.nodes.T, rule.weights)]
    _write_table(stream, header, columns, len(rule.weights))


def dump_json(obj: Any, target=None) -> str:
    """Serialize with sorted keys.

    With no target, return the `indent=2` text of a report.  Given a path
    or stream, write the compact one-line artifact text there instead, and
    return it.
    """
    if target is None:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)
    return text


def load_json_file(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def hermitian_pair_fixture(dim: int, seed: int, norm: float = 1.0) -> dict:
    """Two unit-norm Hermitian matrices and a unit state, reproducibly."""
    rng = np.random.default_rng(seed)
    a = random_hermitian(dim, rng=rng, norm=norm)
    b = random_hermitian(dim, rng=rng, norm=norm)
    h = random_state(dim, rng=rng)
    return {
        "kind": "hermitian-pair",
        "seed": seed,
        "a": matrix_to_json(a),
        "b": matrix_to_json(b),
        "h": vector_to_json(h),
    }


def commuting_family_fixture(count: int, dim: int, seed: int) -> dict:
    """Random diagonal matrices with entries in [-1, 1]: commuting by construction."""
    rng = np.random.default_rng(seed)
    mats = [np.diag(rng.uniform(-1.0, 1.0, dim).astype(complex)) for _ in range(count)]
    return {
        "kind": "commuting-family",
        "seed": seed,
        "matrices": [matrix_to_json(m) for m in mats],
    }


def fixture_from_json(obj, where: str = "fixture") -> dict:
    """Decode a fixture file into arrays, with location-tagged diagnostics."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{where}: expected an object with a 'kind' tag")
    kind = obj["kind"]
    if kind == "hermitian-pair":
        out = {"kind": kind}
        for key in ("a", "b"):
            if key not in obj:
                raise ValueError(f"{where}: missing matrix '{key}'")
            out[key] = matrix_from_json(obj[key], f"{where}.{key}")
        out["h"] = (
            vector_from_json(obj["h"], f"{where}.h")
            if "h" in obj
            else None
        )
        return out
    if kind == "commuting-family":
        if "matrices" not in obj or not isinstance(obj["matrices"], list) or not obj["matrices"]:
            raise ValueError(f"{where}.matrices: expected a nonempty list")
        return {
            "kind": kind,
            "matrices": [
                matrix_from_json(m, f"{where}.matrices[{i}]") for i, m in enumerate(obj["matrices"])
            ],
        }
    if kind == "matrix":
        if "matrix" not in obj:
            raise ValueError(f"{where}: missing 'matrix'")
        return {"kind": kind, "matrix": matrix_from_json(obj["matrix"], f"{where}.matrix")}
    raise ValueError(f"{where}.kind: unknown fixture kind {kind!r}")

