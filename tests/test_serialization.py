"""Tests for deterministic JSON/CSV serialization and fixture encoding."""

import csv
import io
import json
import math

import numpy as np
import pytest

import waveprop as wp
from waveprop import serialization as ser


def test_matrix_roundtrip_complex():
    m = np.array([[1.0 + 2.0j, -0.5], [0.25j, 3.0]])
    back = ser.matrix_from_json(ser.matrix_to_json(m), "m")
    assert np.array_equal(back, m)


def test_vector_roundtrip():
    v = np.array([1.0, -2.5j, 0.125 + 0.25j])
    back = ser.vector_from_json(ser.vector_to_json(v), "v")
    assert np.array_equal(back, v)


def test_matrix_errors_carry_location():
    obj = ser.matrix_to_json(np.eye(3))
    obj["rows"][2][1] = "oops"
    with pytest.raises(ValueError, match=r"fix\.rows\[2\]\[1\]"):
        ser.matrix_from_json(obj, "fix")


def test_vector_errors_carry_location():
    obj = ser.vector_to_json(np.ones(3))
    obj["entries"][1] = [1.0]
    with pytest.raises(ValueError, match=r"vec\.entries\[1\]"):
        ser.vector_from_json(obj, "vec")


def _rowwise_field_csv(field, stream, t=None):
    """The row-at-a-time csv.writer layout that field_to_csv must reproduce."""
    writer = csv.writer(stream, lineterminator="\n")
    coords = [field.axis_coordinates(axis) for axis in range(field.dim)]
    header = ["index"] + [f"x{axis}" for axis in range(field.dim)] + ["re", "im"]
    if t is not None:
        header.append("t")
    writer.writerow(header)
    flat = field.values.reshape(-1)
    for index, multi in enumerate(np.ndindex(*field.shape)):
        row = [index] + [repr(float(coords[axis][pos])) for axis, pos in enumerate(multi)]
        row += [repr(float(flat[index].real)), repr(float(flat[index].imag))]
        if t is not None:
            row.append(repr(float(t)))
        writer.writerow(row)


def _field_with_signed_zeros(shape):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values.flat[:4] = [complex(-0.0, 5e-324), complex(1e-310, -0.0), -2.5e-320j, 0.0]
    # an im column three quarters -0.0 and 0.0, so it is deduplicated: the bit
    # patterns keep the two zeros apart
    zeros = np.arange(4, values.size)
    zeros = zeros[zeros % 4 != 0]
    values.imag.flat[zeros] = np.where(zeros % 2, 0.0, -0.0)
    lengths = (1.0, 2.0 * math.pi, 3.0)[: len(shape)]
    return wp.GridField(values, lengths, (-0.5, 0.0, 1e-3)[: len(shape)])


@pytest.mark.parametrize("t", [None, 0.1, -0.0])
def test_field_csv_matches_rowwise_writer(t):
    # below one block, one block and a tail, two blocks and a tail: never a multiple
    for shape in [(3, 4, 5), (ser._CSV_BLOCK // 16 + 3, 16), (2 * ser._CSV_BLOCK + 5,)]:
        f = _field_with_signed_zeros(shape)
        got, want = io.StringIO(), io.StringIO()
        ser.field_to_csv(f, got, t=t)
        _rowwise_field_csv(f, want, t=t)
        assert got.getvalue() == want.getvalue(), shape
        assert "-0.0" in got.getvalue() and "5e-324" in got.getvalue()


def _decoded_values(obj):
    """The samples of a field's JSON: a flat list of reals, or [re, im] pairs."""
    values = np.array(obj["values"], dtype=float)
    if values.ndim == 2:
        values = values.view(complex)  # a pair is the two doubles of a complex, signs kept
    return values.reshape(obj["dims"])


def test_field_json_roundtrip():
    # the JSON text keeps the layout and every sample exactly; real samples
    # are one flat list, complex ones [re, im] pairs
    bump = wp.gaussian_bump((8, 4), (2 * math.pi, 4 * math.pi), (1.0, 2.0), 0.5)
    for scale, pairs in [(1.0, False), (1.0 - 0.5j, True)]:
        f = wp.GridField(bump.values * scale, bump.lengths, origins=(-1.5, 0.25))
        obj = json.loads(json.dumps(ser.field_to_json(f, t=0.25)))
        assert obj["dims"] == [8, 4]
        assert obj["lengths"] == [2 * math.pi, 4 * math.pi]
        assert obj["origins"] == [-1.5, 0.25]
        assert obj["t"] == 0.25
        assert all(isinstance(v, list) == pairs for v in obj["values"])
        assert np.array_equal(_decoded_values(obj), f.values)


@pytest.mark.parametrize("imag", [0.0, -0.0, 1e-310])
def test_field_json_artifact_keeps_signed_zeros_and_subnormals(imag):
    # a field is flat only when no imaginary part is nonzero: -0.0 parts drop, 1e-310 keeps pairs
    special = np.array([-0.0, 5e-324, 1e-310, -2.5e-320, 0.0, 1.5])
    values = np.empty(special.size, dtype=complex)
    values.real, values.imag = special, imag
    f = wp.GridField(values, (1.0,))
    stream = io.StringIO()
    text = ser.dump_json(ser.field_to_json(f), stream)
    assert stream.getvalue() == text and text.count("\n") == 1
    obj = json.loads(text)
    got = _decoded_values(obj)
    assert isinstance(obj["values"][0], list) == (imag != 0.0)
    assert np.array_equal(got.real.view(np.int64), special.view(np.int64))
    if imag != 0.0:
        assert np.array_equal(got.view(np.int64), f.values.view(np.int64))


def test_field_csv_layout():
    f = wp.gaussian_bump((4, 4), (1.0, 1.0), (0.5, 0.5), 0.2)
    buf = io.StringIO()
    ser.field_to_csv(f, buf, t=0.5)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "index,x0,x1,re,im,t"
    assert len(lines) == 17
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[-1]) == 0.5
    # repr floats parse back exactly
    assert float(cells[3]) == f.values[0, 0].real


def test_series_csv_writer():
    buf = io.StringIO()
    ser.series_to_csv(["m", "error"], [(8, 0.5), (16, 0.25)], buf)
    assert buf.getvalue().splitlines() == ["m,error", "8,0.5", "16,0.25"]


def _rowwise_rule_csv(rule, stream):
    """The row-at-a-time csv.writer layout that rule_to_csv must reproduce."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"w{i + 1}" for i in range(rule.nodes.shape[1])] + ["weight"])
    for row, w in zip(rule.nodes, rule.weights):
        writer.writerow([repr(float(v)) for v in row] + [repr(float(w))])


def test_rule_csv_writer():
    rules = [
        wp.build_ball_rule(3, 24),  # sign-mirrored: few distinct values per column
        wp.build_sphere_rule(2, 4),
        wp.build_ball_rule(3, 4, method="montecarlo", samples=2 * ser._CSV_BLOCK + 7, seed=1),
    ]
    for rule in rules:
        got, want = io.StringIO(), io.StringIO()
        ser.rule_to_csv(rule, got)
        _rowwise_rule_csv(rule, want)
        assert got.getvalue() == want.getvalue(), rule.method
        lines = got.getvalue().splitlines()
        assert lines[0] == ",".join(f"w{i + 1}" for i in range(rule.nodes.shape[1])) + ",weight"
        assert len(lines) == len(rule.weights) + 1


def test_series_csv_matches_csv_writer():
    rows = [(8, 0.5), (16, np.float64(-0.0)), (np.int64(32), 1e-300), (64, math.inf), (128, math.nan)]
    got, want = io.StringIO(), io.StringIO()
    ser.series_to_csv(["m", "error"], rows, got)
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["m", "error"])
    for row in rows:
        writer.writerow([repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row])
    assert got.getvalue() == want.getvalue()
    empty = io.StringIO()
    ser.series_to_csv(["m", "error"], iter([]), empty)
    assert empty.getvalue() == "m,error\n"


def test_dump_json_is_deterministic_and_sorted():
    obj = {"b": 1.5, "a": [1.0 / 3.0], "c": {"z": 1, "y": 2}}
    one = ser.dump_json(obj)
    two = ser.dump_json(obj)
    assert one == two
    assert one.endswith("\n")
    assert one.index('"a"') < one.index('"b"') < one.index('"c"')
    # shortest-roundtrip float formatting
    assert "0.3333333333333333" in one


_JSON_PAYLOADS = {
    "specials": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 1 / 3],
    "scalars": {"int": -7, "big": 10 ** 30, "bool": True, "none": None, "float": np.float64(2.5)},
    "top-level-list": [1, 2.5, False, None],
    "top-level-scalar": 1.5,
    "top-level-string": "caf\u00e9",
    "tuples": {"pair": (1.0, -0.0), "pairs": ((1.0, 2.0), (3.0, 4.0))},
    "empties": {"list": [], "dict": {}, "nested": [[], {}, [[]], [[], [1.0]]]},
    "strings": ["caf\u00e9 \u2014 \U0001f30a", "quote \" back\\slash", "tab\tnl\n", "[1, 2]", ", "],
    "int-keys": {3: "three", -1: [1.0], 10: {2: None}},
    "other-keys": {1.5: 1, math.inf: 2, -math.inf: 3},
    "bool-keys": {True: 1, False: 0},
    "depth-3": [[[1.0, -2.0], [3.0, 4.5]], [[5.0, 6.0], [-0.0, 8.0]]],
    "ragged": [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
    "mixed-depth": [[1.0, 2.0], 3.0, [[4.0]]],
    "mixed": [True, 1.0],
    "list-of-dicts": [{"b": [1.0, 2.0], "a": {"z": [], "y": [[1, 2]]}}, {"c": "x"}],
    "field": {"values": np.stack([np.linspace(-1, 1, 7), np.zeros(7)], -1).tolist(), "dims": [7]},
    # long number lists, flat and nested
    "long-pairs": np.stack([np.linspace(-1, 1, 2051), np.full(2051, -0.0)], -1).tolist(),
    "long-flat": {"x": list(range(1025)), "y": [[[0.5]] * 3] * 1026},
}


@pytest.mark.parametrize("name", sorted(_JSON_PAYLOADS))
def test_dump_json_matches_json_dumps(name):
    obj = _JSON_PAYLOADS[name]
    assert ser.dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dump_json_matches_json_dumps_on_whole_payload():
    assert ser.dump_json(_JSON_PAYLOADS) == json.dumps(_JSON_PAYLOADS, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {"x": object()},
    [1.0, {1, 2}],
    [[1.0], [np.complex128(1j)]],
    {(1, 2): 1.0},
    {1: 1.0, "a": 2.0},
])
def test_dump_json_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        ser.dump_json(obj)


def test_json_writers_keep_every_sample_exactly():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m[0, 0] = complex(-0.0, 0.0)
    assert ser.matrix_to_json(m)["rows"] == [[[z.real, z.imag] for z in row] for row in m.tolist()]
    assert ser.vector_to_json(m[0])["entries"] == [[z.real, z.imag] for z in m[0].tolist()]
    assert math.copysign(1.0, ser.vector_to_json(m[0])["entries"][0][0]) == -1.0
    text = ser.dump_json(ser.matrix_to_json(m))
    assert text == json.dumps(ser.matrix_to_json(m), sort_keys=True, indent=2) + "\n"


def test_dump_json_writes_to_path(tmp_path):
    # an artifact is the compact one-line text
    path = tmp_path / "out.json"
    obj = {"x": 1, "a": [[1.5, -0.0], [5e-324, 1e-310]], "b": {"z": None}}
    text = ser.dump_json(obj, path)
    assert path.read_text() == text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1 and " " not in text
    assert ser.load_json_file(path) == obj


def test_load_json_file_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"a": \n nope}')
    with pytest.raises(ValueError, match="line 2"):
        ser.load_json_file(path)


def test_hermitian_pair_fixture_roundtrip():
    fx = ser.hermitian_pair_fixture(4, seed=7)
    assert fx["kind"] == "hermitian-pair"
    decoded = ser.fixture_from_json(fx, "fx")
    a, b, h = decoded["a"], decoded["b"], decoded["h"]
    assert np.allclose(a, a.conj().T)
    assert np.allclose(b, b.conj().T)
    assert np.linalg.norm(a, 2) == pytest.approx(1.0, rel=1e-12)
    assert h.shape == (4,)
    # same seed reproduces the same fixture
    again = ser.hermitian_pair_fixture(4, seed=7)
    assert ser.dump_json(fx) == ser.dump_json(again)


def test_commuting_family_fixture_is_diagonal():
    fx = ser.commuting_family_fixture(3, 4, seed=2)
    decoded = ser.fixture_from_json(fx, "fx")
    ops = decoded["matrices"]
    assert len(ops) == 3
    for op in ops:
        assert np.allclose(op, np.diag(np.diag(op)))
        assert np.abs(np.diag(op)).max() <= 1.0


def test_fixture_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        ser.fixture_from_json({"kind": "mystery"}, "fx")


def test_fixture_decoding_reports_nested_location():
    fx = ser.hermitian_pair_fixture(3, seed=1)
    fx["a"]["rows"][0][2] = "bad"
    with pytest.raises(ValueError, match=r"fx\.a\.rows\[0\]\[2\]"):
        ser.fixture_from_json(fx, "fx")
