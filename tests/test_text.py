"""The artifact writers give the bytes of the stdlib writers they replace."""
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bourgen as bg
from bourgen import _text
from bourgen._text import json_text, rows_text, write_csv
from bourgen.cli import _write_json, write_obj, write_profile_csv

_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   2.225073858507201e-308, 1e-310, 1.7976931348623157e308,
                   0.1, 1e16, 1e-7]
floats = (st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(_SPECIAL_FLOATS)
          | st.floats(allow_nan=True, allow_infinity=True).map(np.float64))
strings = st.text() | st.sampled_from(["a, b", ", ", "é, ü", "☃,\n x",
                                       '"q", 1.0'])
scalars = st.none() | st.booleans() | st.integers() | floats | strings
payloads = st.recursive(
    scalars | st.lists(floats),
    lambda children: (st.lists(children) | st.tuples(children, children)
                      | st.dictionaries(strings, children)),
    max_leaves=30)


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_json_text_equals_stdlib(payload):
    assert json_text(payload) == json.dumps(payload, indent=1)


@pytest.mark.parametrize("payload", [
    [], {}, [[]], {"a": []}, {"a": {}}, [1.0, 2, 3.0], [True, 1.0],
    {"z": [1.0, math.nan], "a": [-math.inf, -0.0], "m": [1, "x, y", None]},
    {1: 1.0, 2.5: [0.5], None: "n", False: []},
])
def test_json_text_edge_payloads(payload):
    assert json_text(payload) == json.dumps(payload, indent=1)


def test_json_text_rejects_what_the_stdlib_rejects():
    for bad in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=1)
        with pytest.raises(TypeError):
            json_text(bad)


def _raw_floats(size):
    """Doubles of every kind from raw 64-bit patterns: subnormals, zeros,
    infinities and NaNs included."""
    bits = st.integers(0, 2**64 - 1) | st.sampled_from(
        [0, 1, 2**52 - 1, 2**52, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000,
         0x7FF8000000000000, 0x7FF0000000000001])
    return st.lists(st.tuples(bits, st.booleans()), min_size=size,
                    max_size=size).map(lambda pairs: np.array(
                        [b | (s << 63) for b, s in pairs],
                        dtype=np.uint64).view(np.float64))


def _ties(P):
    """Doubles exactly halfway between two P-digit decimals: k / 2**j with
    k odd has the P + 1 significant digits of k * 5**j, the last a 5."""
    spans = []  # (j, the range of (k - 1) / 2)
    for j in range(60):
        low = -(-10**P // 5**j)
        high = min((10**(P + 1) - 1) // 5**j, 2**53 - 1)
        if low // 2 <= (high - 1) // 2:
            spans.append((j, low // 2, (high - 1) // 2))

    @st.composite
    def tie(draw):
        j, low, high = draw(st.sampled_from(spans))
        k = 2 * draw(st.integers(low, high)) + 1
        return draw(st.sampled_from([1.0, -1.0])) * k / 2**j
    return tie()


def _savetxt(columns, **kwargs):
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(columns), delimiter=",", **kwargs)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_rows_text_equals_savetxt(ncols, nrows, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(nrows, ncols)) * 10.0 ** rng.integers(
        -300, 300, size=(nrows, ncols))
    data[rng.random(size=data.shape) < 0.05] = np.nan
    data[rng.random(size=data.shape) < 0.05] = -np.inf
    data[rng.random(size=data.shape) < 0.05] = -0.0
    columns = list(data.T) if nrows else [np.empty(0)] * ncols
    fmt = ",".join(["%.18e"] * ncols) + "\n"
    assert rows_text(fmt, columns) == _savetxt(columns)


@settings(max_examples=100, deadline=None)
@given(_raw_floats(12), st.lists(_ties(19), min_size=1, max_size=6))
def test_rows_text_equals_savetxt_on_raw_bits_and_ties(raw, ties):
    data = np.concatenate([raw, ties, [1e16, 1e17, 5e-324, -0.0]])
    data = np.resize(data, (-(-len(data) // 4), 4))
    columns = list(data.T)
    assert rows_text("%.18e,%.18e,%.18e,%.18e\n", columns) == _savetxt(
        columns)


_G17_FIXED = [1000000000000000.25, 9.9999999999999995e-05, 1e16, 1e17,
              5e-324, 1.7976931348623157e308]


def _vertex_rows(values):
    values = np.resize(np.asarray(values, dtype=float),
                       (-(-len(values) // 3), 3))
    expected = "".join(f"v {x:.17g} {y:.17g} {z:.17g}\n"
                       for x, y, z in values.tolist())
    return list(values.T), expected


def test_obj_rows_fixed_cases():
    columns, expected = _vertex_rows(_G17_FIXED + [-x for x in _G17_FIXED])
    assert rows_text("v %.17g %.17g %.17g\n", columns) == expected
    assert "v 1000000000000000.2 " in expected  # a tie rounds to even


@settings(max_examples=100, deadline=None)
@given(_raw_floats(12), st.lists(_ties(17), min_size=1, max_size=6),
       st.lists(st.integers(-30, 30).map(lambda e: 10.0**e), max_size=6))
def test_obj_rows_equal_per_value_format(raw, ties, powers):
    columns, expected = _vertex_rows(
        np.concatenate([raw, ties, powers, _G17_FIXED]))
    assert rows_text("v %.17g %.17g %.17g\n", columns) == expected


@pytest.mark.parametrize("fmt", ["v %.17g %.17g\n", "%.17g\n",
                                 "%.18e;%.18e\n", "%.18e,%.18e", "%r\n",
                                 "%.18e\n"])  # the last for one column
def test_rows_text_refuses_other_formats_and_column_counts(fmt):
    with pytest.raises(ValueError):
        rows_text(fmt, [np.ones(2), np.ones(2)])


def test_write_csv_equals_savetxt(tmp_path):
    s = np.linspace(-1.0, 2.0, 37)
    columns = [s, np.sqrt(s * s + 2.0), np.sin(s)]
    write_csv(tmp_path / "t.csv", "s,a,b", columns)
    assert (tmp_path / "t.csv").read_text() == _savetxt(
        columns, header="s,a,b", comments="")


def _kernel_reprs(values):
    """The repr kernel's text of each value, from a direct call (json_text
    sends payloads of few floats to the C encoder)."""
    values = np.asarray(values, dtype=np.float64)
    after = np.full(len(values), _text._word(","), dtype=np.int64)
    return _text._kernel_text(values, _text._REPR, None, after).split(
        ",")[:-1]


def _json_reprs(values):
    return [json.dumps(v) for v in np.asarray(values, dtype=float).tolist()]


_REPR_FIXED = [  # (value, its repr) at repr's switch points and edges
    (1e-05, "1e-05"), (0.0001, "0.0001"), (1e16, "1e+16"),
    (9999999999999998.0, "9999999999999998.0"),
    (1.2345678901234568e16, "1.2345678901234568e+16"),
    (5e-324, "5e-324"), (1.7976931348623157e308, "1.7976931348623157e+308"),
    (0.0, "0.0"), (-0.0, "-0.0"), (math.inf, "Infinity"),
    (-math.inf, "-Infinity"), (math.nan, "NaN"),
    (2.0**54 + 4, "1.8014398509481988e+16"),
    (2.0**54 + 24, "1.801439850948201e+16"), (0.1, "0.1"), (1.5, "1.5"),
    (123456.0, "123456.0"), (2.0 / 3.0, "0.6666666666666666"),
]


def test_repr_fixed_cases():
    values = [v for v, _ in _REPR_FIXED]
    values += [-v for v in values]
    got = _kernel_reprs(values)
    assert got == _json_reprs(values)
    assert got[:len(_REPR_FIXED)] == [text for _, text in _REPR_FIXED]


def test_repr_near_powers_of_two():
    # the gap to the double below a power of two is half the gap above
    powers = 2.0 ** np.arange(-1074, 1024)
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    assert _kernel_reprs(values) == _json_reprs(values)


def test_repr_endpoints_count_for_even_significands_only():
    # runs of consecutive doubles in [2**53, 2**57], where half the gap
    # to a neighbour is an integer: some of them reach a multiple of 10
    # exactly, which a shorter repr may take only for an even significand
    values = np.concatenate([
        2.0**e + 2.0**(e - 52) * np.arange(k, k + 400)
        for e in range(53, 57) for k in (0, 123457, 2**51 - 400)])
    assert _kernel_reprs(values) == _json_reprs(values)
    ints = values.astype(np.int64)
    half = 2 ** (np.log2(values).astype(np.int64) - 53)
    hits = ((ints + half) % 10 == 0) | ((ints - half) % 10 == 0)
    even = (ints // (2 * half)) % 2 == 0
    assert (hits & even).any() and (hits & ~even).any()


@settings(max_examples=100, deadline=None)
@given(_raw_floats(24))
def test_repr_kernel_equals_json_on_raw_bits(raw):
    assert _kernel_reprs(raw) == _json_reprs(raw)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=6),
       st.integers(0, 7), st.integers(0, 2**32 - 1))
def test_json_text_float_kernel_equals_stdlib(sizes, depth, seed):
    # more floats than one kernel block, so that a list spans two blocks;
    # arrays and lists, at every depth up to 8, where an indent no longer
    # fits the kernel's separator word
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
              for n in sizes] + [np.linspace(0.0, 1.0, 4500)]
    payload = {"x": [a.tolist() for a in arrays[::2]], "y": 1.5,
               "z": arrays[1::2]}
    for _ in range(depth):
        payload = {"d": payload}
    assert json_text(payload) == json.dumps(payload, indent=1,
                                            default=np.ndarray.tolist)


@pytest.fixture(params=["catenoid", "helicoid", "bcv"])
def member(request):
    return request.getfixturevalue(f"{request.param}_member")


def test_member_artifacts_equal_stdlib_writers(tmp_path, member):
    member.to_json(tmp_path / "m.json")
    assert (tmp_path / "m.json").read_text() == json.dumps(
        member.to_dict(), indent=1)
    write_profile_csv(member, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_text() == _savetxt(
        [member.s, member.x1, member.x2, member.omega, member.theta,
         member.V_samples], header="s,x1,x2,omega,theta,V", comments="")


def test_obj_vertices_equal_per_vertex_format(tmp_path, member):
    write_obj(member, member.space, tmp_path / "m.obj", t_range=(-0.3, 0.7))
    lines = (tmp_path / "m.obj").read_text().splitlines(keepends=True)
    s = np.linspace(*member.s_range, 41)
    xyz = np.broadcast_arrays(*bg.spaces.mesh_xyz(member.space, member.map(
        s[:, None], np.linspace(-0.3, 0.7, 41))))
    expected = [f"v {x:.17g} {y:.17g} {z:.17g}\n"
                for x, y, z in zip(*(c.ravel().tolist() for c in xyz))]
    assert lines[0] == f"# bourgen member m={member.m:.17g}\n"
    assert lines[1:1 + 41 * 41] == expected
    assert all(line.startswith("f ") for line in lines[1 + 41 * 41:])


def test_report_json_equals_stdlib(tmp_path):
    payload = {"b": [1.0, 0.1, math.nan], "a": {"z": 1, "y": [True, None]},
               "members": [{"m": 1.0, "passed": False}]}
    _write_json(payload, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text() == json.dumps(
        payload, indent=1, sort_keys=True) + "\n"


def test_curve_csvs_equal_savetxt(tmp_path):
    u = np.linspace(0.5, 2.0, 23)
    curve = bg.LiftedCurve(u=u, x1=np.cosh(u), x2=u, x3=0.2 * u)
    curve.to_csv(tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == _savetxt(
        [u, curve.x1, curve.x2, curve.x3], header="u,x1,x2,x3", comments="")
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (0.5, 2.0))
    U.to_csv(tmp_path / "U.csv")
    s = np.linspace(0.5, 2.0, 201)
    assert (tmp_path / "U.csv").read_text() == _savetxt(
        [s, U(s)], header="s,U", comments="")


def _float_values(o):
    if isinstance(o, dict):
        return [v for x in o.values() for v in _float_values(x)]
    if isinstance(o, list):
        return [v for x in o for v in _float_values(x)]
    return [o] if isinstance(o, float) else []


def test_member_floats_are_decided_by_the_kernel(member):
    values = np.abs(np.array(_float_values(member.to_dict())))
    undecided = _text._REPR.decimal(values)[-1]
    assert not (undecided & (values != 0.0)).any()
