"""The artifact writers give the bytes of the stdlib writers they replace."""
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bourgen as bg
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
@given(payloads, st.booleans())
def test_json_text_equals_stdlib(payload, sort_keys):
    assert json_text(payload, sort_keys) == json.dumps(
        payload, indent=1, sort_keys=sort_keys)


@pytest.mark.parametrize("payload", [
    [], {}, [[]], {"a": []}, {"a": {}}, [1.0, 2, 3.0], [True, 1.0],
    {"z": [1.0, math.nan], "a": [-math.inf, -0.0], "m": [1, "x, y", None]},
    {1: 1.0, 2.5: [0.5], None: "n", False: []},
])
def test_json_text_edge_payloads(payload):
    for sort_keys in (False, True):
        try:
            expected = json.dumps(payload, indent=1, sort_keys=sort_keys)
        except TypeError:  # keys of mixed types do not sort
            continue
        assert json_text(payload, sort_keys) == expected


def test_json_text_rejects_what_the_stdlib_rejects():
    for bad in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=1)
        with pytest.raises(TypeError):
            json_text(bad)


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


def test_write_csv_equals_savetxt(tmp_path):
    s = np.linspace(-1.0, 2.0, 37)
    columns = [s, np.sqrt(s * s + 2.0), np.sin(s)]
    write_csv(tmp_path / "t.csv", "s,a,b", columns)
    assert (tmp_path / "t.csv").read_text() == _savetxt(
        columns, header="s,a,b", comments="")


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
    write_obj(member, member.space, tmp_path / "m.obj", s_count=9,
              t_count=7, t_range=(-0.3, 0.7))
    lines = (tmp_path / "m.obj").read_text().splitlines(keepends=True)
    s = np.linspace(*member.s_range, 9)
    xyz = bg.spaces.mesh_xyz(member.space, member.map(
        s[:, None], np.linspace(-0.3, 0.7, 7)))
    expected = [f"v {x:.17g} {y:.17g} {z:.17g}\n"
                for x, y, z in zip(*(c.ravel().tolist() for c in xyz))]
    assert lines[0] == f"# bourgen member m={member.m:.17g}\n"
    assert lines[1:1 + 63] == expected
    assert all(line.startswith("f ") for line in lines[1 + 63:])


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
    U.to_csv(tmp_path / "U.csv", n=17)
    s = np.linspace(0.5, 2.0, 17)
    assert (tmp_path / "U.csv").read_text() == _savetxt(
        [s, U(s)], header="s,U", comments="")
