"""The artifact writers print every float in one text, ``%.17g``, that
the program's readers read back bit-equal."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bourgen as bg
from bourgen import _text
from bourgen._text import json_bytes, rows_bytes, write_csv
from bourgen.cli import _write_json, write_obj, write_profile_csv
from bourgen.natural import _csv_columns

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


def _number(v):
    """The JSON text of one float: %.17g, except json.dumps's for the
    non-finite values and -0.0."""
    if not math.isfinite(v) or (v == 0.0 and math.copysign(1.0, v) < 0):
        return json.dumps(v)
    return "%.17g" % v


def _reference(o, level=0):
    """json_bytes's text, value by value: the layout of
    ``json.dumps(o, indent=1)`` with each float as ``_number`` prints it."""
    if isinstance(o, float):
        return _number(o)
    if isinstance(o, dict):
        ends = "{}"
        items = [f"{json.dumps(k)}: {_reference(v, level + 1)}"
                 for k, v in o.items()]
    elif isinstance(o, (list, tuple, np.ndarray)):
        ends = "[]"
        items = [_reference(v, level + 1) for v in o]
    else:
        return json.dumps(o)
    if not items:
        return ends
    pad = "\n" + " " * (level + 1)
    return ends[0] + pad + ("," + pad).join(items) + pad[:-1] + ends[1]


def json_text(payload):
    return json_bytes(payload).decode("ascii")


def rows_text(fmt, columns):
    """The rows of the columns in the layout of the row format ``fmt``: an
    OBJ vertex row, or comma-separated %.17g."""
    lead, separator = ("v ", " ") if fmt.startswith("v ") else ("", ",")
    return rows_bytes(columns, separator, lead).decode("ascii")


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_json_text_equals_per_value_reference(payload):
    assert json_text(payload) == _reference(payload)


@pytest.mark.parametrize("payload", [
    [], {}, [[]], {"a": []}, {"a": {}}, [1.0, 2, 3.0], [True, 1.0], 1.5,
    -0.0, {"z": [1.0, math.nan], "a": [-math.inf, -0.0], "m": [1, "x, y", None]},
    {"n": None, "f": False, "x": 0.1, "y": [1e17, 1e16, 123.0, 1e-5]},
])
def test_json_text_edge_payloads(payload):
    assert json_text(payload) == _reference(payload)


def test_json_text_rejects_what_it_cannot_write():
    for bad in ({(1, 2): 0}, {1: 1.0}, [object()], {"a": {1, 2}}):
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), _raw_floats(12),
       st.lists(_ties(17), min_size=1, max_size=6))
def test_csv_rows_equal_per_value_format(ncols, raw, ties):
    data = np.concatenate([raw, ties, _G17_FIXED])
    data = np.resize(data, (-(-len(data) // ncols), ncols))
    assert rows_text(",", list(data.T)) == "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in data.tolist())


def test_rows_of_no_values():
    assert rows_bytes([np.empty(0)] * 3, " ", "v ") == b""
    assert rows_bytes([np.empty(0)]) == b""


# -- every float re-reads bit-equal through the program's readers ------------

def _tie(P):
    """A double exactly halfway between two P-digit decimals."""
    j = 6
    k = 10 ** P // 5 ** j + 1
    k += 1 - k % 2
    value = k / 2 ** j
    digits = str(k * 5 ** j)
    assert len(digits) == P + 1 and digits[-1] == "5"
    return value


_ROUND_TRIP = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, _tie(17),
               -_tie(17), _tie(19), -_tie(19), 1e16, 1e17, 0.1, 1.0, -2.0,
               2.0**53 + 2, 1.7976931348623157e308, 2.225073858507201e-308]
_NON_FINITE = [math.nan, math.inf, -math.inf]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _read_back_all_kinds(values, tmp_path, member):
    """values written into each of the three member files and read back by
    the program's own readers: the member file by ``from_json`` (its
    metadata, which holds any float), the CSV by the reader of CSV
    generatrices and curves, and the OBJ vertex rows by ``float``."""
    values = np.asarray(values, dtype=np.float64)
    bg.SurfaceMember(member.s, member.x1, member.x2, member.x1p, member.x2p,
                     member.theta, member.theta_prime, member.omega,
                     member.V_samples, member.V_prime, member.m,
                     member.epsilon, metadata={"v": values.tolist(),
                                               "a": values}).to_json(
        tmp_path / "m.json")
    back = bg.SurfaceMember.from_json(tmp_path / "m.json").metadata
    write_csv(tmp_path / "v.csv", "a,b", [values, values[::-1]])
    a, b = _csv_columns(tmp_path / "v.csv", "a,b")
    columns = np.resize(values, (-(-len(values) // 3), 3)).T
    (tmp_path / "v.obj").write_bytes(rows_bytes(columns, " ", "v "))
    vertices = [float(t) for line in (tmp_path / "v.obj").read_text(
    ).splitlines() for t in line.split()[1:]]
    return ([(back[k], values) for k in ("v", "a")]
            + [(a, values), (b[::-1], values),
               (vertices, columns.T.ravel())])


def test_special_values_re_read_bit_equal(tmp_path, bcv_member):
    for got, want in _read_back_all_kinds(_ROUND_TRIP + _NON_FINITE,
                                          tmp_path, bcv_member):
        assert _bits([float(v) for v in got]) == _bits(want)


@settings(max_examples=30, deadline=None)
@given(_raw_floats(24))
def test_random_bits_re_read_bit_equal(tmp_path_factory, bcv_member, raw):
    tmp_path = tmp_path_factory.mktemp("bits")
    raw = np.where(np.isnan(raw), math.nan, raw)  # one NaN's bits
    for got, want in _read_back_all_kinds(raw, tmp_path, bcv_member):
        assert _bits([float(v) for v in got]) == _bits(want)


@pytest.fixture(params=["catenoid", "helicoid", "bcv"])
def member(request):
    return request.getfixturevalue(f"{request.param}_member")


def test_member_files_re_read_bit_equal(tmp_path, member):
    member.to_json(tmp_path / "m.json")
    back = bg.SurfaceMember.from_json(tmp_path / "m.json")
    for name in ("s", "x1", "x2", "x1p", "x2p", "theta", "theta_prime",
                 "omega", "V_samples", "V_prime"):
        assert getattr(back, name).tobytes() == getattr(
            member, name).tobytes(), name
    write_profile_csv(member, tmp_path / "p.csv")
    data = _csv_columns(tmp_path / "p.csv", "s,x1,x2,omega,theta,V")
    for got, want in zip(data, (member.s, member.x1, member.x2, member.omega,
                                member.theta, member.V_samples)):
        assert got.tobytes() == want.tobytes()


def test_member_artifacts_equal_per_value_writers(tmp_path, member):
    member.to_json(tmp_path / "m.json")
    assert (tmp_path / "m.json").read_text() == _reference(member.to_dict())
    write_profile_csv(member, tmp_path / "p.csv")
    rows = np.column_stack([member.s, member.x1, member.x2, member.omega,
                            member.theta, member.V_samples]).tolist()
    assert (tmp_path / "p.csv").read_text() == "s,x1,x2,omega,theta,V\n" + (
        "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows))


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


def test_curve_csvs_equal_per_value_format(tmp_path):
    u = np.linspace(0.5, 2.0, 23)
    curve = bg.LiftedCurve(u=u, x1=np.cosh(u), x2=u, x3=0.2 * u)
    curve.to_csv(tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == "u,x1,x2,x3\n" + rows_text(
        ",", [u, curve.x1, curve.x2, curve.x3])
    U = bg.GeneratrixMetric.from_expression("sqrt(s^2+1)", (0.5, 2.0))
    U.to_csv(tmp_path / "U.csv")
    s = np.linspace(0.5, 2.0, 201)
    assert (tmp_path / "U.csv").read_text() == "s,U\n" + "".join(
        f"{a:.17g},{b:.17g}\n" for a, b in zip(s.tolist(), U(s).tolist()))


def _float_values(o):
    if isinstance(o, dict):
        return [v for x in o.values() for v in _float_values(x)]
    if isinstance(o, list):
        return [v for x in o for v in _float_values(x)]
    return [o] if isinstance(o, float) else []


def test_member_floats_are_decided_by_the_kernel(member):
    values = np.abs(np.array(_float_values(member.to_dict())))
    undecided = _text._decimal(np.where(values == 0.0, 1.0, values))[-1]
    assert not undecided.any()


# -- block boundaries of a member file's float lists -------------------------

def _spread(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)).tolist()


@pytest.mark.parametrize("sizes, on_a_list_end", [
    ([9000], False),  # three blocks inside one list
    ([4000, 300], False),  # a block boundary inside the first list
    ([_text._KERNEL_BLOCK, _text._KERNEL_BLOCK], True),  # on the first's end
    ([_text._KERNEL_BLOCK - 1, 1, _text._KERNEL_BLOCK], True),
])
def test_json_text_block_boundaries(sizes, on_a_list_end, monkeypatch):
    lists = [_spread(n, seed) for seed, n in enumerate(sizes)]
    payload = {"profile": {f"l{i}": v for i, v in enumerate(lists)},
               "V": lists[-1]}
    assert json_text(payload) == _reference(payload)
    blocks, kernel = [], _text._kernel_text

    def recorded(x, *args):
        blocks.append(len(x))
        return kernel(x, *args)

    monkeypatch.setattr(_text, "_kernel_text", recorded)
    arrays = {"a": [np.array(v) for v in lists]}
    assert json_text(arrays) == _reference(arrays)
    assert max(blocks) <= _text._KERNEL_BLOCK and sum(blocks) == sum(sizes)
    inner_ends = set(np.cumsum(blocks)[:-1]) & set(np.cumsum(sizes))
    assert bool(inner_ends) == on_a_list_end


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=6),
       st.integers(0, 7), st.integers(0, 2**32 - 1))
def test_json_text_float_kernel_at_every_depth(sizes, depth, seed):
    # more floats than one kernel block, so that a list spans two blocks;
    # arrays and lists, at every depth up to 8, where an indent no longer
    # fits the word after a value
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
              for n in sizes] + [np.linspace(0.0, 1.0, 4500)]
    payload = {"x": [a.tolist() for a in arrays[::2]], "y": 1.5,
               "z": arrays[1::2]}
    for _ in range(depth):
        payload = {"d": payload}
    assert json_text(payload) == _reference(payload)


# -- every kernel branch, on both sides ---------------------------------------

_SPECIALS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-300,
             -1e300, 5e-324, 1e-250, 1e250, 9.9e-251, 1.1e250]


@pytest.mark.parametrize("json_numbers", [False, True])
@pytest.mark.parametrize("special", _SPECIALS + ["tie17", "tie19"])
def test_kernel_special_values_at_every_position(json_numbers, special):
    s = _tie(int(special[3:])) if isinstance(special, str) else special
    plain = [0.1, -2.5, 1234.5678, 3.0e-7, 6.02e23]
    text = _number if json_numbers else "%.17g".__mod__
    after = np.array([_text._word(",")])
    for values in ([s], [s] + plain, plain + [s], plain[:2] + [s] + plain,
                   plain):
        got = _text._kernel_text(np.array(values), after, json_numbers)
        assert got.decode("ascii").split(",")[:-1] == [text(v)
                                                       for v in values]


@pytest.mark.parametrize("special", _SPECIALS + [_tie(17), _tie(19)])
def test_writers_with_special_values_first_and_last(special):
    plain = [0.5, -1.25, 7.0, 1e-5, 3.5e17, 2.0 / 3.0]
    for values in ([special] + plain, plain + [special]):
        columns = list(np.reshape(values, (-1, 7)).T)  # one row of 7
        assert rows_text(",", columns) == ",".join(
            "%.17g" % v for v in values) + "\n"
        columns, expected = _vertex_rows(values[:6])
        assert rows_text("v %.17g %.17g %.17g\n", columns) == expected
        assert json_text({"v": values}) == _reference({"v": values})


def test_digit_table_holds_every_group():
    texts = [f"{q:04d}" for q in range(10 ** 4)]
    words = [int(w).to_bytes(8, "little") for w in _text._DIGITS4]
    assert [w[:4].decode() for w in words] == texts
    assert [int.from_bytes(w[4:], "little") - 16 for w in words] == [
        len(t.rstrip("0")) or -12 for t in texts]


def test_form_tables_spell_every_exponent():
    X = np.arange(-_text._EXP0, _text._EXP0 + 1)
    tails = [int(w).to_bytes(8, "little") for w in _text._TAIL]
    fixed = (-4 <= X) & (X < 17)
    assert [t[2:].replace(b"\0", b"").decode() for t in tails] == [
        "" if f else f"e{x:+03d}" for x, f in zip(X.tolist(), fixed)]
    assert not any(any(t[:2]) for t in tails)
    prefixes = [int(w).to_bytes(8, "little") for w in _text._PREFIX]
    assert [p.replace(b"\0", b"").decode() for p in prefixes] == [
        "0." + "0" * (-x - 1) if -4 <= x < 0 else "" for x in X.tolist()]
    assert not any(p[0] for p in prefixes)  # byte 0 holds the sign


def test_exponent_tables_bound_every_field():
    # for the exponent field of every double in [1e-250, 1e250], the
    # table's decimal exponent is floor(log10 x) or one below it, and its
    # next power decides which
    from fractions import Fraction
    for field in range(1023 - 831, 1023 + 831):
        low = Fraction(2) ** (field - 1023)  # its doubles are [low, 2 low)
        high = 2 * low
        e10 = int(_text._FIELD_E10[field]) - _text._EXP0
        assert Fraction(10) ** e10 <= low and high <= Fraction(10) ** (e10 + 2)
        assert _text._FIELD_NEXT[field] == _text._P10_HI[e10 + 1 - _text._K0]


def test_insertion_tables_place_the_point_and_strip():
    digits = "ABCDEFGHIJKLMNOPQ"  # D0-D16
    words = [int.from_bytes(digits[8 * k:8 * k + 8].encode(), "little")
             for k in range(3)]
    for p in range(18):
        for keep in range(17):
            i = 17 * p + keep
            out, carry = b"", 0
            for k, w in enumerate(words):
                moved = w & int(_text._MOVE[k, i])
                w = (w & int(_text._STAY[k, i]) | int(_text._DOT[k, i])
                     | moved << 8 & (1 << 64) - 1 | carry)
                carry = moved >> 56
                out += w.to_bytes(8, "little")
            kept = digits[:keep + 1]
            expected = (kept[:p] + "." + kept[p:] if 1 <= p <= keep
                        else kept)
            assert out.replace(b"\0", b"").decode() == expected, (p, keep)
