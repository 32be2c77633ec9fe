"""Artifact text in one pass: the exact bytes of the stdlib writers.

``json_text`` is ``json.dumps(payload, indent=1)`` with each all-float
list encoded by the C encoder instead of the pure-Python one that
``indent`` selects.  ``rows_text`` is the row text of the two row formats
the exporters write, an OBJ vertex ``"v %.17g %.17g %.17g\\n"`` and a
``%.18e`` CSV row (``np.savetxt``'s text), and ``write_csv`` the CSV file
every exporter writes with it.

``rows_text`` formats a whole block with a numpy kernel instead of one
``%`` per value.  Each ``|x|`` is scaled by ``10**k``, with ``k`` from
``floor(log10|x|)``, so that its integer part ``N`` has the format's P
significant digits (17 for ``%.17g``, 19 for ``%.18e``).  The product is
a double-double: ``10**k`` is an unevaluated sum ``hi + lo`` of doubles,
each rounded from the exact power with ``int`` arithmetic at import, and
``x * hi`` is split exactly by Dekker's product.  The error of
``N + fraction`` is below 1e-12 of the last place, so rounding ``N`` by
its fraction gives the correctly rounded digits whenever the fraction is
not within 1e-6 of one half (Gay's test, with Ryu's table of powers of
ten in place of bignums).  A value is undecided, and gets Python's ``%``
on its own, when:

- its fraction is within 1e-6 of one half, which holds every tie;
- it is non-finite, or ``|x|`` is outside [1e-250, 1e250], where the
  products would leave the normal range;
- the guessed exponent is off by one, so ``N`` has not P digits.

Zeros of either sign are formatted by the kernel.  The digits of ``N``
are written into a byte matrix with the layout of their decimal
exponent: ``%g``'s choice between fixed and exponent form and its
stripping of trailing zeros, or ``%e``'s one form.  Unused bytes are
zero and are removed from the joined rows, so the text is exactly that
of ``fmt % row`` for every row.
"""
import json
from itertools import repeat

import numpy as np


def json_text(payload, sort_keys=False):
    """The text of ``json.dumps(payload, indent=1, sort_keys=sort_keys)``."""
    return _encode(payload, 0, sort_keys)


def _encode(o, level, sort_keys):
    if isinstance(o, dict):
        if not o:
            return "{}"
        pad = "\n" + " " * (level + 1)
        items = sorted(o.items()) if sort_keys else o.items()
        body = ("," + pad).join(
            f"{_key(k)}: {_encode(v, level + 1, sort_keys)}" for k, v in items)
        return "{" + pad + body + pad[:-1] + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        pad = "\n" + " " * (level + 1)
        if all(map(isinstance, o, repeat(float))):
            # float reprs hold no ", ", so only separators are replaced
            body = json.dumps(o)[1:-1].replace(", ", "," + pad)
        else:
            body = ("," + pad).join(_encode(x, level + 1, sort_keys)
                                    for x in o)
        return "[" + pad + body + pad[:-1] + "]"
    return json.dumps(o)


def _key(k):
    """A dict key as the stdlib writes it: non-string keys as their JSON
    scalar text, quoted."""
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(k).__name__}")
        k = json.dumps(k)
    return json.dumps(k)


# -- the float kernel ---------------------------------------------------------
#
# The kernel keeps to float64 and int64 arithmetic without integer
# division (a multiply-and-shift or a float estimate stands in for it):
# the first call of a numpy loop brings 64 KiB or more of numpy's code
# into the process's resident memory, and a bourgen run calls these loops
# anyway.

# the powers 10**k that scale a double in [1e-250, 1e250] to 17 or 19
# digits, and the powers 10**e that bound it
_K0, _K1 = -260, 272
_LOG10_2 = 0.30102999566398120  # log10(2)
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _split(a):
    """a as hi + lo, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table():
    """Columns hi, lo and hi's split, with hi + lo = 10**k to about
    2**-107 relative, for k from _K0 to _K1: hi is 10**k rounded to a
    double and lo the remainder rounded, from ints (int true division
    rounds correctly)."""
    hi, lo = [], []
    for k in range(_K0, _K1 + 1):
        if k >= 0:
            h = float(10 ** k)
            r = float(10 ** k - int(h))
        else:
            q = 10 ** -k
            h = 1 / q
            num, den = h.as_integer_ratio()
            r = (den - num * q) / (den * q)
        hi.append(h)
        lo.append(r)
    hi = np.array(hi)
    return (hi, np.array(lo), *_split(hi))


_P10_HI, _P10_LO, _P10_HH, _P10_HL = _pow10_table()

_ASCII_ZEROS = 0x3030303030303030  # "00000000"
# _EXP_WORDS[X + _EXP0]: bytes 24-31 of a source row (see _Conversion)
# for decimal exponent X, with no sign and the point in place
_EXP0 = 300
_EXP_WORDS = np.array([int.from_bytes(f"\0.0e{X:+04d}".encode(), "little")
                       for X in range(-_EXP0, _EXP0 + 1)], dtype=np.int64)
_DOT_BIT, _MINUS = ord(".") << 8, ord("-")
# a word w >= 0 has no nonzero byte past its first k where w < 256**k,
# _BYTE_STEPS[k]; _BYTE_MASKS[k] keeps a word's first k bytes
_BYTE_STEPS = np.array([256 ** k for k in range(8)], dtype=np.int64)
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)],
                       dtype=np.uint64).view(np.int64)


class _Conversion:
    """One float conversion, ``%.17g`` or ``%.18e``: its P significant
    digits and the layouts of its cells.

    A value's source row is four little-endian words, 32 bytes:

    - bytes 1-2 and 3, the row literals before and after the value;
    - bytes 24 - P to 23, its P digit characters;
    - bytes 24 to 31: its sign, ".", "0", "e", the exponent's sign and
      three digits.

    Every other byte is zero, as are ``%g``'s stripped digits and point.
    A layout lists, for each byte of a value's slot (two literal bytes,
    the cell, one literal byte), the source byte it takes.
    """

    def __init__(self, spec, digits, general):
        self.spec = spec
        self.digits = P = digits
        self.general = general
        self.lead_mask = ~_BYTE_MASKS[24 - P]  # the top word's digit bytes
        D = [24 - P + j for j in range(P)]
        sign, dot, zero = 24, 25, 26
        exponent = {2: [27, 28, 30, 31], 3: [27, 28, 29, 30, 31]}
        cells = []
        if general:  # fixed form, by decimal exponent X from -4 to P - 1
            cells += [[sign, zero, dot] + [zero] * (-X - 1) + D
                      for X in range(-4, 0)]
            cells += [[sign, *D[:X + 1], dot, *D[X + 1:]] for X in range(P)]
        for width in (2, 3):  # exponent form, two or three exponent digits
            cells.append([sign, D[0], dot, *D[1:], *exponent[width]])
        self.width = W = max(map(len, cells))
        self.layouts = np.array([[1, 2, *cell, *[0] * (W - len(cell)), 3]
                                 for cell in cells], dtype=np.intp)

    def layout(self, X):
        """The layout index of each decimal exponent X."""
        index = (len(self.layouts) - 2) + ((X >= 100) | (X <= -100))
        if self.general:
            fixed = (X >= -4) & (X < self.digits)
            index += fixed * (X + 4 - index)
        return index


_G17 = _Conversion("%.17g", 17, general=True)
_E18 = _Conversion("%.18e", 19, general=False)


def _decimal(a, P):
    """(top, rest, X, undecided) for |x| = a: |x| rounded to P significant
    digits is the integer N = top * 10**16 + rest in [10**(P-1), 10**P),
    times 10**(X - P + 1); all are garbage where ``undecided``.  Every
    integer is an int64."""
    ok = (a >= 1e-250) & (a <= 1e250)
    a = np.where(ok, a, 1.0)
    # floor(log10 a): a guess from log2, off by at most one, then set
    # against the powers of the table
    e10 = np.floor(np.log2(a) * _LOG10_2).astype(np.int64)
    e10 += a >= _P10_HI.take(e10 + 1 - _K0)
    e10 -= a < _P10_HI.take(e10 - _K0)
    k = P - 1 - _K0 - e10
    p = a * _P10_HI.take(k)
    ah, al = _split(a)
    # x * 10**k = p + t: p rounds the product, t holds its exact error
    # (Dekker, ((ah hh - p) + ah hl + al hh) + al hl) and x * lo
    hh, hl = _P10_HH.take(k), _P10_HL.take(k)
    t = ah * hh
    t -= p
    t += ah * hl
    t += al * hh
    t += al * hl
    t += a * _P10_LO.take(k)
    del ah, al, hh, hl, k
    whole = np.floor(t)
    frac = t - whole
    # N before rounding is p + whole, p an integer wherever N has P digits
    # (10**(P-1) > 2**53): top from a float estimate, off by at most one,
    # rest from p - top * 1e16, which is exact
    top = np.floor((p + whole) * 1e-16)
    rest = (p - top * 1e16).astype(np.int64) + whole.astype(np.int64)
    top = top.astype(np.int64)
    _carry(top, rest, 10 ** 16)
    undecided = (~ok | (np.abs(frac - 0.5) < 1e-6)
                 | (top < 10 ** (P - 17)) | ~(top < 10 ** (P - 16)))
    rest += frac > 0.5
    _carry(top, rest, 10 ** 16)
    high = top == 10 ** (P - 16)  # rounded up to 10**P: 10**(P-1), X + 1
    top[high] = 10 ** (P - 17)
    e10 += high
    return top, rest, e10, undecided


def _carry(high, low, base):
    """Move one unit between the int64 digit groups high and low, in
    place, where low is within one base outside [0, base)."""
    step = (~(low < base)).astype(np.int64)
    step -= (low < 0).astype(np.int64)
    high += step
    low -= step * base


def _ascii8(v):
    """Turn each v < 10**8, in place, into the word whose little-endian
    bytes are its 8 decimal digit characters, most significant first:
    two 4-digit lanes, split into 2-digit and then 1-digit lanes by
    multiply-and-shift division (exact for lanes below 10**4 and 100)."""
    q = (v * 3518437209) >> 45  # v // 10000
    v -= q * 10000
    v <<= 32
    v |= q
    np.multiply(v, 5243, out=q)
    q >>= 19
    q &= 0x0000007F0000007F  # v // 100 per 32-bit lane
    v -= q * 100
    v <<= 16
    v |= q
    np.multiply(v, 103, out=q)
    q >>= 10
    q &= 0x000F000F000F000F  # v // 10 per 16-bit lane
    v -= q * 10
    v <<= 8
    v |= q
    v |= _ASCII_ZEROS
    return v


def _used_bytes(w):
    """The number of bytes of each word w >= 0 up to its last nonzero
    one."""
    return _BYTE_STEPS.searchsorted(w, "right")


def _format_cells(x, conv, literals, out):
    """Write ``conv.spec % x[i]`` into row i of out, a (len(x), slot)
    uint8 matrix, between the row literals of its column (``literals``,
    one word per column, bytes 1-3), zero-padded.  Arrays are freed once
    used, since a block's transient memory adds to the peak memory of
    every command that writes one."""
    P, n = conv.digits, len(x)
    a = np.abs(x)
    zero = a == 0.0
    top, low, X, undecided = _decimal(a, P)
    del a
    undecided &= ~zero
    blank = zero | undecided
    top[blank] = low[blank] = X[blank] = 0
    del blank
    mid = np.floor(low * 1e-8).astype(np.int64)  # off by at most one
    low -= mid * 10 ** 8
    _carry(mid, low, 10 ** 8)
    words = np.empty((n, 4), "<i8")
    words[:, 0] = _ascii8(top) & conv.lead_mask
    del top
    mid = _ascii8(mid)
    low = _ascii8(low)
    words.reshape(-1, len(literals), 4)[:, :, 0] |= literals
    tail = _EXP_WORDS.take(X + _EXP0) | np.signbit(x) * _MINUS
    if conv.general:
        # %g drops the fraction's trailing zeros, and the point with them:
        # L is the last nonzero digit, D1-D8 in mid and D9-D16 in low
        last_mid = _used_bytes(mid ^ _ASCII_ZEROS)
        last_low = _used_bytes(low ^ _ASCII_ZEROS)
        L = np.maximum(last_mid, np.minimum(last_low, 1) * (8 + last_low))
        del last_mid, last_low
        integer = X * ((X >= -4) & (X < P))  # the last digit before the point
        keep = np.maximum(L, integer)
        mid &= _BYTE_MASKS.take(np.minimum(keep, 8))
        low &= _BYTE_MASKS.take(np.maximum(keep - 8, 0))
        tail ^= (L <= integer) * _DOT_BIT
        del L, integer, keep
    words[:, 1] = mid
    words[:, 2] = low
    words[:, 3] = tail
    del mid, low, tail
    source = words.view(np.uint8)
    layout = conv.layout(X)
    del X
    present = np.zeros(len(conv.layouts), bool)
    present[layout] = True
    groups = np.flatnonzero(present).tolist()
    if len(groups) == 1:
        out[...] = source[:, conv.layouts[groups[0]]]
    else:
        for g in groups:
            rows = np.flatnonzero(layout == g)
            out[rows] = source[rows][:, conv.layouts[g]]
    todo = np.flatnonzero(undecided)
    if len(todo):
        text = [conv.spec % v for v in x[todo].tolist()]
        out[todo, 2:2 + conv.width] = np.array(
            text, dtype=f"S{conv.width}").view(np.uint8).reshape(
                len(todo), conv.width)


_OBJ_VERTEX = "v %.17g %.17g %.17g\n"


def _row_format(fmt):
    """(conversion, literals) of the two row formats in use, the literals
    one word per column with the text before the value in bytes 1-2 and
    the text after it in byte 3; any other format is refused."""
    if fmt == _OBJ_VERTEX:
        conv, around = _G17, [("v ", " "), ("", " "), ("", "\n")]
    else:
        fields = fmt[:-1].split(",")
        if not (fmt.endswith("\n") and set(fields) == {"%.18e"}):
            raise ValueError(f"rows_text formats only {_OBJ_VERTEX!r} and "
                             f"comma-separated %.18e rows, not {fmt!r}")
        conv = _E18
        around = [("", ",")] * (len(fields) - 1) + [("", "\n")]
    return conv, np.array(
        [int.from_bytes(f"\0{pre:\0<2}{post}".encode(), "little")
         for pre, post in around], dtype=np.int64)


def rows_text(fmt, columns):
    """``fmt % row`` for every row of the stacked columns, concatenated,
    for ``fmt`` an OBJ vertex row or a row of comma-separated ``%.18e``;
    other formats raise ``ValueError``."""
    conv, literals = _row_format(fmt)
    if len(columns) != len(literals):
        raise ValueError(f"{fmt!r} formats {len(literals)} columns, "
                         f"not {len(columns)}")
    values = np.column_stack(columns).astype(np.float64, copy=False).ravel()
    slot = conv.layouts.shape[1]
    text = bytearray(len(values) * slot)
    _format_cells(values, conv, literals,
                  np.frombuffer(text, np.uint8).reshape(-1, slot))
    return text.translate(None, b"\0").decode("ascii")


def write_csv(path, header, columns):
    """``np.savetxt(path, np.column_stack(columns), delimiter=",",
    header=header, comments="")``: a header line, then ``%.18e`` rows."""
    fmt = ",".join(["%.18e"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(rows_text(fmt, columns))
