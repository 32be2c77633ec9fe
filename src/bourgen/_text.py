"""Artifact text in one pass: the exact bytes of the stdlib writers.

``json_text`` is ``json.dumps(payload, indent=1)``, and prints a 1-D
float64 array as the list of its values.  ``rows_text`` is the row text
of the two row formats the exporters write, an OBJ vertex
``"v %.17g %.17g %.17g\\n"`` and a ``%.18e`` CSV row (``np.savetxt``'s
text), and ``write_csv`` the CSV file every exporter writes with it.

A numpy kernel formats a whole block of floats in one of three
conversions instead of one ``%`` or ``repr`` per value: ``%.17g`` and
``%.18e`` for the rows, and for every all-float list of a JSON payload
(all of them in one call) Python's shortest round-trip ``repr``, which
is what ``json.dumps`` prints for a float.

Each ``|x|`` is scaled by ``10**k``, with ``k`` from ``floor(log10|x|)``,
so that its integer part ``N`` has P significant digits (17 for
``%.17g`` and ``repr``, 19 for ``%.18e``).  The product is a
double-double: ``10**k`` is an unevaluated sum ``hi + lo`` of doubles,
each rounded from the exact power with ``int`` arithmetic at import, and
``x * hi`` is split exactly by Dekker's product.  The error of
``N + fraction`` is below 1e-12 of the last place, and none where
``10**k`` is an integer below 2**53.

- ``%.17g`` and ``%.18e`` round ``N`` by its fraction, which gives the
  correctly rounded digits whenever the fraction is not within 1e-6 of
  one half (Gay's test, with Ryu's table of powers of ten in place of
  bignums).
- ``repr`` takes the scaled half-gaps to the neighbouring doubles, from
  the ulp in the bits of x: the gap below is half as wide where x is a
  power of two, and an endpoint of the interval counts only for an even
  significand, since a correctly rounding reader ties to even.  The
  digits are those of the multiple of 100 in that interval, else of the
  nearest multiple of 10 in it, else of the nearest integer (at most one
  multiple of 100 fits, and it carries every longer run of zeros), with
  their trailing zeros stripped.  These decisions are exact for
  64 <= |x| < 1e17.  As in Grisu3 (Loitsch 2010), the values the fast
  arithmetic cannot decide are left to an exact algorithm.

A value is undecided, and gets Python's ``%`` or ``json.dumps`` on its
own, when:

- its fraction is within 1e-6 of one half (``%``), which holds every
  tie, or it lies within 1e-9 of a tie between two ``repr`` candidates,
  or, outside the exact range, of an endpoint of its interval;
- it is non-finite, or ``|x|`` is outside [1e-250, 1e250], where the
  products would leave the normal range;
- the guessed exponent is off by one, so ``N`` has not P digits.

Zeros of either sign are formatted by the kernel.  The digits of ``N``
become ASCII words, and each value's row of words holds its text in
order, with zero bytes where a character is absent: the sign and the
"0.000" before the first digit of a small fixed-form value, the digits
with the point inserted after the place its decimal exponent gives
(``%g``'s and ``repr``'s choice between fixed and exponent form, and
their stripping of trailing zeros; ``repr`` keeps ".0" after an
integral value), the exponent, and the literal text after the value.
The zero bytes are removed from the joined rows, so the text is exactly
that of the stdlib writer.
"""
import json
from itertools import chain, repeat

import numpy as np


def json_text(payload):
    """The text of ``json.dumps(payload, indent=1)``; a 1-D float64 array
    prints as the list of its values."""
    lists = []
    text = _encode(payload, 0, lists)
    if not lists:
        return text
    parts = text.split("\0")
    bodies = _float_lists_text(lists)
    return "".join(chain.from_iterable(zip(parts, bodies))) + parts[-1]


def _encode(o, level, lists):
    """The text of o, with a NUL in place of each all-float list's body
    (json.dumps escapes every NUL of a string), each such list and its
    indent appended to ``lists``."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        pad = "\n" + " " * (level + 1)
        body = ("," + pad).join(f"{_key(k)}: {_encode(v, level + 1, lists)}"
                                for k, v in o.items())
        return "{" + pad + body + pad[:-1] + "}"
    floats = isinstance(o, np.ndarray) and o.ndim == 1 and (
        o.dtype == np.float64)
    if floats or isinstance(o, (list, tuple)):
        if not len(o):
            return "[]"
        pad = "\n" + " " * (level + 1)
        if floats or all(map(isinstance, o, repeat(float))):
            lists.append((o, pad))
            body = "\0"
        else:
            body = ("," + pad).join(_encode(x, level + 1, lists) for x in o)
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
    hi = _SPLIT * a
    hi -= hi - a
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
_P10_HALF = 0.5 * _P10_HI

_ASCII_ZEROS = 0x3030303030303030  # "00000000"
_EXP0 = 300  # tables by decimal exponent X are indexed by X + _EXP0
_MINUS = ord("-") << 16  # the sign byte of word 0 (see _Conversion)
_SIGNIFICAND = (1 << 52) - 1  # the significand field of a double's bits
_BITS_64 = 0x4050000000000000  # the bits of 64.0
# _BYTE_MASKS[k] keeps a word's first k bytes
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)],
                       dtype=np.uint64).view(np.int64)
_NO_POINT = 24  # a point position past every digit: none is inserted
# for a point after the first j digits, _POINT_MASKS[k, j] keeps the
# bytes before it of digit word k, and _POINT_DOTS[k, j] is the "." where
# it falls in that word
_POINT_MASKS = np.array([[_BYTE_MASKS[min(max(j - 8 * k, 0), 8)]
                          for j in range(_NO_POINT + 1)] for k in range(3)])
_POINT_DOTS = np.array([[ord(".") << 8 * (j - 8 * k) if 0 <= j - 8 * k < 8
                         else 0 for j in range(_NO_POINT + 1)]
                        for k in range(3)], dtype=np.int64)


def _word(text, byte=0):
    """The int64 word with the characters of ``text`` from byte ``byte``
    on, NULs left as zero bytes."""
    return int.from_bytes(text.encode().rjust(byte + len(text), b"\0"),
                          "little")


class _Conversion:
    """One float conversion, ``%.17g``, ``%.18e`` or ``repr``: its P
    significant digits, its digit decision and per-value fallback, and
    tables by decimal exponent X of where its text puts the point.

    A value's row is ``words`` little-endian int64 words whose nonzero
    bytes, in order, are the value's text between its row literals; the
    zero bytes are dropped when the rows are joined:

    - word 0: two literal bytes, the sign, and in fixed form below 1 the
      "0." and zeros before the first digit;
    - words 1 to 3: the P digit characters, the point inserted after the
      first ``point`` of them, and the trailing zeros that ``%g`` and
      ``repr`` strip zeroed;
    - the exponent ("e", its sign, a hundreds digit or a zero byte, two
      digits) in bytes 2-6 of word 3 for P = 17, in word 4 for P = 19;
    - the last byte, or with ``separator_word`` a last word of its own:
      the literal text after the value.
    """

    def __init__(self, digits, fixed_below, decimal, fallback,
                 point_zero=False, separator_word=False):
        self.digits = P = digits
        self.words = (4 if P == 17 else 5) + separator_word
        # the value's text is in bytes 2 to text_end - 1 of its row
        self.text_end = 8 * self.words - (8 if separator_word else 1)
        self.decimal = decimal  # |x| -> (top, mid, low, X, undecided)
        self.fallback = fallback  # a list of floats -> their texts
        prefix, point, least, tail = [], [], [], []
        for X in range(-_EXP0, _EXP0 + 1):
            # fixed form for X from -4 to fixed_below - 1 (none for %e)
            fixed = fixed_below is not None and -4 <= X < fixed_below
            prefix.append(_word("0." + "0" * (-X - 1), 3)
                          if fixed and X < 0 else 0)
            point.append(_NO_POINT if fixed and X < 0
                         else X + 1 if fixed else 1)
            # the digits after the first that are never stripped: those
            # before the point, and the one after it where point_zero
            # keeps ".0" after an integral value
            least.append(X + point_zero if fixed and X >= 0 else 0)
            exponent = f"e{X:+03d}"
            tail.append(0 if fixed else _word(
                exponent[:2] + exponent[2:].rjust(3, "\0"),
                2 if P == 17 else 0))
        self.prefix, self.point, self.tail = (
            np.array(t, dtype=np.int64) for t in (prefix, point, tail))
        # %e keeps every digit; %g and repr strip trailing zeros
        self.least = (np.array(least, dtype=np.int64)
                      if fixed_below is not None else None)


def _scaled(a, P):
    """(top, rest, frac, X, undecided) for |x| = a: |x| times
    10**(P - 1 - X) is the integer top * 10**16 + rest in
    [10**(P-1), 10**P) plus frac in [0, 1), to within 1e-12; all are
    garbage where ``undecided``.  Every integer is an int64.  The product
    is exact where 10**(P - 1 - X) is an integer below 2**53."""
    ok = (a >= 1e-250) & (a <= 1e250)
    a = np.where(ok, a, 1.0)
    # floor(log10 a): floor(E log10(2)) for the binary exponent E of a,
    # or one more, as the table's next power tells (an exponent one off
    # where the table's powers are rounded leaves N without P digits)
    e10 = a.view(np.int64) >> 52
    e10 -= 1023
    e10 = np.floor(e10 * _LOG10_2).astype(np.int64)
    e10 += a >= _P10_HI.take(e10 + 1 - _K0)
    k = P - 1 - _K0 - e10
    p = a * _P10_HI.take(k)
    lo = a * _P10_LO.take(k)
    hh, hl = _P10_HH.take(k), _P10_HL.take(k)
    del k
    ah, al = _split(a)
    del a
    # x * 10**k = p + t: p rounds the product, t holds its exact error
    # (Dekker, ((ah hh - p) + ah hl + al hh) + al hl) and x * lo, each
    # product formed in place of a factor
    t = ah * hh
    t -= p
    ah *= hl
    t += ah
    del ah
    hh *= al
    t += hh
    del hh
    al *= hl
    t += al
    del al, hl
    t += lo
    del lo
    whole = np.floor(t)
    frac = t
    frac -= whole
    # the integer part is p + whole, p an integer wherever it has P
    # digits (10**(P-1) > 2**53): top from a float estimate, off by at
    # most one, rest from p - top * 1e16, which is exact
    top = np.floor((p + whole) * 1e-16)
    p -= top * 1e16
    rest = p.astype(np.int64)
    del p
    rest += whole.astype(np.int64)
    del whole
    top = top.astype(np.int64)
    _carry(top, rest, 10 ** 16)
    undecided = ~ok | (top < 10 ** (P - 17)) | ~(top < 10 ** (P - 16))
    return top, rest, frac, e10, undecided


def _rounded(P):
    """The digit decision of %.17g or %.18e: |x| rounded to P
    significant digits, as (top, mid, low, X, undecided): the digits are
    those of top, then mid and low with 8 each, and X is the decimal
    exponent; undecided where the fraction is within 1e-6 of one
    half."""
    def decimal(a):
        top, rest, frac, X, undecided = _scaled(a, P)
        undecided |= np.abs(frac - 0.5) < 1e-6
        mid, low = _groups(rest)
        low += frac > 0.5
        _carry_up(top, mid, low, X, P)
        return top, mid, low, X, undecided
    return decimal


def _groups(rest):
    """(mid, low): rest in [0, 10**16) as mid * 10**8 + low."""
    mid = np.floor(rest * 1e-8).astype(np.int64)  # off by at most one
    rest -= mid * 10 ** 8
    _carry(mid, rest, 10 ** 8)
    return mid, rest


def _carry_up(top, mid, low, X, P):
    """Carry a low group of 10**8 or more (less than 2 * 10**8) into mid
    and top, in place; where the P digits reach 10**P, make them
    10**(P-1) and X one higher."""
    over = ~(low < 10 ** 8)
    if over.any():
        low[over] -= 10 ** 8
        mid += over
        over = mid == 10 ** 8
        mid[over] = 0
        top += over
        over = top == 10 ** (P - 16)
        top[over] = 10 ** (P - 17)
        X += over


def _shortest(a):
    """The digit decision of ``repr``, as (top, mid, low, X, undecided)
    like ``_rounded``'s: the 17-digit integer N with the most trailing
    zeros in the interval of decimals that read back as |x| = a, the
    nearest such to |x|.

    The interval reaches half the gap to each neighbouring double; the
    gap below is half as wide where |x| is a power of two, and the
    endpoints count only for an even significand (a correctly rounding
    reader ties to even).  Scaled to 17 digits its half-widths lie in
    [0.55, 11.2], so at most one multiple of 100 fits and the nearest
    integer always does: N is that multiple of 100, else the nearest
    multiple of 10 inside, else the nearest integer.  Every decision is
    exact for 64 <= |x| < 1e17, where the scaling is exact and all sums
    below are exact; elsewhere a value within 1e-9 of an endpoint is
    undecided, as is every value within 1e-9 of a tie.
    """
    top, rest, frac, X, undecided = _scaled(a, 17)
    mid, low = _groups(rest)
    del rest
    bits = np.where(undecided, 1.0, a).view(np.int64)
    # the half gap above: half an ulp, 2**(E - 52) for a double of binary
    # exponent E, the double whose exponent field is E's less 52
    gap = bits >> 52
    gap -= 52
    gap <<= 52
    gap = gap.view(np.float64)
    gap *= _P10_HALF.take(16 - _K0 - X)
    below = np.where((bits & _SIGNIFICAND) == 0, 0.5 * gap, gap)
    # an endpoint is inside for an even significand only: for an odd one
    # the largest distance inside is the double below the half gap
    odd = bits & 1
    gap.view(np.int64)[...] -= odd
    below.view(np.int64)[...] -= odd
    del odd
    exact = (bits >= _BITS_64) & (X <= 16)
    del bits
    # o: the distance from |x| down to the multiple of 100 below it, r its
    # integer part; up: the distance up to the next; each is set against
    # the half gap on its side, and low moves to the multiple in the
    # interval (the steps below leave such values as they are)
    r = low - np.floor((low + 0.5) * 0.01).astype(np.int64) * 100
    o = r + frac
    near = np.abs(o - below) < 1e-9
    down = o <= below
    up = 100.0 - o
    near |= np.abs(up - gap) < 1e-9
    by100 = down | (up <= gap)
    low -= r * by100
    low += (by100 & ~down) * 100
    # the same for 10, taking the nearer of two multiples in the interval;
    # a quotient one high (o just below a multiple of 10) gives o just
    # below 0 and r = -1, which still name that multiple
    tens = up  # its storage
    np.multiply(o, 0.1, out=tens)
    np.floor(tens, out=tens)
    tens *= 10.0
    o -= tens
    r -= tens.astype(np.int64)
    near |= np.abs(o - below) < 1e-9
    down = o <= below
    np.subtract(10.0, o, out=up)
    near |= np.abs(up - gap) < 1e-9
    up = up <= gap
    del below, gap
    near &= ~exact
    undecided |= near
    del near, exact
    by10 = (down | up) & ~by100
    by1 = ~(by100 | by10)
    tie = by10 & down & up & (np.abs(o - 5.0) < 1e-9)
    down &= ~up | (o < 5.0)
    del o
    low -= r * by10
    low += (by10 & ~down) * 10
    del r, by10, by100, down, up
    # else the nearest integer
    tie |= by1 & (np.abs(frac - 0.5) < 1e-9)
    undecided |= tie
    low += by1 & (frac > 0.5)
    _carry_up(top, mid, low, X, 17)
    return top, mid, low, X, undecided


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
    one, for words whose bytes are at most 9: from the binary exponent of
    w as a double, which rounds w up to a power of 256 only from within
    2**-53 of it."""
    used = w.astype(np.float64).view(np.int64) >> 52
    used -= 1023
    used >>= 3
    used += 1
    return np.maximum(used, 0, out=used)


_G17 = _Conversion(17, 17, _rounded(17), lambda v: ["%.17g" % x for x in v])
_E18 = _Conversion(19, None, _rounded(19), lambda v: ["%.18e" % x for x in v])
# json.dumps prints a finite float as repr does, and NaN and infinities
# as NaN, Infinity and -Infinity
_REPR = _Conversion(17, 16, _shortest,
                    lambda v: json.dumps(v)[1:-1].split(", "),
                    point_zero=True, separator_word=True)


def _kernel_text(x, conv, before, after):
    """The text of each float64 x[i] under ``conv``, between the row
    literals ``before`` (bytes 0-1 of a row's first word, or None) and
    ``after`` (its last byte, or its last word), one word per column of
    the rows, joined.  Arrays are freed once used, since a block's
    transient memory adds to the peak memory of every command that writes
    one."""
    minus = np.signbit(x)
    a = np.abs(x)
    zero = a == 0.0
    top, mid, low, X, undecided = conv.decimal(a)
    del a
    undecided &= ~zero
    blank = zero | undecided
    top[blank] = mid[blank] = low[blank] = X[blank] = 0
    del blank
    X += _EXP0
    # D0 (P = 17) or D0-D2 (P = 19) in top, D1-D8 or D3-D10 in mid, the
    # rest in low; each word's first digit in its first byte
    lead = top | 0x30 if conv.digits == 17 else _ascii8(top) >> 40
    del top
    mid = _ascii8(mid)
    low = _ascii8(low)
    point = conv.point.take(X)
    if conv.least is not None:
        # L is the last nonzero digit after the first, counted in mid and
        # low; the point goes where a digit after it is kept
        L = _used_bytes(low ^ _ASCII_ZEROS)
        L += 8 * (L > 0)
        np.maximum(L, _used_bytes(mid ^ _ASCII_ZEROS), out=L)
        keep = np.maximum(L, conv.least.take(X))
        del L
        mid &= _BYTE_MASKS.take(np.minimum(keep, 8))
        low &= _BYTE_MASKS.take(np.maximum(keep - 8, 0))
        point[keep < point] = _NO_POINT
        del keep
    text = bytearray(len(x) * conv.words * 8)
    rows = np.frombuffer(text, np.int64).reshape(-1, conv.words)
    rows[:, 0] = conv.prefix.take(X) | minus * _MINUS
    del minus
    if before is not None:
        rows.reshape(-1, len(before), conv.words)[:, :, 0] |= before
    # words 1-3: the digits from D0 on, with a "." inserted after the
    # first ``point`` of them, moving the bytes after it up one
    lead_bits = 8 * (conv.digits - 16)
    digits = (lead | mid << lead_bits,
              mid >> 64 - lead_bits | low << lead_bits,
              low >> 64 - lead_bits)
    del lead, mid, low
    for k, w in enumerate(digits):
        kept = w & _POINT_MASKS[k].take(point)
        w ^= kept
        moved = w >> 56
        w <<= 8
        w |= kept
        w |= _POINT_DOTS[k].take(point)
        if k:
            w |= carry
        rows[:, k + 1] = w
        carry = moved
    del digits, carry, kept, moved, w, point
    rows[:, 3 if conv.digits == 17 else 4] |= conv.tail.take(X)
    del X
    rows.reshape(-1, len(after), conv.words)[:, :, -1] |= after
    todo = np.flatnonzero(undecided)
    if len(todo):
        width = conv.text_end - 2  # from byte 2 to the literal after
        rows.view(np.uint8)[todo, 2:conv.text_end] = np.array(
            conv.fallback(x[todo].tolist()), dtype=f"S{width}").view(
                np.uint8).reshape(len(todo), width)
    del rows
    joined = text.translate(None, b"\0")
    del text
    return joined.decode("ascii")


_OBJ_VERTEX = "v %.17g %.17g %.17g\n"


def _row_format(fmt):
    """(conversion, before, after) of the two row formats in use: the
    literals before each column's value (bytes 0-1 of a word, or None)
    and after it (the last byte of a word); any other format is
    refused."""
    if fmt == _OBJ_VERTEX:
        conv, before, after = _G17, ["v ", "", ""], "  \n"
    else:
        fields = fmt[:-1].split(",")
        if not (fmt.endswith("\n") and set(fields) == {"%.18e"}):
            raise ValueError(f"rows_text formats only {_OBJ_VERTEX!r} and "
                             f"comma-separated %.18e rows, not {fmt!r}")
        conv, before = _E18, None
        after = "," * (len(fields) - 1) + "\n"
    if before is not None:
        before = np.array([_word(text) for text in before])
    return conv, before, np.array([_word(c, 7) for c in after])


def rows_text(fmt, columns):
    """``fmt % row`` for every row of the stacked columns, concatenated,
    for ``fmt`` an OBJ vertex row or a row of comma-separated ``%.18e``;
    other formats raise ``ValueError``."""
    conv, before, after = _row_format(fmt)
    if len(columns) != len(after):
        raise ValueError(f"{fmt!r} formats {len(after)} columns, "
                         f"not {len(columns)}")
    values = np.column_stack(columns).astype(np.float64, copy=False).ravel()
    return _kernel_text(values, conv, before, after)


# the kernel's transient memory is about 120 bytes a value, against the
# C encoder's 95: blocks of at most this many values keep the peak of a
# 751-node member file at or below the encoder's
_KERNEL_BLOCK = 4096
_LIST_END = "\x1f"  # a byte that no float text or indent holds


def _float_lists_text(lists):
    """The body of each (list of floats or 1-D float64 array, indent) of
    ``lists``: its values as json.dumps prints them, each but the last
    followed by "," and the indent.  The kernel formats all of them
    where every separator fits its separator word, and the C encoder
    where one does not."""
    if max(len(pad) for _, pad in lists) > 7:
        return [json.dumps(o.tolist() if isinstance(o, np.ndarray) else o,
                           separators=(",", ":"))[1:-1].replace(",", "," + pad)
                for o, pad in lists]
    values = np.concatenate([np.asarray(o, dtype=np.float64)
                             for o, _ in lists])
    n = len(values)
    after = np.empty(n, dtype=np.int64)
    start = 0
    for o, pad in lists:
        start += len(o)
        after[start - len(o):start - 1] = _word("," + pad)
        after[start - 1] = _word(_LIST_END)
    size = -(-n // -(-n // _KERNEL_BLOCK))  # equal blocks
    return "".join(
        _kernel_text(values[i:i + size], _REPR, None, after[i:i + size])
        for i in range(0, n, size)).split(_LIST_END)[:-1]


def write_csv(path, header, columns):
    """``np.savetxt(path, np.column_stack(columns), delimiter=",",
    header=header, comments="")``: a header line, then ``%.18e`` rows."""
    fmt = ",".join(["%.18e"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(rows_text(fmt, columns))
