"""Artifact text in one pass: the exact bytes of the stdlib writers.

``json_bytes`` is ``json.dumps(payload, indent=1)`` as ASCII bytes, and
prints a 1-D float64 array as the list of its values.  ``rows_bytes`` is
the row text of the two row formats the exporters write, an OBJ vertex
``"v %.17g %.17g %.17g\\n"`` and a ``%.18e`` CSV row (``np.savetxt``'s
text), and ``write_csv`` the CSV file every exporter writes with it.
The writers put these bytes in their files as they are; ``json_text``
and ``rows_text`` decode them.

A numpy kernel formats a whole block of floats in one of three
conversions instead of one ``%`` or ``repr`` per value: ``%.17g`` and
``%.18e`` for the rows, and for the all-float lists of a JSON payload,
joined and cut into equal blocks of at most ``_KERNEL_BLOCK`` values,
Python's shortest round-trip ``repr``, which is what ``json.dumps``
prints for a float.

Each ``|x|`` is scaled by ``10**k``, with ``k`` from ``floor(log10|x|)``
(a table by the exponent field of x gives it or one less, and the
field's next power of ten which), so that its integer part ``N`` has P
significant digits (17 for ``%.17g`` and ``repr``, 19 for ``%.18e``).
The product is a double-double: ``10**k`` is an unevaluated sum
``hi + lo`` of doubles, each rounded from the exact power with ``int``
arithmetic at import, and ``x * hi`` is split exactly by Dekker's
product.  The error of
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
after the first P - 16 are four groups of 4, each looked up in a table
of 10**4 words that holds its ASCII digits and the place of its last
nonzero one.  Each value's row of words holds its text in order, with
zero bytes where a character is absent: the sign and the "0.000" before
the first digit of a small fixed-form value, the digits with the point
inserted after the place its decimal exponent gives (``%g``'s and
``repr``'s choice between fixed and exponent form, and their stripping
of trailing zeros; ``repr`` keeps ".0" after an integral value), the
exponent, and the literal text after the value.  Where the point goes
and which digits stay come from one table index per value, for all
three digit words; ``%.18e`` always has its point after the first
digit, so its words are put together from the groups without either
step.  The zero bytes are removed from the joined rows,
so the text is exactly that of the stdlib writer.
"""
import json
import math
from functools import cache
from itertools import chain, repeat

import numpy as np


def json_bytes(payload):
    """The text of ``json.dumps(payload, indent=1)`` as ASCII bytes; a 1-D
    float64 array prints as the list of its values."""
    lists = []
    text = _encode(payload, 0, lists).encode()
    if not lists:
        return text
    parts = text.split(b"\0")
    bodies = _float_lists_text(lists)
    return b"".join(chain.from_iterable(zip(parts, bodies))) + parts[-1]


def json_text(payload):
    """The text of ``json_bytes(payload)``."""
    return json_bytes(payload).decode("ascii")


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
# anyway.  Its tables are built at import from Python ints and strings,
# float64 arithmetic and numpy's copying (slices, repeat, tile, take),
# which every process loads, so one that writes no text pays for no
# other loop.

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
_P10_HALF_ULP = _P10_HI * 2.0 ** -53

_EXP0 = 300  # tables by decimal exponent X are indexed by X + _EXP0


def _field_tables():
    """By the exponent field f of a double x in the normal range: _EXP0
    plus floor(log10 x) where x is below the field's next power of ten,
    and that power (the guess floor((f - 1023) log10 2) is right or one
    low); clipped to [-251, 250] outside the range (the guesses rise by
    0 or 1 from one field to the next)."""
    e10 = [math.floor((f - 1023) * _LOG10_2) for f in range(2048)]
    low, high = e10.index(-251), e10.index(251)
    e10[:low] = repeat(-251, low)
    e10[high:] = repeat(250, 2048 - high)
    return (np.array([e + _EXP0 for e in e10]),
            _P10_HI.take([e + 1 - _K0 for e in e10]))


_FIELD_E10, _FIELD_NEXT = _field_tables()
_SIGNIFICAND = (1 << 52) - 1  # the significand field of a double's bits
_EXPONENT = 0x7FF << 52  # its exponent field
_BITS_64 = 0x4050000000000000  # the bits of 64.0


def _digit_tables():
    """_DIGITS4[q] for q < 10**4: bytes 0-3 are the 4 digit characters of
    q, most significant first, and bits 32 and up hold 16 plus the number
    of those digits up to q's last nonzero one, or 4 for q = 0;
    _LEAD3[t] for t < 1000: t's 3 digit characters with a point after the
    first.  They are put together byte by byte."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.zeros((10 ** 4, 8), dtype=np.uint8)
    for j in range(4):  # the digit of 10**(3 - j)
        digits[:, j] = np.tile(np.repeat(digit, 10 ** (3 - j)), 10 ** j)
    # the place of the last nonzero digit of q = 100 h + l: that of l,
    # plus 2, else that of h, else -12
    pair = [2 if q % 10 else 1 if q else -12 for q in range(100)]
    digits[:, 4] = np.tile(np.array([16 + 2 + last for last in pair],
                                    dtype=np.uint8), 100)
    digits[::100, 4] = np.array([16 + last for last in pair], dtype=np.uint8)
    lead3 = np.zeros((1000, 8), dtype=np.uint8)
    lead3[:, 0] = np.repeat(digit, 100)
    lead3[:, 1] = ord(".")
    lead3[:, 2:4] = np.tile(digits[:100, 2:4], (10, 1))
    return digits.view("<i8").ravel(), lead3.view("<i8").ravel()


_DIGITS4, _LEAD3 = _digit_tables()
_LOW32 = (1 << 32) - 1


def _insertion_tables():
    """For the 17 digit characters D0-D16 of a %g or repr value in three
    words, with the point after the first p of them (p = 0: none) and
    those after D_keep stripped: by p * 17 + keep, the bytes of word k
    that stay (_STAY[k]), those that move up one byte past the point
    (_MOVE[k]), and the "." (_DOT[k])."""
    stay, move, dot = [], [], []
    for p in range(18):
        for keep in range(17):
            point = 1 <= p <= keep
            stay.append(b"\xff" * (p if point else keep + 1))
            move.append(b"\0" * p + b"\xff" * (keep + 1 - p) if point
                        else b"")
            dot.append(b"\0" * p + b"." if point else b"")
    return (np.frombuffer(b"".join(m.ljust(24, b"\0") for m in masks),
                          dtype="<i8").reshape(-1, 3).T.copy()
            for masks in (stay, move, dot))


_STAY, _MOVE, _DOT = _insertion_tables()


def _exponent_texts():
    """By X + _EXP0, the 5 bytes of the exponent "e+XX" or "e-XXX" of a
    decimal exponent X: "e", the sign, the hundreds digit or a zero byte,
    and two digits."""
    texts = [f"e{X:+03d}" for X in range(-_EXP0, _EXP0 + 1)]
    texts = "".join(e[:2] + e[2:].rjust(3, "\0") for e in texts)
    return np.frombuffer(texts.encode(), dtype=np.uint8).reshape(-1, 5)


_EXPONENT_TEXTS = _exponent_texts()


def _exponent_words(chars, byte):
    """By X + _EXP0, the int64 word with the exponent characters
    ``_EXPONENT_TEXTS[:, chars]`` from byte ``byte`` on."""
    words = np.zeros((2 * _EXP0 + 1, 8), dtype=np.uint8)
    part = _EXPONENT_TEXTS[:, chars]
    words[:, byte:byte + part.shape[1]] = part
    return words.view("<i8").ravel()


def _word(text, byte=0):
    """The int64 word with the characters of ``text`` from byte ``byte``
    on, NULs left as zero bytes."""
    return int.from_bytes(text.encode().rjust(byte + len(text), b"\0"),
                          "little")


class _Conversion:
    """One float conversion, ``%.17g``, ``%.18e`` or ``repr``: its digit
    decision and per-value fallback, and tables by decimal exponent X of
    its text around the digits.

    A value's row is ``words`` little-endian int64 words whose nonzero
    bytes, in order, are the value's text between its row literals; the
    zero bytes are dropped when the rows are joined.  ``%.17g`` and
    ``repr``:

    - word 0: two literal bytes, the sign, and in fixed form below 1 the
      "0." and zeros before the first digit;
    - words 1 to 3: the 17 digit characters, the point inserted after the
      first ``point`` of them, and the trailing zeros that ``%g`` and
      ``repr`` strip zeroed; the exponent ("e", its sign, a hundreds
      digit or a zero byte, two digits) in bytes 2-6 of word 3;
    - the last byte, or with ``separator_word`` a last word of its own:
      the literal text after the value.

    ``%.18e`` always has its point after the first digit: the sign, the
    digits with the point, "e" and the exponent sign and hundreds digit
    fill words 0 to 2 from byte 0, the exponent's two digits bytes 0-1 of
    word 3, and its last byte is the literal after.
    """

    def __init__(self, fixed_below, decimal, fallback, point_zero=False,
                 separator_word=False):
        self.decimal = decimal  # |x| -> (top, mid, low, X, undecided)
        self.fallback = fallback  # a list of floats -> their texts
        self.separator_word = separator_word
        if fixed_below is None:
            self.words, self.text_start, self.text_end = 4, 0, 31
            self.point17 = None
            # "e", the sign and the hundreds digit or a zero byte in bytes
            # 5-7 of word 2, the two digits in bytes 0-1 of word 3
            self.exp_sign = _exponent_words(slice(0, 3), 5)
            self.exp_digits = _exponent_words(slice(3, 5), 0)
            return
        self.words = 4 + separator_word
        self.text_start = 2
        # the value's text ends at the last byte, or the separator word
        self.text_end = 32 if separator_word else 31
        # fixed form for X from -4 to fixed_below - 1, with the point after
        # X + 1 digits from X = 0 on; exponent form, with the point after
        # the first digit, elsewhere
        fixed = slice(_EXP0 - 4, _EXP0 + fixed_below)
        whole = slice(_EXP0, _EXP0 + fixed_below)
        self.prefix = np.zeros(2 * _EXP0 + 1, dtype=np.int64)
        for X in range(-4, 0):
            self.prefix[X + _EXP0] = _word("0." + "0" * (-X - 1), 3)
        # the p of _insertion_tables, times 17
        self.point17 = np.full(2 * _EXP0 + 1, 17)
        self.point17[fixed] = 0
        self.point17[whole] = np.arange(17, 17 * fixed_below + 1, 17)
        # the digits after the first that are never stripped: those
        # before the point, and the one after it where point_zero
        # keeps ".0" after an integral value
        self.least = np.zeros(2 * _EXP0 + 1, dtype=np.int64)
        self.least[whole] = np.arange(point_zero, fixed_below + point_zero)
        self.tail = _exponent_words(slice(0, 5), 2)
        self.tail[fixed] = 0


def _scaled(a, P):
    """(top, mid, low, frac, X, undecided) for |x| = a in [1e-250, 1e250]
    (a zero gives garbage without a warning): |x| times 10**(P - 1 - E)
    is the integer top * 10**16 + mid * 10**8 + low in [10**(P-1), 10**P)
    plus frac in [0, 1), to within 1e-12, for the decimal exponent
    E = X - _EXP0; all are garbage where ``undecided``.  Every integer is
    an int64.  The product is exact where 10**(P - 1 - E) is an integer
    below 2**53."""
    field = a.view(np.int64) >> 52
    X = _FIELD_E10.take(field)
    X += a >= _FIELD_NEXT.take(field)
    del field
    k = (P - 1 - _K0 + _EXP0) - X
    p = a * _P10_HI.take(k)
    lo = a * _P10_LO.take(k)
    hh, hl = _P10_HH.take(k), _P10_HL.take(k)
    del k
    ah, al = _split(a)
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
    # the integer part N = p + whole, p an integer wherever it has P
    # digits (10**(P-1) > 2**53), in the 8-digit groups mid and low after
    # the first P - 16 digits top: top from a float estimate, off by at
    # most one, which the carry mends, and p - top * 1e16 is exact
    top = np.floor((p + whole) * 1e-16)
    p -= top * 1e16
    rest = p.astype(np.int64)
    del p
    rest += whole.astype(np.int64)
    del whole
    top = top.astype(np.int64)
    _carry(top, rest, 10 ** 16)
    mid, low = _groups(rest)
    undecided = (top < 10 ** (P - 17)) | (top >= 10 ** (P - 16))
    return top, mid, low, frac, X, undecided


def _rounded(P):
    """The digit decision of %.17g or %.18e: |x| rounded to P
    significant digits, as (top, mid, low, X, undecided): the digits are
    those of top, then mid and low with 8 each, and X - _EXP0 is the
    decimal exponent; undecided where the fraction is within 1e-6 of one
    half."""
    def decimal(a):
        top, mid, low, frac, X, undecided = _scaled(a, P)
        undecided |= np.abs(frac - 0.5) < 1e-6
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


def _quads(v):
    """(high, low): each v < 10**8 as high * 10**4 + low, by
    multiply-and-shift division, exact there."""
    high = (v * 3518437209) >> 45
    return high, v - high * 10000


def _carry_up(top, mid, low, X, P):
    """Carry a low group of 10**8 or more (less than 2 * 10**8) into mid
    and top, in place; where the P digits reach 10**P, make them
    10**(P-1) and X one higher."""
    over = low >= 10 ** 8
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
    top, mid, low, frac, X, undecided = _scaled(a, 17)
    bits = a.view(np.int64)
    # the half gap above: half an ulp, 2**(E - 53) for a double of binary
    # exponent E, scaled by 10**k: 2**E, the double of x's exponent field,
    # times 2**-53 10**k
    gap = (bits & _EXPONENT).view(np.float64)
    gap *= _P10_HALF_ULP.take(16 - _K0 + _EXP0 - X)
    below = np.where((bits & _SIGNIFICAND) == 0, 0.5 * gap, gap)
    # an endpoint is inside for an even significand only: for an odd one
    # the largest distance inside is the double below the half gap
    odd = bits & 1
    gap.view(np.int64)[...] -= odd
    below.view(np.int64)[...] -= odd
    del odd
    exact = (bits >= _BITS_64) & (X <= 16 + _EXP0)
    del bits
    # o: the distance from |x| down to the multiple of 100 below it, r its
    # integer part; up: the distance up to the next; each is set against
    # the half gap on its side, and low moves to the multiple in the
    # interval (the steps below leave such values as they are)
    r = low - ((low * 1374389535) >> 37) * 100  # low // 100, exact
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
    step = (low >= base).astype(np.int64)
    step -= low < 0
    high += step
    low -= step * base


def _rows(n, words):
    """A zeroed bytearray of n rows of ``words`` int64 words, and the rows
    as a view of it."""
    text = bytearray(8 * words * n)
    return text, np.frombuffer(text, np.int64).reshape(n, words)


def _kernel_text(x, conv, before, after):
    """The text of each float64 x[i] under ``conv``, between the row
    literals ``before`` (bytes 0-1 of a row's first word, or None) and
    ``after`` (its last byte, or its last word), one word per column of
    the rows, joined, as bytes.  Arrays are freed once used, and words
    built in place, since a block's transient memory adds to the peak
    memory of every command that writes one."""
    if not len(x):
        return b""
    a = np.abs(x)
    ok = (a >= 1e-250) & (a <= 1e250)
    a = np.where(ok, a, 1.0)
    top, mid, low, X, undecided = conv.decimal(a)
    del a
    # a zero's digits are those of 1.0 with the first one zeroed
    zero = x == 0.0
    undecided |= ~ok
    undecided &= ~zero
    top[zero] = 0
    del ok, zero
    # the 4-digit groups of mid and low as _DIGITS4 words
    d1, d2 = _quads(mid)
    del mid
    d1, d2 = _DIGITS4.take(d1), _DIGITS4.take(d2)
    d3, d4 = _quads(low)
    del low
    d3, d4 = _DIGITS4.take(d3), _DIGITS4.take(d4)
    if conv.point17 is None:
        # %.18e: the point after D0, in _LEAD3
        for d in (d1, d2, d3, d4):
            d &= _LOW32
        word = _LEAD3.take(top, mode="clip")
        del top
        word <<= 8
        word |= x.view(np.int64) >> 63 & ord("-")
        text, rows = _rows(len(x), conv.words)
        rows[:, 0] = word | d1 << 40
        d1 >>= 24
        rows[:, 1] = d1 | d2 << 8 | d3 << 40
        del d1, d2
        d3 >>= 24
        d3 |= d4 << 8
        d3 |= conv.exp_sign.take(X)
        rows[:, 2] = d3
        del d3, d4
        word = conv.exp_digits.take(X)
    else:
        # %g and repr: keep the digits D1-D16 up to the last nonzero one
        # and those the form keeps
        keep = d1 >> 32
        part = np.empty_like(keep)  # room for a shifted word
        for i, d in enumerate((d2, d3, d4), 1):
            np.right_shift(d, 32, out=part)
            part += 4 * i
            np.maximum(keep, part, out=keep)
        keep -= 16
        np.maximum(keep, conv.least.take(X), out=keep)
        keep += conv.point17.take(X)
        for d in (d1, d2, d3, d4):
            d &= _LOW32
        # D0-D16 in three words, built in place of d1, d2 and d4
        top += 0x30
        d1 <<= 8
        d1 |= top
        del top
        d1 |= np.left_shift(d2, 40, out=part)
        d2 >>= 24
        d3 <<= 8
        d2 |= d3
        del d3
        d2 |= np.left_shift(d4, 40, out=part)
        del part
        d4 >>= 24
        word = conv.prefix.take(X)
        word |= x.view(np.int64) >> 63 & ord("-") << 16
        if before is not None:
            columns = word.reshape(-1, len(before))
            columns |= before
            del columns
        text, rows = _rows(len(x), conv.words)
        rows[:, 0] = word
        # each digit word: the bytes before the point stay, the point goes
        # after them, and the kept bytes after it move up one byte, the
        # last into the next word
        for k, word in enumerate((d1, d2, d4)):
            moved = word & _MOVE[k].take(keep)
            word &= _STAY[k].take(keep)
            word |= _DOT[k].take(keep)
            if k:
                word |= carry
            carry = moved >> 56
            moved <<= 8
            word |= moved
            if k < 2:
                rows[:, k + 1] = word
        del d1, d2, d4, keep, moved, carry
        word |= conv.tail.take(X)
    del X
    # the literal after each value
    if conv.separator_word:
        rows[:, -2] = word
        rows[:, -1] = after
    else:
        columns = word.reshape(-1, len(after))
        columns |= after
        rows[:, -1] = word
        del columns
    del word
    todo = np.flatnonzero(undecided)
    if len(todo):
        start, end = conv.text_start, conv.text_end
        rows.view(np.uint8)[todo, start:end] = np.array(
            conv.fallback(x[todo].tolist()), dtype=f"S{end - start}").view(
                np.uint8).reshape(len(todo), end - start)
    del rows
    return text.translate(None, b"\0")


_G17 = _Conversion(17, _rounded(17), lambda v: ["%.17g" % x for x in v])
_E18 = _Conversion(None, _rounded(19), lambda v: ["%.18e" % x for x in v])
# json.dumps prints a finite float as repr does, and NaN and infinities
# as NaN, Infinity and -Infinity
_REPR = _Conversion(16, _shortest, lambda v: json.dumps(v)[1:-1].split(", "),
                    point_zero=True, separator_word=True)


_OBJ_VERTEX = "v %.17g %.17g %.17g\n"


@cache
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


def rows_bytes(fmt, columns):
    """``fmt % row`` for every row of the stacked columns, concatenated,
    as ASCII bytes, for ``fmt`` an OBJ vertex row or a row of
    comma-separated ``%.18e``; other formats raise ``ValueError``."""
    conv, before, after = _row_format(fmt)
    if len(columns) != len(after):
        raise ValueError(f"{fmt!r} formats {len(after)} columns, "
                         f"not {len(columns)}")
    values = np.column_stack(columns).astype(np.float64, copy=False).ravel()
    return _kernel_text(values, conv, before, after)


def rows_text(fmt, columns):
    """The text of ``rows_bytes(fmt, columns)``."""
    return rows_bytes(fmt, columns).decode("ascii")


# the kernel's transient memory is about 120 bytes a value, against the
# C encoder's 95: blocks of at most this many values keep the peak of a
# 751-node member file at or below the encoder's
_KERNEL_BLOCK = 4096
_LIST_END = b"\x1f"  # a byte that no float text or indent holds


def _float_lists_text(lists):
    """The body of each (list of floats or 1-D float64 array, indent) of
    ``lists``, as bytes: its values as json.dumps prints them, each but
    the last followed by "," and the indent.  The kernel formats all of
    them, in equal blocks of at most _KERNEL_BLOCK values, where every
    separator fits its separator word, and the C encoder where one does
    not."""
    if max(len(pad) for _, pad in lists) > 7:
        return [json.dumps(o.tolist() if isinstance(o, np.ndarray) else o,
                           separators=(",", ":"))[1:-1].replace(
                               ",", "," + pad).encode()
                for o, pad in lists]
    values = np.concatenate([np.asarray(o, dtype=np.float64)
                             for o, _ in lists])
    n = len(values)
    after = np.empty(n, dtype=np.int64)
    start = 0
    for o, pad in lists:
        start += len(o)
        after[start - len(o):start - 1] = _word("," + pad)
        after[start - 1] = _LIST_END[0]
    size = -(-n // -(-n // _KERNEL_BLOCK))  # equal blocks
    return b"".join(
        _kernel_text(values[i:i + size], _REPR, None, after[i:i + size])
        for i in range(0, n, size)).split(_LIST_END)[:-1]


def write_csv(path, header, columns):
    """``np.savetxt(path, np.column_stack(columns), delimiter=",",
    header=header, comments="")``: a header line, then ``%.18e`` rows."""
    fmt = ",".join(["%.18e"] * len(columns)) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(rows_bytes(fmt, columns))
