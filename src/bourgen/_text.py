"""Artifact float text: every float of a member file in ``%.17g``.

By IEEE 754-2008 §5.12.2, 17 significant digits read back every binary64
exactly, so one conversion serves all three member files, and each float
re-reads bit-equal through ``json.loads``, ``np.loadtxt`` and ``float``.
A value's text is that of ``"%.17g" % x``, with two exceptions in JSON:
the non-finite values are NaN, Infinity and -Infinity, as ``json.dumps``
writes them, and -0.0 is "-0.0", since JSON reads "-0" as the int 0.
JSON reads an integral text such as "1" as an int, whose float is the
value written.

``write_json`` writes a document as JSON with an indent of 1, in the
layout of ``json.dumps(payload, indent=1)``, and ``rows_bytes`` writes
rows of values, as the OBJ vertices and the CSVs of curves and
generatrices (``write_csv``) do.  A member's profile CSV holds six of its
file's float lists, so it is written from the text of the file's pass:
``write_json`` formats each distinct float list of a document once (a
rotational member's x1 is its omega, one array), returns the words of
the arrays it is asked to keep, and ``word_rows_bytes`` joins them into
rows.  The kernel writes plain ``%.17g``; the JSON pass puts its own
text in place of that of -0.0 and the non-finite values while it joins
the file's text, and the plain words back after, so the CSV, from the
same words, has "-0".

A numpy kernel formats a whole block of floats in one pass instead of
one ``%`` per value.  Each ``|x|`` is scaled by ``10**k``, with ``k``
from ``floor(log10|x|)`` (a table by the exponent field of x gives it or
one less, and the field's next power of ten which), so that its integer
part ``N`` has 17 significant digits.  The product is a double-double:
``10**k`` is an unevaluated sum ``hi + lo`` of doubles, each rounded from
the exact power with ``int`` arithmetic at import, and ``x * hi`` is
split exactly by Dekker's product.  The error of ``N + fraction`` is
below 1e-12 of the last place, and none where ``10**k`` is an integer
below 2**53.  ``N`` is rounded by its fraction, which gives the correctly
rounded digits whenever the fraction is not within 1e-6 of one half
(Gay's test, with Ryu's table of powers of ten in place of bignums).

A value is undecided, and gets the per-value text of ``%``, when:

- its fraction is within 1e-6 of one half, which holds every tie;
- it is non-finite, or ``|x|`` is outside [1e-250, 1e250], where the
  products would leave the normal range;
- the guessed exponent is off by one, so ``N`` has not 17 digits.

Zeros of either sign are formatted by the kernel.  The digits of ``N``
after the first are four groups of 4, each looked up
in a table of 10**4 words that holds its ASCII digits and the place of
its last nonzero one.  Each value's four int64 words hold its text in
order, with zero bytes where a character is absent: the sign and the
"0.000" before the first digit of a small fixed-form value, the digits
with the point inserted after the place its decimal exponent gives
(``%g``'s choice between fixed and exponent form, and its stripping of
trailing zeros), and the exponent.  Where the point goes and which
digits stay come from one table index per value, for all three digit
words.  A writer puts each value's words in a row of five, the fifth
holding the literal text after the value, and removes the zero bytes
from the joined rows.
"""
import json
import math
from itertools import repeat

import numpy as np


def write_json(fh, payload, keep=()):
    """Write ``payload`` to the binary file ``fh`` as JSON text with an
    indent of 1, in ASCII, each float and each value of a 1-D float64
    array in ``%.17g``; return, for each array of ``keep``, which the
    payload must hold (that object), the (n, 4) plain ``%.17g`` words of
    its values, for ``word_rows_bytes``: views of the rows the file's text
    was joined from, which they keep until they are dropped.  Dict keys
    must be strings.  A list that the payload holds twice (by identity)
    is formatted once, and its text written twice."""
    floats = []
    parts = _encode(payload, 0, floats).encode().split(b"\0")
    if not floats:
        fh.write(parts[0])
        return []
    first, lists, n = {}, [], 0  # lists: (values, separator, first row)
    for o, sep in floats:
        if id(o) not in first:
            first[id(o)] = len(lists)
            lists.append((o, sep if len(sep) <= 8 else ",", n))
            n += len(o)
    values = np.concatenate([np.asarray(o, dtype=np.float64)
                             for o, _, _ in lists])
    buffer, rows = _row_buffer(n)
    size = -(-n // -(-n // _KERNEL_BLOCK))  # equal blocks
    for i in range(0, n, size):
        _kernel_words(values[i:i + size], rows[i:i + size, :4])
    for o, sep, start in lists:
        rows[start:start + len(o), 4] = _word(sep)
        rows[start + len(o) - 1, 4] = _LIST_END
    # JSON's text of -0.0, whose plain words are "-" and "0", and of the
    # non-finite values, in the file only
    zero = np.flatnonzero(values.view(np.int64) == -1 << 63)
    special = np.flatnonzero(~np.isfinite(values))
    plain = rows[special, :4]
    rows[zero, 1] = _word("0.0")
    _put_text(rows[:, :4], special,
              list(map(json.dumps, values[special].tolist())))
    del values
    text = buffer.translate(None, b"\0")
    rows[zero, 1] = _word("0")
    rows[special, :4] = plain
    # the text cut at each list's end, and each list written at its places
    bodies, cut = [], 0
    for _ in lists:
        end = text.index(_LIST_END, cut)
        bodies.append(memoryview(text)[cut:end])
        cut = end + 1
    fh.write(parts[0])
    for (o, sep), part in zip(floats, parts[1:]):
        k = first[id(o)]
        written = lists[k][1]
        fh.write(bodies[k] if written == sep else bytes(bodies[k]).replace(
            written.encode(), sep.encode()))
        fh.write(part)
    starts = [lists[first[id(a)]][2] for a in keep]
    return [rows[i:i + len(a), :4] for i, a in zip(starts, keep)]


def _encode(o, level, floats):
    """The text of o, with a NUL in place of each float and of each
    all-float list's body (json.dumps escapes every NUL of a string), each
    such list, or the float as a list of one, and the separator between
    its values appended to ``floats``."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        if not all(map(isinstance, o, repeat(str))):
            raise TypeError("member file keys must be strings")
        pad = "\n" + " " * (level + 1)
        body = ("," + pad).join(f"{json.dumps(k)}: "
                                f"{_encode(v, level + 1, floats)}"
                                for k, v in o.items())
        return "{" + pad + body + pad[:-1] + "}"
    if isinstance(o, float):
        floats.append(((o,), ""))
        return "\0"
    array = isinstance(o, np.ndarray) and o.ndim == 1 and (
        o.dtype == np.float64)
    if array or isinstance(o, (list, tuple)):
        if not len(o):
            return "[]"
        pad = "\n" + " " * (level + 1)
        if array or all(map(isinstance, o, repeat(float))):
            floats.append((o, "," + pad))
            body = "\0"
        else:
            body = ("," + pad).join(_encode(x, level + 1, floats) for x in o)
        return "[" + pad + body + pad[:-1] + "]"
    return json.dumps(o)


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

# the powers 10**k that scale a double in [1e-250, 1e250] to 17 digits,
# and the powers 10**e that bound it
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


def _digit_table():
    """By q < 10**4: bytes 0-3 are the 4 digit characters of q, most
    significant first, and bits 32 and up hold 16 plus the number of those
    digits up to q's last nonzero one, or 4 for q = 0."""
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
    return digits.view("<i8").ravel()


_DIGITS4 = _digit_table()
_LOW32 = (1 << 32) - 1


def _insertion_tables():
    """For the 17 digit characters D0-D16 of a value in three words, with
    the point after the first p of them (p = 0: none) and those after
    D_keep stripped: by p * 17 + keep, the bytes of word k that stay
    (_STAY[k]), those that move up one byte past the point (_MOVE[k]),
    and the "." (_DOT[k])."""
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


def _word(text, byte=0):
    """The int64 word with the characters of ``text`` from byte ``byte``
    on, NULs left as zero bytes."""
    return int.from_bytes(text.encode().rjust(byte + len(text), b"\0"),
                          "little")


def _form_tables():
    """By X + _EXP0 for a decimal exponent X, the text around ``%.17g``'s
    digits: fixed form for X from -4 to 16, exponent form, with the point
    after the first digit, elsewhere.  _PREFIX: the "0." and zeros before
    the first digit of a fixed-form value below 1, from byte 1 of a word
    (byte 0 is the sign); _POINT17: 17 times the digits before the point
    (0 for none, and none before the digits of such a value); _LEAST: the
    digits after the first that are never stripped, those before the
    point; _TAIL: the exponent, "e", its sign, a hundreds digit or a zero
    byte, and two digits, from byte 2 of a word, or 0 in fixed form."""
    prefix = np.zeros(2 * _EXP0 + 1, dtype=np.int64)
    for X in range(-4, 0):
        prefix[X + _EXP0] = _word("0." + "0" * (-X - 1), 1)
    fixed, whole = slice(_EXP0 - 4, _EXP0 + 17), slice(_EXP0, _EXP0 + 17)
    point17 = np.full(2 * _EXP0 + 1, 17)
    point17[fixed] = 0
    point17[whole] = np.arange(17, 17 * 17 + 1, 17)
    least = np.zeros(2 * _EXP0 + 1, dtype=np.int64)
    least[whole] = np.arange(17)
    tail = np.array([_word(e[:2] + e[2:].rjust(3, "\0"), 2) for e in (
        f"e{X:+03d}" for X in range(-_EXP0, _EXP0 + 1))])
    tail[fixed] = 0
    return prefix, point17, least, tail


_PREFIX, _POINT17, _LEAST, _TAIL = _form_tables()


def _decimal(a):
    """|x| = a in [1e-250, 1e250] rounded to 17 significant digits, as
    (top, mid, low, X, undecided): the digits are top's one, then mid's
    and low's 8 each, and X - _EXP0 is the decimal exponent; all are
    garbage where ``undecided``, which holds where the fraction is within
    1e-6 of one half or the guessed exponent is off by one.  A zero gives
    garbage without a warning.  Every integer is an int64.

    |x| times 10**(16 - E), E the decimal exponent, is the integer
    top * 10**16 + mid * 10**8 + low plus a fraction, to within 1e-12;
    the product is exact where 10**(16 - E) is an integer below 2**53."""
    field = a.view(np.int64) >> 52
    X = _FIELD_E10.take(field)
    X += a >= _FIELD_NEXT.take(field)
    del field
    k = (16 - _K0 + _EXP0) - X
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
    # the integer part N = p + whole, p an integer wherever it has 17
    # digits (10**16 > 2**53), in the 8-digit groups mid and low after
    # the first digit top: top from a float estimate, off by at most one,
    # which the carry mends, and p - top * 1e16 is exact
    top = np.floor((p + whole) * 1e-16)
    p -= top * 1e16
    rest = p.astype(np.int64)
    del p
    rest += whole.astype(np.int64)
    del whole
    top = top.astype(np.int64)
    _carry(top, rest, 10 ** 16)
    mid, low = _groups(rest)
    undecided = (top < 1) | (top >= 10)
    undecided |= np.abs(frac - 0.5) < 1e-6
    low += frac > 0.5
    del frac
    # carry a rounded-up low group of 10**8 into mid and top; where the
    # digits reach 10**17, make them 10**16 and X one higher
    over = low >= 10 ** 8
    if over.any():
        low[over] -= 10 ** 8
        mid += over
        over = mid == 10 ** 8
        mid[over] = 0
        top += over
        over = top == 10
        top[over] = 1
        X += over
    return top, mid, low, X, undecided


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


def _carry(high, low, base):
    """Move one unit between the int64 digit groups high and low, in
    place, where low is within one base outside [0, base)."""
    step = (low >= base).astype(np.int64)
    step -= low < 0
    high += step
    low -= step * base


def _kernel_words(x, out):
    """Write the ``%.17g`` text of each float64 x[i] into the four int64
    words out[i] (``out`` an (n, 4) view, its rows possibly strided), in
    order, with zero bytes where a character is absent.  Arrays are freed
    once used, and words built in place, since a block's transient memory
    adds to the peak memory of every command that writes one."""
    a = np.abs(x)
    ok = (a >= 1e-250) & (a <= 1e250)
    a = np.where(ok, a, 1.0)
    top, mid, low, X, undecided = _decimal(a)
    del a
    # a zero has the digits of 1.0 with the first one zeroed
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
    # keep the digits D1-D16 up to the last nonzero one and those the form
    # keeps
    keep = d1 >> 32
    part = np.empty_like(keep)  # room for a shifted word
    for i, d in enumerate((d2, d3, d4), 1):
        np.right_shift(d, 32, out=part)
        part += 4 * i
        np.maximum(keep, part, out=keep)
    keep -= 16
    np.maximum(keep, _LEAST.take(X), out=keep)
    keep += _POINT17.take(X)
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
    word = _PREFIX.take(X)
    word |= x.view(np.int64) >> 63 & ord("-")
    out[:, 0] = word
    # each digit word: the bytes before the point stay, the point goes
    # after them, and the kept bytes after it move up one byte, the last
    # into the next word
    for k, word in enumerate((d1, d2, d4)):
        moved = word & _MOVE[k].take(keep)
        word &= _STAY[k].take(keep)
        word |= _DOT[k].take(keep)
        if k:
            word |= carry
        carry = moved >> 56
        moved <<= 8
        word |= moved
        if k == 2:
            word |= _TAIL.take(X)
        out[:, k + 1] = word
    del d1, d2, d4, keep, moved, carry, X, word
    todo = np.flatnonzero(undecided)
    if len(todo):
        _put_text(out, todo, ["%.17g" % v for v in x[todo].tolist()])


def _put_text(words, index, texts):
    """Write each of ``texts``, ASCII of at most 32 characters, into the
    four words of its row of ``index`` in ``words``."""
    words.view(np.uint8)[index, :32] = np.array(
        texts, dtype="S32").view(np.uint8).reshape(len(index), 32)


def _row_buffer(n, head=b""):
    """A zeroed bytearray of ``head``, zero bytes up to a multiple of 8,
    and n rows of five int64 words; and the (n, 5) view of the rows."""
    start = len(head) + -len(head) % 8
    text = bytearray(start + 40 * n)
    text[:len(head)] = head
    return text, np.frombuffer(text, np.int64, offset=start).reshape(n, 5)


def _end_rows(rows, separator, lead):
    """Put ``separator`` after each value of the (rows, columns, 5) words
    ``rows`` but the last of a row, and a newline and the next row's
    ``lead`` after that, but no lead after the last row."""
    rows[:, :-1, 4] = _word(separator)
    rows[:, -1, 4] = _word("\n" + lead)
    rows[-1, -1, 4] = _word("\n")


def rows_bytes(columns, separator=",", lead=""):
    """The rows of the stacked columns as ASCII bytes: each row ``lead``,
    then its values in ``%.17g`` with ``separator`` between them, and a
    newline; ``lead`` and ``separator`` are at most 7 characters."""
    values = np.column_stack(columns).astype(np.float64, copy=False).ravel()
    if not len(values):
        return b""
    text, rows = _row_buffer(len(values), lead.encode())
    _kernel_words(values, rows[:, :4])
    del values
    _end_rows(rows.reshape(-1, len(columns), 5), separator, lead)
    del rows
    return text.translate(None, b"\0")


def word_rows_bytes(columns):
    """The rows of columns of (n, 4) words (``write_json`` keeps them) as
    ASCII bytes: each row its values' text separated by ",", and a
    newline, as ``rows_bytes`` writes the values."""
    text, rows = _row_buffer(len(columns[0]) * len(columns))
    rows = rows.reshape(-1, len(columns), 5)
    for j, words in enumerate(columns):
        rows[:, j, :4] = words
    _end_rows(rows, ",", "")
    del rows
    return text.translate(None, b"\0")


# The kernel's transient memory is about 75 bytes a value.  A member
# file's floats are formatted in equal blocks of at most this many values,
# into one buffer of rows of 40 bytes a value, and its text is joined from
# that buffer at once; an OBJ's 5,043 values are formatted in one call.
# Measured with tracemalloc for a 751-node member, counting what an
# earlier writer still holds: 632 KB in to_json (the values, the rows and
# one block's transients, then the rows and their text), 652 KB in
# write_profile_csv (the file's rows, which its columns' words view, and
# its own rows and text) and 644 KB in write_obj (its one kernel call).
_KERNEL_BLOCK = 4096
_LIST_END = 0x1F  # a byte that no float text or indent holds


def write_csv(path, header, columns):
    """A CSV file of the columns: the header line, then row i of the
    stacked columns for each i, its values in ``%.17g`` separated by
    ","."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(rows_bytes(columns))
