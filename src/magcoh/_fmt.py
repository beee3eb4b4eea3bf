"""The exact ``'%.17g' % x`` text of every entry of a float64 array, with
a separator after each entry, in one pass of array arithmetic.

The 17 significant digits of x are the integer D = round(|x| * 10**(16-e)),
e = floor(log10|x|).  The product is formed as a double-double: Dekker's
exact two-product of |x| with the double nearest 10**(16-e), plus |x|
times the correctly rounded remainder of that power.  Its error is below
2**-47 in units of the last digit, so D is certified when the unrounded
product is at least 10**16, D is below 10**17 and the product's
fractional part is not within ``_TIE`` of one half.  (log10's rounding
can put e one off near a power of ten; such an entry fails the range
test.)  This is the certify-or-fall-back scheme of Grisu3
(F. Loitsch, PLDI 2010); the exact product is T. J. Dekker's (Numer. Math.
18, 224, 1971).  Zeros render as "0" or "-0" directly.  Every other entry
-- |x| outside [1e-280, 1e280), including subnormals, and the near-ties --
is formatted by CPython itself, so every byte is that of ``'%.17g' % x``.

The text is laid out in a byte matrix, one row of uint64 words per entry,
with a zero byte wherever a character is absent (the sign of a positive
number, the stripped trailing zeros, an unused exponent slot); deleting the
zero bytes leaves the text.  Each row is:

- word 0: the sign, then the "0.000" prefix of a fixed-notation number
  below 1e-1 (or a one-byte mark that a CPython text goes there);
- words 1-5: the digits d0..d16 at even bytes 0..32, the decimal point at
  odd byte 2j-1 when it follows j digits, then the exponent ("e-05",
  "e+100") at bytes 33..37;
- the remaining words: the separator.

A digit is written as its value plus 48 from a table indexed by the number
of digits kept and the point's place, so a dropped trailing zero is a
zero byte.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from itertools import chain

import numpy as np

# |x| in [_LOW, _HIGH) takes the array path; 10**(16-e) and its remainder
# are then normal doubles.
_LOW, _HIGH = 1e-280, 1e280
_K_MIN, _K_MAX = 16 - 282, 16 + 282  # the powers 10**k in the table
_X_OFF = 300  # row of exponent X in the per-exponent tables is X + _X_OFF
_MARK = 2 * _X_OFF + 1  # the per-exponent row of an entry CPython formats

# half-width of the band around one half, in units of the last digit,
# where a rounding is left to CPython
_TIE = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for 53-bit doubles
_WORD = np.dtype("<u8")  # a row word, its bytes in text order


def _word(text: str) -> int:
    """``text`` as bytes 1.. of a row word; byte 0 is another field's."""
    return int.from_bytes(b"\0" + text.encode("ascii"), "little")


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The kernel's constant tables, built once on first use (a few ms)."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            exact = 10**k
            h = float(exact)
            rest = float(exact - int(h))
        else:
            den = 10**-k
            h = 1 / den  # int / int is correctly rounded
            num, pow2 = h.as_integer_ratio()
            rest = (pow2 - num * den) / (pow2 * den)
        hi.append(h)
        lo.append(rest)
    hi = np.array(hi)
    split = hi * _SPLIT
    hi_high = split - (split - hi)

    # per exponent X: sign-and-prefix word, exponent word, the number of
    # integer digits always written, and the point's place (0: none)
    xs = range(-_X_OFF, _X_OFF + 2)
    prefix, suffix, whole, point = [], [], [], []
    for x in xs:
        fixed = -4 <= x < 17
        prefix.append(_word("0." + "0" * (-x - 1)) if -4 <= x < 0 else 0)
        suffix.append(0 if fixed else _word("e%+03d" % x))
        whole.append(x + 1 if 0 <= x < 17 else 0)
        point.append(x + 1 if 0 <= x < 16 else 1 if not fixed else 0)
    prefix[_MARK] = 1
    suffix[_MARK] = whole[_MARK] = point[_MARK] = 0

    # digits and point: row nd * 18 + pt adds 48 to digits 0..nd-1 and
    # puts "." before digit pt when 0 < pt < nd
    layout = np.zeros((18, 18, 40), dtype=np.uint8)
    for nd in range(18):
        layout[nd, :, 0 : 2 * nd : 2] = 48
        for pt in range(1, nd):
            layout[nd, pt, 2 * pt - 1] = ord(".")

    # a four-digit chunk's digit values at bytes 0, 2, 4, 6, and the
    # place after its last non-zero digit
    c = np.arange(10_000, dtype=np.uint64)
    chunk = sum((c // np.uint64(10 ** (3 - j)) % np.uint64(10)) << np.uint64(16 * j) for j in range(4))
    chunk = chunk.astype(_WORD)
    c = c.astype(np.int64)
    last = np.select([c % 10 != 0, c % 100 != 0, c % 1000 != 0, c != 0], [4, 3, 2, 1], 0)
    return {
        "hi": hi,
        "hi_high": hi_high,
        "hi_low": hi - hi_high,
        "lo": np.array(lo),
        "prefix": np.array(prefix, dtype=_WORD),
        "suffix": np.array(suffix, dtype=_WORD),
        "whole": np.array(whole, dtype=np.intp),
        "point": np.array(point, dtype=np.intp),
        "layout": np.ascontiguousarray(layout.reshape(18 * 18, 40).view(_WORD).T),
        "chunk": chunk,
        "last": last.astype(np.intp),
    }


def join_g17(values: np.ndarray, seps: Sequence[str], codes: np.ndarray) -> str:
    """The concatenation, over i, of ``'%.17g' % values[i]`` followed by
    ``seps[codes[i]]``.

    ``values`` is a 1-D float64 array of finite numbers, ``codes`` an
    integer array of the same length.  The separators are ASCII without
    NUL or SOH bytes.
    """
    n = values.size
    t = _tables()
    a = np.abs(values)
    ok = a >= _LOW
    ok &= a < _HIGH
    np.copyto(a, 1.0, where=~ok)  # any value in range; these entries are replaced below
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.intp)
    np.subtract(16 - _K_MIN, k, out=k)

    # y = a * 10**(16-e) = p + q + a * lo, with p + q exact (Dekker)
    b = t["hi"].take(k)
    p = a * b
    s = a * _SPLIT
    a_high = s - (s - a)
    a_low = np.subtract(a, a_high, out=s)
    b_high = t["hi_high"].take(k)
    b_low = t["hi_low"].take(k)
    q = p - a_high * b_high
    q -= a_low * b_high
    q -= a_high * b_low
    np.subtract(a_low * b_low, q, out=q)
    np.multiply(a, t["lo"].take(k), out=b)
    q += b
    del a, b, s, a_high, a_low, b_high, b_low

    # p is an integer once y >= 2**53, and floor(y) = p + floor(q): the
    # lower bound is tested on this unrounded y, the upper one on D
    floor_q = np.floor(q)
    q -= floor_q  # the fraction of y
    digits = p.astype(np.int64)
    digits += floor_q.astype(np.int64)
    good = digits >= 10**16
    good &= ok
    digits += q > 0.5
    good &= digits < 10**17
    q -= 0.5
    good &= np.abs(q, out=q) > _TIE
    zero = values == 0.0
    mark = ~(good | zero)
    digits[~good] = 0
    x = np.subtract(16 - _K_MIN + _X_OFF, k, out=k)
    x[zero] = _X_OFF
    x[mark] = _MARK
    del p, q, floor_q, good, zero

    # D = d0..d16 as chunks d0-3, d4-7, d8-11, d12-15 and d16
    head = digits // 10**9
    tail = digits - head * 10**9
    c0 = head // 10_000
    c1 = head - c0 * 10_000
    c2 = tail // 100_000
    tail -= c2 * 100_000
    c3 = tail // 10
    c4 = tail - c3 * 10
    del digits, head, tail
    # digits kept: all 17 unless d16 is 0
    kept = np.full(n, 17, dtype=np.intp)
    short = np.flatnonzero(c4 == 0)
    if short.size:
        last = t["last"]
        s1, s2, s3 = c1[short], c2[short], c3[short]
        kept[short] = np.where(
            s3 != 0,
            12 + last[s3],
            np.where(s2 != 0, 8 + last[s2], np.where(s1 != 0, 4 + last[s1], last[c0[short]])),
        )
    np.maximum(kept, t["whole"].take(x), out=kept)
    kept *= 18
    kept += t["point"].take(x)

    sep_bytes = [s.encode("ascii") for s in seps]
    width = -(-max(map(len, sep_bytes), default=0) // 8)
    sep_words = np.frombuffer(b"".join(b.ljust(8 * width, b"\0") for b in sep_bytes), dtype=_WORD)
    # the rows live in a bytearray, whose translate drops the zero bytes
    # without another copy of the whole matrix
    buf = bytearray(8 * n * (6 + width))
    rows = np.frombuffer(buf, dtype=_WORD).reshape(n, 6 + width)
    chunk, layout = t["chunk"], t["layout"]
    word = np.empty(n, dtype=_WORD)
    for j, c in enumerate((c0, c1, c2, c3)):
        np.add(chunk.take(c), layout[j].take(kept), out=word)
        rows[:, 1 + j] = word
    np.add(c4.astype(np.uint64), layout[4].take(kept), out=word)
    word += t["suffix"].take(x)
    rows[:, 5] = word
    np.multiply(np.signbit(values) & ~mark, np.uint64(ord("-")), out=word)
    word += t["prefix"].take(x)
    rows[:, 0] = word
    rows[:, 6:] = sep_words.reshape(len(seps), width).take(codes, axis=0)
    del word, kept, x, c0, c1, c2, c3, c4, rows
    out = buf.translate(None, b"\0")
    del buf
    out = out.decode("ascii")
    if not mark.any():
        return out
    parts = out.split("\x01")
    texts = ["%.17g" % v for v in values[mark].tolist()]
    return "".join(chain.from_iterable(zip(parts, texts))) + parts[-1]
