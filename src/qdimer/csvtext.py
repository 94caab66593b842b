"""CSV text of float64 blocks, byte for byte what ``'%.16e' % x`` writes.

CPython formats each double with its correctly rounded dtoa, about 0.75 us a
cell.  Here a whole block is formatted by numpy instead, and only the cells
whose rounding numpy cannot certify go through ``%``:

* Scale.  For |x| in [1e-99, 1e99), k = floor(log2|x| * log10(2)), and the
  scaled value S = |x| * 10**(16 - k) lies in [1e16, 1e17) when k is right.
  The power of ten is a hi + lo pair of doubles, from exact integers, and
  x * hi is split into its rounded product and exact error (Dekker's
  product, by Veltkamp halves).  The product is a whole number, as every
  double past 2**53 is, so the 17 significant digits are
  N = product + rint(error + x * lo).
* Certify.  That N is the correctly rounded one when the fraction of S lies
  more than MARGIN from one half; the pair's error is below 1e-14.  The
  product must also lie clear of 1e16 and 1e17, by more than the error term
  can reach, which catches a k that is one off near a power of ten.  The
  lower edge is tested on the product, not on N: a value just under a power
  of ten rounds up to 1e16 and would print one digit short.
* Fall back.  Every other cell, and every cell outside that range
  (subnormals, three-digit exponents, infinities and NaN), is formatted by
  one ``%`` call per block.  Zeros of either sign are exact.

Each cell is a 28-byte slot of seven 4-byte words, filled from tables:
[pad, sign, lead digit, '.'], four groups of four digits, ['e', sign, two
exponent digits] and [separator, pad, pad, pad].  The pad is a space, which
no cell text holds, and is deleted from the block's bytes in one pass.  No
long double is used: on some platforms it is binary64, which would certify
nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows"]

# how far from a rounding tie, in units of the last digit, the scaled value
# must lie for its digits to be taken without `%`
MARGIN = 2.0 ** -20

_LOW, _HIGH = -99, 98  # the decimal exponents formatted here
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_LOG10_2 = 0.30102999566398120


def _words(texts: list[bytes]) -> np.ndarray:
    """The 4-byte texts as uint32 words, in the machine's byte order."""
    return np.frombuffer(b"".join(texts), dtype=np.uint32).copy()


def _powers() -> np.ndarray:
    """Rows hi, hi's Veltkamp halves and lo of 10**(16 - k), k = _LOW.._HIGH:
    hi is the double nearest the power and lo the double nearest the rest.
    Python divides ints correctly rounded, so each is exact to the last bit."""
    table = []
    for k in range(_LOW, _HIGH + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        n, d = hi.as_integer_ratio()
        lo = (num * d - n * den) / (den * d)
        c = hi * _SPLIT
        hi_head = c - (c - hi)
        table.append((hi, hi_head, hi - hi_head, lo))
    return np.array(table).T.copy()


_POWERS = _powers()
# "0000" .. "9999", from the uint8 codes of the digits
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_GROUPS = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), axis=-1).reshape(-1)
_GROUPS = _GROUPS.view(np.uint32)
_LEADS = _words([b" %s%d." % (sign, d) for sign in (b" ", b"-") for d in range(10)])
_EXPONENTS = _words([b"e%+03d" % k for k in range(_LOW, _HIGH + 1)])
_COMMA, _NEWLINE = _words([b",   ", b"\n   "])


def _digits_of(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits N of each value as an int64 (0 where they
    are not certified), the index of its decimal exponent in the tables, and
    whether N is certified.  Each step works in place, so that few arrays of
    the block's size are alive at once."""
    a = np.abs(x)
    zero = a == 0.0
    outside = ~((a >= 1e-99) & (a < 1e99))  # NaN included
    # out of range, log2 sees 1 and the product 0: no warning and no NaN
    np.copyto(a, 1.0, where=outside)
    # log2, not log10: a run has paged in numpy's log2 loop already, and a
    # loop touched for the first time costs 64 KiB of resident memory
    k = np.log2(a)
    k *= _LOG10_2
    np.floor(k, out=k)
    np.clip(k, _LOW, _HIGH, out=k)
    k -= _LOW
    row = k.astype(np.intp)
    del k
    np.copyto(a, 0.0, where=outside)
    hi, hi_head, hi_tail, lo = _POWERS
    product = a * hi.take(row)
    # the exact error of that product, from Veltkamp's halves of a and hi
    a_head = a * _SPLIT
    a_head -= a_head - a
    a_tail = a - a_head
    half = hi_head.take(row)
    error = product - a_head * half
    error -= a_tail * half
    half = hi_tail.take(row)
    error -= a_head * half
    del a_head
    np.subtract(a_tail * half, error, out=error)
    del a_tail, half
    error += a * lo.take(row)
    del a
    nearest = np.rint(error)
    error -= nearest
    # the error term reaches 2.1 near 1e16 and 19.1 near 1e17 (half an ulp of
    # the product plus a * lo), so these edges keep S itself in [1e16, 1e17);
    # a zero's digits are exact, but it too must pass the margin, so that a
    # margin of one half sends every cell to `%`
    ok = ((product >= 1e16 + 4) & (product <= 1e17 - 32) & ~outside) | zero
    ok &= np.abs(error) < 0.5 - MARGIN
    del error
    n = product.astype(np.int64)
    n += nearest.astype(np.int64)
    n[~ok] = 0
    return n, row, ok


def _slots(x: np.ndarray) -> np.ndarray:
    """The (size, 7) words of each value's slot, its separator word unset."""
    n, row, ok = _digits_of(x)
    words = np.empty((x.size, 7), dtype=np.uint32)
    words[:, 5] = _EXPONENTS[row]
    del row
    digits = np.empty_like(n)
    np.divmod(n, 10**16, out=(digits, n))
    digits[np.signbit(x)] += 10  # the minus half of the table
    words[:, 0] = _LEADS[digits]
    for col, unit in enumerate((10**12, 10**8, 10**4, 1), 1):
        np.divmod(n, unit, out=(digits, n))
        words[:, col] = _GROUPS[digits]
    del n, digits
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        # every %.16e text fits 24 bytes, "-1.7976931348623157e+308" included
        text = ("%-24.16e" * fallback.size % tuple(x[fallback].tolist())).encode("ascii")
        words[fallback, :6] = np.frombuffer(text, dtype=np.uint32).reshape(-1, 6)
    return words


def csv_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a (rows, cols) float64 block: each cell as
    ``'%.16e' % x``, the cells of a row joined by commas, each row ended by
    a line feed."""
    rows, cols = block.shape
    words = _slots(block.ravel())
    words.reshape(rows, cols, 7)[:, :, 6] = _COMMA
    words.reshape(rows, cols, 7)[:, -1, 6] = _NEWLINE
    text = words.tobytes()
    del words  # the slots go before the pads are dropped
    return text.translate(None, b" ")
