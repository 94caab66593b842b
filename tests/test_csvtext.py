from decimal import Decimal

import numpy as np
import pytest

from qdimer import csvtext
from qdimer.csvtext import csv_rows


def percent_rows(block):
    # the row-at-a-time `%` formatting that csv_rows replaced
    rows, cols = block.shape
    row = ",".join(["%.16e"] * cols) + "\n"
    return (row * rows % tuple(block.ravel().tolist())).encode("ascii")


def near_powers_of_ten():
    # every power of ten a double can hold, and 200 ulps either side of it
    bits = np.array([np.float64(f"1e{e}").view(np.int64) for e in range(-323, 309)])
    return (bits[:, None] + np.arange(-200, 201)).ravel().view(np.float64)


def ties(rng):
    """Values x = M / 2**(m + d), whose S = x * 10**m = M * 5**m / 2**d lies
    in [1e16, 1e17), 1e-12 clear of its ends, and 2**-d from a rounding tie (on it
    for d = 1); with their d."""
    found = []
    for m in range(1, 25):
        for d in range(1, 48):
            step = 2**d
            # M * 5**m is 2**(d - 1) + 1 or 2**(d - 1) - 1 modulo 2**d
            for target in {step // 2 + 1, step // 2 - 1} if d > 1 else {1}:
                residue = target * pow(5**m, -1, step) % step
                low = -(-(10**16 + 10**4) * step // 5**m)
                high = min((10**17 - 10**5) * step // 5**m, 2**53)
                start = low + (residue - low) % step
                stride = step * max(1, (high - start) // (3 * step))
                found += [(float(M) / 2.0 ** (m + d), d) for M in range(start, high, stride)]
    x, d = np.array(found).T
    return x * rng.choice([-1.0, 1.0], size=x.size), d


def decimal_near_ties(rng):
    # the double nearest <17 digits>5e<exponent>, a tie of the 17-digit rounding
    digits = rng.integers(10**16, 10**17, size=3000)
    exponents = rng.integers(-340, 292, size=3000)
    return np.array([float(Decimal(f"{d}5e{e}")) for d, e in zip(digits, exponents)])


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072009e-308, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e-100, -9.99e-100,
                     1e99, 9.999999999999999e98, 1e-99, -3.3e250, 1.0, -1.0, 0.5])


def random_bits(rng, size, exponents):
    # random sign and mantissa bits, with the exponent field drawn from `exponents`
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64) & ~np.uint64(0x7FF << 52)
    bits |= rng.integers(*exponents, size=size, dtype=np.uint64) << np.uint64(52)
    return bits.view(np.float64)


def values():
    rng = np.random.default_rng(27)
    # 1e6 bit patterns with the binary exponents of [1e-99, 1e99), where the
    # tables apply, and 1e5 with any exponent, NaN and inf included, most of
    # which go to `%`
    pieces = [near_powers_of_ten(), random_bits(rng, 10**6, (694, 1352)),
              random_bits(rng, 10**5, (0, 2048)), ties(rng)[0], decimal_near_ties(rng),
              np.tile(SPECIALS, 10)]
    x = np.concatenate(pieces)
    return x[rng.permutation(x.size)]


def test_csv_rows_are_the_bytes_of_percent_formatting():
    x = values()
    blocks = x[: x.size // 7 * 7].reshape(-1, 7)
    for start in range(0, len(blocks), 4096):
        block = blocks[start:start + 4096]
        assert csv_rows(block) == percent_rows(block)


def test_certified_exactly_when_clear_of_the_margin():
    # a scaled value 2**-d from a tie is taken from the tables when 2**-d
    # exceeds MARGIN = 2**-20, and formatted by `%` otherwise, as is a tie
    x, d = ties(np.random.default_rng(27))
    _, _, ok = csvtext._digits_of(x)
    assert csvtext.MARGIN == 2.0**-20
    assert np.array_equal(ok, (d > 1) & (d < 20))
    assert {1, 19, 20, 47} <= set(d.astype(int).tolist())


def test_every_cell_down_the_fallback_gives_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(2)
    x = np.concatenate([near_powers_of_ten()[::20], SPECIALS,
                        rng.normal(size=5000) * 10.0 ** rng.integers(-120, 120, size=5000)])
    block = x[: x.size // 5 * 5].reshape(-1, 5)
    assert np.any(csvtext._digits_of(block.ravel())[2])
    monkeypatch.setattr(csvtext, "MARGIN", 0.5)
    assert not np.any(csvtext._digits_of(block.ravel())[2])
    assert csv_rows(block) == percent_rows(block)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (300, 1), (256, 7)])
def test_csv_rows_of_every_shape(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    block = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    assert csv_rows(block) == percent_rows(block)


def test_preset_scale_values_are_certified():
    # away from powers of ten and from ties, which a double below 1e6 all but
    # never sits on, every value is formatted without `%`
    rng = np.random.default_rng(5)
    x = rng.uniform(1.0, 9.0, size=20000) * 10.0 ** rng.integers(-30, 6, size=20000)
    _, _, ok = csvtext._digits_of(x)
    assert ok.all()
