"""The number text of ``mot_io._format_rows`` against the track rule, value by value.

Every file the package writes prints its numbers by one rule: an integral
value below 1e15 in magnitude without a decimal point, any other as ``repr``.
Non-integral magnitudes in [1e-4, 1e15) print from the digits of
``mot_io._shortest_digits``. These tests compare them with ``repr`` on random
samples, on every power of two and of ten in that range with their
neighbours, on ties near 1e15, on constructed values that take each carry of
the kernel's 128-bit arithmetic, and on each side of every switch to ``repr``.
``number_format_sweep.py`` runs the same comparison on more values.
"""

import math
from decimal import Decimal

import numpy as np

from trackstitch.mot_io import _CHUNK_ROWS, _VECTOR_RANGE, _format_rows

LOW, HIGH = _VECTOR_RANGE


def vectorized(values):
    """The magnitudes of ``values`` that the digit kernel prints: non-integral, in [1e-4, 1e15)."""
    a = np.abs(np.asarray(values, dtype=np.float64))
    a = a[(a >= LOW) & (a < HIGH)]
    return a[a != np.trunc(a)]


def neighbours(values, k):
    """Each value with the ``k`` doubles on either side of it."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-k, k + 1)).reshape(-1).view(np.float64)


def samples(rng, n):
    """About ``6.5 * n`` values in the kernel's range from seven distributions, some outside it too."""
    bits = rng.integers(0, 2**64, size=20 * n, dtype=np.uint64).view(np.float64)  # about 3 % in range
    return np.concatenate(
        [
            rng.uniform(0, HIGH, n),
            10.0 ** rng.uniform(-4, 15, n),
            bits[np.isfinite(bits)],
            np.round(rng.uniform(0, 1e6, n), 2),
            np.arange(n) + 0.5,
            np.arange(n) * 0.1,
            np.arange(n) * 1e-4,
        ]
    )


def powers_of_ten():
    return np.array([float(f"1e{k}") for k in range(-4, 16)])


def ties(rng, n):
    """Doubles from 2**46 up to 1e15: their few binary fraction digits make some lie halfway between two shortest candidates."""
    binade = rng.integers(46, 50, n)
    value = 2.0**binade + rng.integers(0, 2**52, n) * 2.0 ** (binade - 52)
    return value[value < HIGH]


def carries(values):
    """Per value, which carries the kernel's arithmetic takes: (product's low word, upper end, lower end)."""
    out = []
    scales = 17 - np.floor(np.log10(values) - 1e-9).astype(np.int64)  # the kernel's, computed the same way
    for v, q in zip(values.tolist(), scales.tolist()):
        a, b = 4 * int(math.frexp(v)[0] * 2**53), 5**q
        mid = (a & 0xFFFFFFFF) * (b >> 32) + (a >> 32) * (b & 0xFFFFFFFF)
        low = (a * b) % 2**64
        out.append(
            (
                (a & 0xFFFFFFFF) * (b & 0xFFFFFFFF) + ((mid & 0xFFFFFFFF) << 32) >= 2**64,
                low + 2 * b >= 2**64,
                low < 2 * b,
            )
        )
    return np.array(out, dtype=bool).reshape(-1, 3)


def carry_cases():
    """Values whose interval ends carry into, or borrow from, the high word of the kernel's 128-bit products.

    The low word of ``4m * 5**q`` is ``4 * (m * 5**q mod 2**62)``; the ends
    add and subtract ``2 * 5**q``. So a mantissa ``m = r / 5**q mod 2**62``
    carries for ``r`` within ``5**q / 2`` of 2**62 and borrows for ``r`` below
    ``5**q / 2``: the search walks ``r`` inward from each side and keeps the
    mantissas that land in [2**52, 2**53) with the value in ``q``'s decade,
    one per binade, decade and side.
    """
    found = []
    for binade in range(-14, 50):
        for decade in range(math.floor(binade * math.log10(2)), math.floor((binade + 1) * math.log10(2)) + 1):
            q = 17 - decade
            if not 3 <= q <= 21:
                continue
            inverse = pow(5**q, -1, 2**62)
            for side in (lambda j: 2**62 - 1 - j, lambda j: j):
                for j in range(min(5**q // 2, 20000)):
                    m = side(j) * inverse % 2**62
                    v = math.ldexp(m, binade - 52)
                    if 2**52 <= m < 2**53 and 10.0**decade * 1.000001 <= v < 10.0 ** (decade + 1) and LOW <= v < HIGH:
                        found.append(v)
                        break
    return np.array(found)


def track_text(v):
    """The track rule: integral values below 1e15 without a decimal point, other values as repr."""
    if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def assert_like_repr(values):
    """The text of ``values``, one per line, is the track rule's: repr's for every non-integral value."""
    values = np.asarray(values, dtype=np.float64)
    got = _format_rows([values], ["\n"]).splitlines()
    want = list(map(track_text, values.tolist()))
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, f"{len(bad)} of {len(want)} differ from the track rule, first {bad[:5]}"


def test_samples_match_repr():
    values = vectorized(samples(np.random.default_rng(2018), 40_000))
    assert len(values) >= 200_000
    assert_like_repr(values)


def test_powers_of_two_and_ten_and_their_neighbours_match_repr():
    values = vectorized(neighbours(np.concatenate([2.0 ** np.arange(-14, 51), powers_of_ten()]), 3))
    # every power of two that the kernel prints: it takes their narrower lower gap to be as wide as the upper one
    assert np.isin(2.0 ** np.arange(-13, 0), values).all()
    assert_like_repr(values)


def test_doubles_within_3000_ulps_of_a_power_of_ten_match_repr():
    # np.log10 rounds across the power for some of them; the kernel's scale allows for that
    values = vectorized(neighbours(powers_of_ten(), 3000))
    decades = np.array([Decimal(v).adjusted() for v in values.tolist()])
    assert len(values) > 100_000 and (np.floor(np.log10(values)) != decades).any()
    assert_like_repr(values)


def test_ties_round_half_to_even():
    assert _format_rows([np.array([2.0**49 + 0.25, 2.0**49 + 0.75, 2.0**49 + 1.25])], [" "]) == (
        "562949953421312.2 562949953421312.8 562949953421313.2 "
    )
    assert_like_repr(ties(np.random.default_rng(15), 100_000))


def test_carries_of_the_128_bit_arithmetic():
    constructed = carry_cases()
    taken = carries(constructed)
    assert taken[:, 1].sum() >= 20 and taken[:, 2].sum() >= 20
    sampled = vectorized(samples(np.random.default_rng(64), 200))
    assert carries(sampled)[:, 0].sum() >= 100
    assert_like_repr(np.concatenate([constructed, sampled]))


def test_each_side_of_every_switch_to_repr():
    tiny = 2.0**-1074
    edges = [
        np.nextafter(LOW, 0), LOW, np.nextafter(LOW, 1), np.nextafter(HIGH, 0), HIGH, np.nextafter(HIGH, 2 * HIGH),
        HIGH - 1, HIGH - 0.5, HIGH + 1, 1e16, 2.0**53 + 2, 1e300, 2.2250738585072014e-308, 2.225073858507201e-308,
        tiny, 3 * tiny, 0.5, 5.0, 0.0, math.inf, math.nan,
    ]
    values = np.array(edges + [-v for v in edges])
    assert_like_repr(values)


def test_integer_columns_print_their_digits():
    values = np.array([np.iinfo(np.int64).min, -(10**18), -1, 0, 1, 9999, 10000, 10**15, np.iinfo(np.int64).max])
    assert _format_rows([values], [","]) == "".join(f"{v}," for v in values.tolist())


def test_rows_across_chunks_with_words():
    n = _CHUNK_ROWS + 5
    rng = np.random.default_rng(8)
    ids = rng.integers(-5, 10**6, n)
    values = rng.choice([0.5, -0.0, 1e-7, 3.0, 1 / 3, 1e20], n)
    stop = rng.random(n) < 0.3
    text = _format_rows([ids, values], ["\t", "\n"], words=(0, stop, "STOPPED"))
    assert text.splitlines() == [
        f"{'STOPPED' if s else i}\t{track_text(v)}" for i, v, s in zip(ids.tolist(), values.tolist(), stop.tolist())
    ]
