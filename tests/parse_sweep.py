"""Compare the numbers ``mot_io._read_values`` reads with ``float()`` on about 3.6M seeded fields.

    PYTHONPATH=src python tests/parse_sweep.py [--seed 0] [--batches 10]

Each batch reads, both signs, the formatter sweep's values as ``_format_rows``
writes them, integral values below 1e15, ``%.kf`` spellings for k = 0 to 22,
random digit strings of the reader's grammar and the reprs of random bit
patterns; the first batch also takes every spelling in the grammar next to
the powers of two from 2**-14 to 2**49. Each batch is read as lines ending
in ``\\n``; every fourth of its lines is read again, laid out with
``\\r\\n`` on half the lines, runs of empty lines at random and on both
sides of every chunk edge, lines of only spaces and control characters, a
lone surrogate or ``\\r`` past the seventh field, and no final newline.
Every field must read as ``float()`` reads it, and the laid-out text as a
line-by-line reference reads it, its blank lines reported unread. The
reader may settle a field with ``float()`` only where it lies outside the
grammar, or where ``mot_io._nearest`` may leave its rounding open; it must
read every other field, and so everything ``_format_rows`` prints from
digits, in numpy. pytest does not collect this
file: it runs more values than tier-1 should, once per CI job, so that every
numpy version the package supports checks the reader's uint64 arithmetic
and byte-strided views. Exits non-zero on the first mismatch.
"""

import argparse
import sys
import time

import numpy as np
from test_mot_io import canonical, digit_strings, empty_runs_at_chunk_edges, left_open, near_powers_of_two, read_lines, reference_lines
from test_number_format import carry_cases, neighbours, powers_of_ten, samples, ties, vectorized

from trackstitch import mot_io
from trackstitch.mot_io import _format_rows, _read_values


def fields(rng, first):
    """One batch of fields: the writer's, ``%.kf`` spellings, digit strings and reprs of random bit patterns."""
    values = vectorized(np.concatenate([samples(rng, 25_000), ties(rng, 20_000)]))
    if first:
        values = np.concatenate([values, vectorized(neighbours(powers_of_ten(), 3000)), carry_cases()])
    values = np.concatenate([values, np.trunc(10.0 ** rng.uniform(0, 15, 20_000))])
    values *= rng.choice([-1.0, 1.0], len(values))
    written = _format_rows([values], ["\n"]).split()
    scales = 10.0 ** rng.uniform(-4, 15, 4_000) * rng.choice([-1.0, 1.0], 4_000)
    out = [f"{v:.{k}f}" for k in range(23) for v in scales.tolist()] + digit_strings(rng, 60_000)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    out += [repr(v) for v in bits[np.isfinite(bits)].tolist()]
    return written, out + near_powers_of_two() if first else out


def laid_out(lines, rng) -> str:
    """``lines``, each without its newline, ended by ``\\n`` or ``\\r\\n`` at random, among runs of empty and blank lines, the last without a newline.

    Some lines gain an eighth field that holds a lone surrogate or a lone ``\\r``: neither is read.
    """
    ends = rng.choice(["\n", "\r\n", "\n", "\r\n", ",\ud800\n", ",-1\r\r\n"], len(lines)).tolist()
    runs = rng.choice(["", "", "", "\n", "\r\n\n\n", " \n", "\t\x1c \r\n"], len(lines)).tolist()  # lines before each line
    return empty_runs_at_chunk_edges([r + line + e for r, line, e in zip(runs, lines, ends)]).rstrip("\r\n")


def check(written, others, rng) -> int:
    """Read the fields, then every fourth line laid out by ``rng``; returns how many of the grammar's the reader settled with ``float()`` in the first read."""
    batch = written + others
    batch += ["0"] * (-len(batch) % 7)
    lines = [",".join(batch[k : k + 7]) for k in range(0, len(batch), 7)]
    settled = []
    settle = mot_io._settle

    def counting(buf, start, end):
        settled.extend(buf[s:e].decode() for s, e in zip(start.tolist(), end.tolist()))
        return settle(buf, start, end)

    text = laid_out(lines[::4], rng)
    mot_io._settle = counting
    try:
        got = [_read_values("".join(line + "\n" for line in lines))[0]]
        plain = len(settled)
        values, unread = read_lines(text)
        got.append(values)
    finally:
        mot_io._settle = settle
    expected = np.array([float(f) for f in batch]).reshape(-1, 7)
    for values, rows, layout in zip(got, (expected, expected[::4]), ("plain", "laid-out")):
        if not np.array_equal(values.view(np.int64), rows.view(np.int64)):
            raise SystemExit(f"the reader does not read every field of the {layout} text as float() reads it")
    rows, blank = reference_lines(text)
    if not np.array_equal(got[1].view(np.int64), rows.view(np.int64)) or unread != blank:
        raise SystemExit("the reader does not read the laid-out text as the line-by-line reference does")
    if not all(canonical(f) for f in written):
        raise SystemExit(f"_format_rows writes a field outside the reader's grammar: {[f for f in written if not canonical(f)][:3]}")
    left = [f for f in settled[:plain] if canonical(f)]
    if not all(left_open(f) for f in left):
        raise SystemExit(f"the reader settles fields of its grammar with float(): {[f for f in left if not left_open(f)][:3]}")
    if not set(settled[plain:]) <= set(settled[:plain]):
        raise SystemExit(f"the layout makes the reader settle other fields: {sorted(set(settled[plain:]) - set(settled[:plain]))[:3]}")
    return len(left)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batches", type=int, default=10)
    args = parser.parse_args(argv)
    rng, layouts = np.random.default_rng(args.seed), np.random.default_rng((args.seed, 1))
    started = time.perf_counter()
    total = left = 0
    for k in range(args.batches):
        written, others = fields(rng, k == 0)
        total += len(written) + len(others)
        left += check(written, others, layouts)
    print(
        f"{total} fields read as float() reads them; {left} of the grammar settled by float(), each next to a power of two"
        f" or of 16 digits or more with at most 4 after the point ({time.perf_counter() - started:.1f} s, numpy {np.__version__})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
