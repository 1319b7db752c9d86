"""Compare the number text of ``mot_io._format_rows`` with ``repr`` on about 3M seeded non-integral values.

    PYTHONPATH=src python tests/number_format_sweep.py [--seed 0] [--batches 12]

Each batch draws the samples of ``test_number_format`` afresh (about 250k
values in the digit kernel's range) and adds the ties near 1e15; the first
batch also takes the doubles within 3,000 ulps of every power of ten and the
constructed carry cases. Every value is non-integral, so the track rule
that ``assert_like_repr`` checks is ``repr``. pytest does not collect this
file: it runs more values than tier-1 should, once per CI job, so that every
numpy version the package supports checks the kernel. Exits non-zero on the
first mismatch.
"""

import argparse
import sys
import time

import numpy as np
from test_number_format import assert_like_repr, carry_cases, neighbours, powers_of_ten, samples, ties, vectorized


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batches", type=int, default=12)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    started = time.perf_counter()
    total = 0
    for batch in range(args.batches):
        values = vectorized(np.concatenate([samples(rng, 35_000), ties(rng, 20_000)]))
        if batch == 0:
            values = np.concatenate([values, vectorized(neighbours(powers_of_ten(), 3000)), carry_cases()])
        assert_like_repr(values)
        total += len(values)
    print(f"{total} values in [1e-4, 1e15) print as repr ({time.perf_counter() - started:.1f} s, numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
