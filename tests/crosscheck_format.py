"""Cross-check the CSV writer's cells against Python's '%.12g' on many
seeded float64 bit patterns; exit 1 on any mismatch.

    python -W error tests/crosscheck_format.py [N]

Draws N (default 2 000 000) random bit patterns, then N more whose
exponents lie in the fast path's range [1e-30, 1e11), in blocks of
200 000.  The fast path rests on numpy's log10, rint and multiplication,
so this is worth running on every numpy the package supports.  It takes
a few seconds per million cells and is not part of the tier-1 suite.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_format import bit_patterns  # noqa: E402

from impulsegame import cli  # noqa: E402

BLOCK = 200_000


def main(n):
    rng = np.random.default_rng(2019)
    checked = mismatches = 0
    for exponents in ((0, 2048), (1023 - 100, 1023 + 37)):
        for start in range(0, n, BLOCK):
            values = bit_patterns(rng, min(BLOCK, n - start), exponents)
            got = cli._lines([values]).decode().split("\n")[:-1]
            want = ["%.12g" % v for v in values.tolist()]
            bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
            checked += len(values)
            mismatches += len(bad) + abs(len(got) - len(want))
            if bad:
                print("mismatch (value, writer, %.12g):", bad[:5])
    print(f"{checked} cells checked against '%.12g' with numpy {np.__version__}: "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000))
