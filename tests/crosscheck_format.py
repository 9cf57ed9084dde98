"""Cross-check the CSV writer's cells against Python's '%.12g' on many
seeded float64 bit patterns; exit 1 on any mismatch.

    python -W error tests/crosscheck_format.py [N]

Draws N (default 2 000 000) random bit patterns, then N more whose
exponents lie in the fast path's range [1e-30, 1e11), in blocks of
200 000.  Each block is checked as one column of one ``_lines`` call.
Each block of the second kind is also checked as the rows of 3- and of
8-column blocks written by ``_write_csv``, so that fast-path cells land
in every slot of a row and on both sides of the writer's chunk edges
(most random bit patterns are formatted by ``_exact``, one at a time).
The fast path rests on numpy's log10, rint, integer division and uint64
arithmetic, so this is worth running on every numpy the package
supports.  It takes a few seconds per million draws and is not part of
the tier-1 suite.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_format import bit_patterns  # noqa: E402

from impulsegame import cli  # noqa: E402

BLOCK = 200_000


def written(values, width, path):
    """The cells of ``values`` as ``_write_csv`` writes them in rows of ``width``
    columns, in order; a tail short of a row is left out."""
    rows = len(values) // width
    cli._write_csv(path, [f"c{k}" for k in range(width)],
                   [values[:rows * width].reshape(rows, width).T])
    with open(path, "rb") as fh:
        return fh.read().decode().replace("\n", ",").split(",")[width:-1]


def main(n):
    rng = np.random.default_rng(2019)
    checked = mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for exponents in ((0, 2048), (1023 - 100, 1023 + 37)):
            for start in range(0, n, BLOCK):
                values = bit_patterns(rng, min(BLOCK, n - start), exponents)
                want = ["%.12g" % v for v in values.tolist()]
                checks = [(cli._lines([values]).decode().split("\n")[:-1], len(want))]
                if exponents[0]:        # the fast path's range: the kernel places every cell
                    checks += [(written(values, k, Path(tmp) / "rows.csv"), len(want) // k * k)
                               for k in (3, 8)]
                for got, size in checks:
                    checked += size
                    if got == want[:size]:
                        continue
                    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
                    mismatches += len(bad) + abs(len(got) - size)
                    print("mismatch (value, writer, %.12g):", bad[:5])
    print(f"{checked} cells checked against '%.12g' with numpy {np.__version__}: "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000))
