"""Compare the trace CSV files of two export trees, sample by sample.

Every ``traces/*.csv`` below A is paired with the file at the same relative
path below B, and both are read with ``TimeSeries.from_csv``.  One line per
trace gives its largest absolute difference and its count of differing
samples.  The exit code is 1 if a trace is missing on either side, if a pair
differs in length, or if any difference (time axis included) exceeds the
bound; otherwise 0.  Two checkouts compare with:

    PYTHONPATH=<parent checkout>/src python tools/export_hashes.py --out parent > parent.txt
    PYTHONPATH=src python tools/export_hashes.py --out change > change.txt
    PYTHONPATH=src python tools/trace_diff.py parent change
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from cpessim.metrics import TimeSeries

BOUND = 1e-9


def abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| per sample: 0 where the samples are equal (or both NaN), inf
    where only one side is NaN or the two are opposite infinities."""
    d = np.where(a == b, 0.0, np.abs(a - b))
    d[np.isnan(a) & np.isnan(b)] = 0.0
    d[np.isnan(d)] = np.inf
    return d


def compare(a_root: Path, b_root: Path, out=sys.stdout) -> int:
    """Print one line per trace and return the exit code."""
    def traces(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("traces/*.csv")}

    a_names, b_names = traces(a_root), traces(b_root)
    failed = not (a_names or b_names)  # two trees without traces compare nothing
    worst = 0.0
    for rel in sorted(a_names | b_names):
        if rel not in a_names or rel not in b_names:
            out.write(f"{rel.as_posix()}  missing in {a_root if rel not in a_names else b_root}\n")
            failed = True
            continue
        a = TimeSeries.from_csv((a_root / rel).read_text())
        b = TimeSeries.from_csv((b_root / rel).read_text())
        if len(a.t) != len(b.t):
            out.write(f"{rel.as_posix()}  length {len(a.t)} against {len(b.t)}\n")
            failed = True
            continue
        dv = abs_diff(a.v, b.v)
        dt = abs_diff(a.t, b.t)
        largest = float(max(dv.max(initial=0.0), dt.max(initial=0.0)))
        worst = max(worst, largest)
        failed |= not largest <= BOUND
        out.write(f"{rel.as_posix()}  max_abs_diff={largest:.3e}  "
                  f"differing={int(np.count_nonzero(dv))}/{len(dv)}"
                  f"{'  t differs' if dt.any() else ''}\n")
    out.write(f"{len(a_names | b_names)} traces, largest difference {worst:.3e}, "
              f"bound {BOUND:.0e}: {'FAIL' if failed else 'ok'}\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first export tree")
    parser.add_argument("b", type=Path, help="second export tree")
    args = parser.parse_args(argv)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
