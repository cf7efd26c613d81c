"""Print the sha256 of every exported file of every preset variant.

Each variant of ``presets.VARIANTS`` runs at its preset seed and at seed+3
and is exported exactly as ``cpessim run`` exports it.  One line per file,
sorted:
``<sha256>  <preset>/<variant>/seed<N>/<path>``.  Run it from the repository
root against the ``cpessim`` that ``PYTHONPATH`` selects, so two checkouts
compare with a plain ``diff``:

    PYTHONPATH=src python tools/export_hashes.py > change.txt
    PYTHONPATH=<parent checkout>/src python tools/export_hashes.py > parent.txt
    diff parent.txt change.txt

``--out DIR`` keeps the exported tree under DIR (laid out as the paths
above) instead of a temporary directory, so ``tools/trace_diff.py`` can
compare the traces of two checkouts.  ``export_hashes()`` returns the same
lines; ``tests/export_hashes.txt`` pins them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

from cpessim import engine, presets

VARIANTS = tuple((name, v) for name, variants in presets.VARIANTS.items() for v in variants)
SEED_OFFSETS = (0, 3)


def export_hashes(variants=VARIANTS, seed_offsets=SEED_OFFSETS, out=None) -> list[str]:
    """Run and export each variant at each seed offset; return one
    ``<sha256>  <preset>/<variant>/seed<N>/<path>`` line per exported file,
    sorted by path.  The tree is kept under ``out`` when it is given."""
    lines = []
    if out is None:
        keep = tempfile.TemporaryDirectory()
    else:
        Path(out).mkdir(parents=True, exist_ok=True)
        keep = contextlib.nullcontext(out)
    with keep as tmp:
        for name, variant in variants:
            sc = presets.preset_scenario(name, variant)
            for offset in seed_offsets:
                seed = sc.seed + offset
                run_dir = Path(tmp) / name / variant / f"seed{seed}"
                engine.export(engine.run(sc, seed=seed), run_dir, scenario_doc=sc.doc)
                for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return sorted(lines, key=lambda line: line[66:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="DIR",
                        help="keep the exported tree under DIR instead of a temporary directory")
    args = parser.parse_args(argv)
    sys.stdout.write("".join(f"{line}\n" for line in export_hashes(out=args.out)))
    return 0

if __name__ == "__main__":
    sys.exit(main())
