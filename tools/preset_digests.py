"""Print the sha256 digest of every CSV the six presets write at one small spec.

Usage:
    python3 tools/preset_digests.py > digests.txt
    python3 tools/preset_digests.py --keep DIR
    python3 tools/preset_digests.py --keep DIR --default-scale
    python3 tools/preset_digests.py --default-scale --preset convergence --preset tracking
    python3 tools/preset_digests.py --compare DIR_A DIR_B
    python3 tools/preset_digests.py --compare DIR_A DIR_B --by run

Each preset runs once at a fixed size far below desk scale (a few
seconds in all) and the script prints one line per CSV it wrote:
``preset file sha256``. Run it in two checkouts and diff the outputs:
no difference means every results.csv and patterns_*.csv is
byte-identical at this spec, which is the evidence a change that must
not move any published number has to show. The package is imported
from the ``src/`` directory next to this script, so each checkout
measures its own code. ``--default-scale`` runs each preset at its
``default_spec`` size instead (about two minutes in all on a 2-core desk
machine), for evidence at the scale the presets publish. ``--preset NAME``
(repeatable) runs only the named presets, so a change confined to one
layer (the recursion, say) can show default-scale identity for the
presets that reach it without running the rest.

A digest mismatch cannot tell roundoff from a real change. ``--keep DIR``
also writes the CSVs to DIR/<preset>/; ``--compare DIR_A DIR_B`` then
reads two such directories (no preset is run) and prints, per CSV,
``preset file changed_cells worst_rel_gap`` over its numeric cells, where
a cell counts as changed when its text differs and the gap is
|a - b| / max(|a|, |b|). Under it come one line per column with a changed
numeric cell (``column NAME: N cell(s), worst GAP``, in the order of
their first changed cell), one line per cell that reads ``inf`` or
``-inf`` on one side and differs on the other (``inf column NAME row I:
'A' vs 'B'``, rows counted from 0 after the header, ``#`` for a comment
line) and one line per column with differing non-numeric cells, giving
how many differ and the first pair. ``--by COLUMN`` adds, for each CSV
with that column, one line per value it takes on side A (``by COLUMN
VALUE: N cell(s)``, in order of first appearance, ``#`` for the comment
lines) counting the cells of its rows whose text differs, so it shows
which rows of a CSV moved (say, ``--by run`` on tracking or ``--by
snr_db`` on convergence); a CSV without it gets ``no column COLUMN``.
It exits with status 1 when a CSV is missing on one side, a header, a
row count or a non-numeric cell differs, or an inf cell changed;
``--by`` changes no status.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

SIZES: dict[str, dict[str, int]] = {
    # six whole component-Gram blocks per trial (512 windows each) and a
    # remainder of 428 windows, so the digests cover the block accumulation
    "threshold_sweep": {"symbols": 3500, "trials": 2},
    "eigencurve": {"symbols": 400, "trials": 1},
    "pattern": {"symbols": 400},
    "convergence": {"symbols": 40, "trials": 2},
    "tracking": {"symbols": 120, "trials": 2, "entry_interval": 40},
    "identical_delay": {"symbols": 400},
}


def run_presets(
    root: Path, default_scale: bool = False, presets: list[str] | None = None
) -> None:
    """Run every preset, or only those named in presets, at its small
    spec, or at its default_spec size when default_scale is set, writing
    into root/<preset>/."""
    from mpb_lab import harness

    for preset, sizes in SIZES.items():
        if presets and preset not in presets:
            continue
        spec = harness.default_spec(preset)
        for key, value in ({} if default_scale else sizes).items():
            setattr(spec, key, value)
        out = root / preset
        harness.write_result(harness.run_preset(spec), out)
        for path in sorted(out.glob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{preset} {path.name} {digest}")


def _rows(path: Path) -> tuple[list[list[str]], list[str], list[list[str]]]:
    """(comment lines as [key, value], header, data rows) of one CSV."""
    comments, table = [], []
    with path.open(newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                comments.append(line[1:].strip().split("=", 1))
            else:
                table.append(line)
    header, *rows = list(csv.reader(table))
    return comments, header, rows


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


_INF_TEXTS = ("inf", "-inf")


def compare_csv(
    path_a: Path, path_b: Path, by: str | None = None
) -> tuple[dict[str, tuple[int, float]], list[str], dict[str, int] | None]:
    """Cell-by-cell comparison of two copies of one CSV: every column with
    a changed numeric cell mapped to (changed cells, worst relative gap),
    the problems (structural differences, one line per changed cell that
    reads inf or -inf on either side and one per column of differing
    non-numeric cells) and, when the CSV has the column by, the changed
    cells of the rows of each of its values on side A ("#": the comment
    lines), else None."""
    comments_a, header_a, rows_a = _rows(path_a)
    comments_b, header_b, rows_b = _rows(path_b)
    if header_a != header_b:
        return {}, [f"header differs: {header_a} vs {header_b}"], None
    if len(rows_a) != len(rows_b) or len(comments_a) != len(comments_b):
        return {}, [f"row count differs: {len(rows_a)} vs {len(rows_b)}"], None
    # (column, row's by-value, row label, text a, text b); comment lines
    # are row "#"
    cells = [
        (f"# {ca[0]}", "#", "#", a, b)
        for ca, cb in zip(comments_a, comments_b)
        for a, b in zip(ca, cb)
    ]
    key = header_a.index(by) if by in header_a else None
    for index, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            return {}, ["row width differs"], None
        value = None if key is None else row_a[key]
        cells += [(column, value, str(index), a, b)
                  for column, a, b in zip(header_a, row_a, row_b)]
    by_value: dict[str, int] | None = None
    if key is not None:
        by_value = dict.fromkeys([value for _, value, _, _, _ in cells], 0)
    columns: dict[str, tuple[int, float]] = {}
    problems: list[str] = []
    texts: Counter[str] = Counter()
    first: dict[str, str] = {}
    for column, value, row, a, b in cells:
        if a == b:
            continue
        if by_value is not None:
            by_value[value] += 1
        if a in _INF_TEXTS or b in _INF_TEXTS:
            problems.append(f"inf column {column} row {row}: {a!r} vs {b!r}")
        x, y = _number(a), _number(b)
        if x is None or y is None:
            texts[column] += 1
            first.setdefault(column, f"{a!r} vs {b!r}")
            continue
        gap = abs(x - y) / max(abs(x), abs(y))
        if math.isnan(gap):  # an inf against anything else
            gap = math.inf
        count, worst = columns.get(column, (0, 0.0))
        columns[column] = (count + 1, max(worst, gap))
    problems += [
        f"non-numeric column {column}: {count} cell(s) differ, first {first[column]}"
        for column, count in texts.items()
    ]
    return columns, problems, by_value


def compare_dirs(dir_a: Path, dir_b: Path, by: str | None = None) -> int:
    names_a = {p.relative_to(dir_a) for p in dir_a.glob("*/*.csv")}
    names_b = {p.relative_to(dir_b) for p in dir_b.glob("*/*.csv")}
    status = 0
    for name in sorted(names_a ^ names_b):
        print(f"{name.parent} {name.name} missing on one side")
        status = 1
    for name in sorted(names_a & names_b):
        columns, problems, by_value = compare_csv(dir_a / name, dir_b / name, by)
        changed = sum(count for count, _ in columns.values())
        worst = max((gap for _, gap in columns.values()), default=0.0)
        print(f"{name.parent} {name.name} {changed} {worst:.3g}")
        for column, (count, gap) in columns.items():
            print(f"  column {column}: {count} cell(s), worst {gap:.3g}")
        for problem in problems:
            print(f"  {problem}")
            status = 1
        if by is not None and by_value is None and not problems:
            print(f"  no column {by}")
        for value, count in (by_value or {}).items():
            print(f"  by {by} {value}: {count} cell(s)")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", metavar="DIR", type=Path,
                       help="also write the CSVs to DIR/<preset>/")
    group.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                       type=Path, help="compare two --keep directories")
    parser.add_argument("--by", metavar="COLUMN",
                        help="with --compare, count changed cells per value "
                             "of COLUMN")
    parser.add_argument("--default-scale", action="store_true",
                        help="run each preset at its default_spec size")
    parser.add_argument("--preset", action="append", choices=list(SIZES),
                        metavar="NAME",
                        help="run only this preset (repeatable; default: all)")
    args = parser.parse_args(argv)
    if args.compare:
        if args.default_scale or args.preset:
            parser.error("--default-scale and --preset run presets; "
                         "--compare runs none")
        return compare_dirs(*args.compare, args.by)
    if args.by:
        parser.error("--by counts what --compare reads")
    if args.keep:
        run_presets(args.keep, args.default_scale, args.preset)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        run_presets(Path(tmp), args.default_scale, args.preset)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
