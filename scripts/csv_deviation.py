"""Largest cell deviations between two directories of fermipulse CSVs.

    python scripts/csv_deviation.py PARENT_DIR CHANGE_DIR

Pairs the ``*.csv`` files of the two directories by name, skips each
file's config line, and compares the header and every cell.  For each
pair it prints the largest absolute deviation of a numeric cell and the
largest deviation relative to the peak |value| of that cell's column in
the parent file, with the column it occurs in.  Text cells must match.

Exits 1, naming the files, when a file exists on one side only or when
a pair differs in header, shape or a text cell; exits 0 otherwise.
Uses the standard library only.
"""

import csv
import math
import os
import sys


def read_table(path):
    """(header, rows) of a CSV, with the leading '#' config line dropped."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return (rows[0], rows[1:]) if rows else ([], [])


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(parent_path, change_path):
    """(max_abs, max_rel, column) over the numeric cells, or a string that
    says why the two files cannot be compared cell by cell."""
    head_a, rows_a = read_table(parent_path)
    head_b, rows_b = read_table(change_path)
    if head_a != head_b:
        return f"headers differ: {head_a} vs {head_b}"
    if len(rows_a) != len(rows_b) or any(len(a) != len(b) for a, b in zip(rows_a, rows_b)):
        return "shapes differ"
    peaks = [0.0] * len(head_a)
    for row in rows_a:
        for j, cell in enumerate(row):
            v = _number(cell)
            if v is not None and math.isfinite(v):
                peaks[j] = max(peaks[j], abs(v))
    worst_abs, worst_rel, column = 0.0, 0.0, None
    for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for j, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            a, b = _number(cell_a), _number(cell_b)
            if a is None or b is None:
                if cell_a != cell_b:
                    where = f"data row {i + 1}, column {head_a[j]}"
                    return f"text cell differs at {where}: {cell_a!r} vs {cell_b!r}"
                continue
            d = 0.0 if a == b else abs(a - b)
            rel = d / peaks[j] if peaks[j] > 0.0 else (0.0 if d == 0.0 else math.inf)
            if rel > worst_rel:
                worst_rel, column = rel, head_a[j]
            worst_abs = max(worst_abs, d)
    return worst_abs, worst_rel, column


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python scripts/csv_deviation.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent_dir, change_dir = args
    names = [sorted(f for f in os.listdir(d) if f.endswith(".csv")) for d in (parent_dir, change_dir)]
    ok = True
    for name in sorted(set(names[0]) ^ set(names[1])):
        side = parent_dir if name in names[0] else change_dir
        print(f"{name}: only in {side}")
        ok = False
    print("file,max_abs,max_rel_peak,column")
    for name in sorted(set(names[0]) & set(names[1])):
        result = compare(os.path.join(parent_dir, name), os.path.join(change_dir, name))
        if isinstance(result, str):
            print(f"{name}: {result}")
            ok = False
        else:
            worst_abs, worst_rel, column = result
            print(f"{name},{worst_abs:.3g},{worst_rel:.3g},{column or '-'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
