"""Reference check of the CSVs the oirsvlc CLI writes.

A CSV is a header line, numeric data rows, then '#' comment lines of
`key=value` fields. Any non-finite cell fails. At the seed the references
were recorded with, every numeric cell must agree with the reference to
RTOL relative: that allows round-off from a reordered sum but catches any
change in the seed stream or the algorithm. At any other seed the
seed-independent outputs (coherence, fig4, overhead, and the sigma, spacing
and trials columns) must still agree to RTOL, NMSE floor cells must stay at
the floor, and every other NMSE cell must lie within NMSE_DB_TOL of the
reference.
"""

from __future__ import annotations

import math
import re

RECORDED_SEED = 20240917
RTOL = 1e-9
# Seed-to-seed spread measured at most 0.12 dB on both sweep workloads; a
# broken estimator moves cells by tens of dB.
NMSE_DB_TOL = 0.5
NMSE_DB_FLOOR = -300.0


def parse_csv(text: str):
    """(header, rows of floats, comment lines).

    Raises ValueError on an empty file, a non-numeric or non-finite cell, or
    a data row after the comments.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty file")
    header, rows, comments = lines[0], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            comments.append(line)
            continue
        if comments:
            raise ValueError(f"line {lineno}: data row after the comments")
        try:
            cells = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric cell in {line!r}") from None
        if not all(math.isfinite(cell) for cell in cells):
            raise ValueError(f"line {lineno}: non-finite cell in {line!r}")
        rows.append(cells)
    return header, rows, comments


def _close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= RTOL * max(abs(got), abs(want))


def _comment_fields(comments) -> dict:
    fields = {}
    for line in comments:
        for item in line.lstrip("#").split():
            key, _, value = item.partition("=")
            fields[key] = value
    return fields


def _compare_comments(comments, ref_comments, seed: int) -> list:
    got, want = _comment_fields(comments), _comment_fields(ref_comments)
    if got.keys() != want.keys():
        return [f"comment fields {sorted(got)} differ from reference {sorted(want)}"]
    problems = []
    for key, ref in want.items():
        value = got[key]
        if key == "seed":
            ok = value == str(seed)
        elif key == "config_sha256":
            ok = value == ref if seed == RECORDED_SEED else bool(re.fullmatch("[0-9a-f]{64}", value))
        else:
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            ok = math.isfinite(number) and _close(number, float(ref))
        if not ok:
            problems.append(f"comment {key}={value} against reference {ref}")
    return problems


def compare(text: str, reference: str, seed: int) -> list:
    """Problems found in CSV `text` against `reference`; empty when it passes."""
    try:
        header, rows, comments = parse_csv(text)
        ref_header, ref_rows, ref_comments = parse_csv(reference)
    except ValueError as exc:
        return [str(exc)]
    if header != ref_header:
        return [f"header {header!r} differs from reference {ref_header!r}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    columns = header.split(",")
    loose = seed != RECORDED_SEED
    problems = []
    for lineno, (row, ref) in enumerate(zip(rows, ref_rows), start=2):
        if len(row) != len(columns):
            problems.append(f"line {lineno}: {len(row)} cells, header has {len(columns)}")
            continue
        for column, got, want in zip(columns, row, ref):
            if loose and column == "nmse_db":
                ok = got == want if want == NMSE_DB_FLOOR else abs(got - want) <= NMSE_DB_TOL
            else:
                ok = _close(got, want)
            if not ok:
                problems.append(f"line {lineno} {column}: {got!r}, reference {want!r}")
    return problems + _compare_comments(comments, ref_comments, seed)
