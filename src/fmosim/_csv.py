"""The one file policy of every CSV table fmosim writes or reads.

A table is UTF-8 text with its header row first, written through the csv
module's default dialect with ``newline=""``, so every row ends in
``\\r\\n``.  Its target is a path, opened and closed here, or an open text
file, left open.  Callers format their own fields: the sweep and reproduce
tables ``.15g``, the trace, noise and chip-plan files ``.17g``.

A reader raises :class:`PhysicsError` on an empty file, on a header other
than the expected one, and on text that is not UTF-8 (naming the file).
"""

from __future__ import annotations

import csv
from contextlib import nullcontext

from .errors import PhysicsError


def _open(path_or_file, mode: str):
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        return open(path_or_file, mode, newline="", encoding="utf-8")
    return nullcontext(path_or_file)


def write_table(path_or_file, header, rows) -> None:
    """Write ``header`` and then ``rows``, each a sequence of formatted fields."""
    with _open(path_or_file, "w") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def read_table(path_or_file, header, kind: str, noun: str) -> list:
    """``(line number, row)`` for every row after the expected ``header``.

    ``kind`` names the header and ``noun`` the file in the error messages.
    """
    with _open(path_or_file, "r") as f:
        reader = csv.reader(f)
        try:
            found = next(reader, None)
            rows = [(reader.line_num, rec) for rec in reader]
        except UnicodeDecodeError as exc:
            raise PhysicsError(f"{getattr(f, 'name', f)}: not UTF-8 text") from exc
    if found is None:
        raise PhysicsError(f"line 1: empty {noun}, no header")
    if found != header:
        raise PhysicsError(f"unexpected {kind} header: {found}")
    return rows
