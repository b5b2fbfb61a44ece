"""Whole-file writes and numeric CSV files.

Every file the program writes goes through :func:`atomic_write`: the content
is written to a temporary file in the target's directory, which then replaces
the target in one ``os.replace``. An interrupted or failed write leaves the
previous file, or none, never a partial one. Files are not fsynced.

Numeric CSV files (round logs, traces, final errors, CDF curves) are
written by :func:`write_csv` and read, like fingerprint datasets, by
:func:`read_csv`, the program's one CSV parser. A float is written as the
shortest ``repr`` that reads back to the same float64, and lines end in CRLF,
as ``csv.writer`` ends them.
"""

from __future__ import annotations

import csv
import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import DataError


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a temporary file next to ``path``; on success it replaces ``path``.

    On any error, the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(
    path: str | Path,
    header: Sequence[str],
    values,
    index: Sequence[int] | None = None,
) -> None:
    """A header row, then one line per row of ``values`` (2-D, floats).

    Each value goes through float64 to a Python float, whose ``repr`` is the
    shortest text that reads back to it (numpy 2's ``repr`` of a
    ``np.float64`` would write ``np.float64(...)``). With ``index`` given,
    each line starts with that row's integer.
    """
    lines = (",".join(map(repr, row)) for row in np.asarray(values, dtype=np.float64).tolist())
    if index is not None:
        lines = (f"{int(i)},{line}" for i, line in zip(index, lines, strict=True))
    with atomic_write(path) as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line + "\r\n" for line in lines)


_ROWS = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)  # np.loadtxt's reading of data lines


def read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The header and the float rows (``[rows, columns]``, possibly no rows) of a CSV file.

    Cells may be quoted and padded with spaces; blank lines are skipped. A
    missing or empty file, a cell that is not a number and a row whose width
    differs from the header's are :class:`DataError`, which names the first
    line at fault (the header is line 1).
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            header = next(csv.reader([fh.readline()]), [])
            start = fh.tell()
            if header and any(line.strip() for line in iter(fh.readline, "")):
                fh.seek(start)
                values = np.loadtxt(fh, **_ROWS)
            else:
                values = np.empty((0, len(header)))
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    except ValueError as exc:  # a cell that is not a number, a ragged row, undecodable text
        raise DataError(f"{path}: {_first_bad_line(path) or f'line 1: {exc}'}") from exc
    if not header:
        raise DataError(f"{path}: empty file")
    if values.shape[1] != len(header):
        raise DataError(f"{path}: {_first_bad_line(path)}")
    return header, values


def _first_bad_line(path: Path) -> str | None:
    """Where and why the first data line that is not a row of numbers as wide as the header fails."""
    with path.open(newline="", errors="replace") as fh:
        width = len(next(csv.reader([fh.readline()]), []))
        for lineno, line in enumerate(fh, start=2):
            try:  # a blank line, which the parser skips, passes as a full row
                cells = np.loadtxt([line], **_ROWS).shape[1] if line.rstrip("\r\n") else width
            except ValueError as exc:  # numpy numbers the one line it parsed row 0
                return f"line {lineno}: {str(exc).replace(' at row 0,', ' at')}"
            if cells != width:
                return f"line {lineno}: {width} header columns but {cells} in this row"


def column_indices(path: str | Path, header: Sequence[str], names: Sequence[str]) -> list[int]:
    """Where each of ``names`` is in ``header``; one it lacks is a :class:`DataError` naming ``path``."""
    index = {name: i for i, name in enumerate(header)}
    missing = [name for name in names if name not in index]
    if missing:
        raise DataError(f"{path}: missing columns {missing[:5]}{'...' if len(missing) > 5 else ''}")
    return [index[name] for name in names]
