"""Episode CSV files: header ``theta,b`` with an optional ``regime`` column.

UTF-8, LF line endings, full-precision floats via repr.  Episodes travel as
columns both ways: the writer takes ``theta``, ``b`` and, when given,
``regime``, and the reader returns an ``EpisodeTable``.  Both reject a row
by the table's one predicate, theta or b not finite or < 0, and name the
first such row (the reader by the line the row starts on); these files are
the only data interchange surface, so the contract is enforced strictly.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError, ParameterError
from .estimation import EpisodeTable, _first_invalid, _valid

__all__ = ["read_episodes", "write_episodes", "episodes_to_csv"]


_UNWRITABLE = "may not contain a comma, quote or line break"


def _unwritable(regime: str) -> bool:
    """True for a regime label that would need CSV quoting."""
    return any(ch in regime for ch in ',"\r\n')


def _parse_rows(reader, path: str) -> EpisodeTable:
    """Columns of a ``csv.reader``'s records; messages cite the line a record starts on."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}:1: empty file, expected 'theta,b[,regime]' header")
    header = [h.strip() for h in header]
    if header not in (["theta", "b"], ["theta", "b", "regime"]):
        raise DataError(
            f"{path}:1: bad header {','.join(header)!r}, expected 'theta,b[,regime]'"
        )
    width = len(header)
    theta, b, regime, kept = [], [], [], []  # kept: (line, row) of each episode
    fault = None  # the first syntax fault; rows after it are not read
    start = reader.line_num + 1  # the line the next record starts on
    for row in reader:
        lineno, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != width:
            fault = DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            break
        try:
            t, v = float(row[0]), float(row[1])
        except ValueError:
            fault = DataError(f"{path}:{lineno}: non-numeric theta/b: {row[0]!r}, {row[1]!r}")
            break
        if width == 3:
            r = row[2].strip()
            if _unwritable(r):
                fault = DataError(f"{path}:{lineno}: regime {r!r} {_UNWRITABLE}")
                break
            regime.append(r or None)
        theta.append(t)
        b.append(v)
        kept.append((lineno, row))
    theta, b = np.array(theta, dtype=float), np.array(b, dtype=float)
    i = _first_invalid(theta, b)
    if i >= 0:  # an invalid value precedes any syntax fault
        (lineno, row), t, v = kept[i], theta[i], b[i]
        if math.isnan(t) or math.isnan(v):
            raise DataError(f"{path}:{lineno}: NaN is not a valid observation")
        if not _valid(t):
            raise DataError(f"{path}:{lineno}: theta must be finite and >= 0, got {row[0]!r}")
        raise DataError(f"{path}:{lineno}: b must be finite and >= 0, got {row[1]!r}")
    if fault is not None:
        raise fault
    return EpisodeTable(theta, b, tuple(regime) if width == 3 else None)


def read_episodes(path) -> EpisodeTable:
    """Read an episode CSV as columns; raises DataError with file:row on violations."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _parse_rows(csv.reader(fh), str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read data: {exc}") from None


def episodes_to_csv(theta, b, regime=None) -> str:
    """Render episode columns as CSV text (LF, repr floats); the ``regime``
    column is written exactly when ``regime`` is given (None entries blank).
    The columns are checked as an ``EpisodeTable``."""
    table = EpisodeTable(theta, b, regime)
    theta, b = table.theta.tolist(), table.b.tolist()
    if regime is None:
        rows = (f"{t!r},{v!r}\n" for t, v in zip(theta, b))
        return "theta,b\n" + "".join(rows)
    regime = [r or "" for r in table.regime]
    for i, r in enumerate(regime):
        if _unwritable(r):
            raise ParameterError(f"episode {i}: regime {r!r} {_UNWRITABLE}")
    rows = (f"{t!r},{v!r},{r}\n" for t, v, r in zip(theta, b, regime))
    return "theta,b,regime\n" + "".join(rows)


def write_episodes(path, theta, b, regime=None) -> None:
    """Write episode columns to ``path``; nothing is written if a check fails."""
    text = episodes_to_csv(theta, b, regime)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
