"""Episode CSV files: header ``theta,b`` with an optional ``regime`` column.

UTF-8, LF line endings, full-precision floats via repr.  Readers reject NaN
and negative values with errors naming the offending row; these files are
the only data interchange surface, so the contract is enforced strictly.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Sequence

from .errors import DataError
from .estimation import Episode

__all__ = ["read_episodes", "write_episodes", "episodes_to_csv"]


def _parse_rows(rows, path: str):
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}:1: empty file, expected 'theta,b[,regime]' header")
    header = [h.strip() for h in header]
    if header not in (["theta", "b"], ["theta", "b", "regime"]):
        raise DataError(
            f"{path}:1: bad header {','.join(header)!r}, expected 'theta,b[,regime]'"
        )
    has_regime = len(header) == 3
    episodes = []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            theta, b = float(row[0]), float(row[1])
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: non-numeric theta/b: {row[0]!r}, {row[1]!r}"
            ) from None
        if math.isnan(theta) or math.isnan(b):
            raise DataError(f"{path}:{lineno}: NaN is not a valid observation")
        if theta < 0 or math.isinf(theta):
            raise DataError(f"{path}:{lineno}: theta must be finite and >= 0, got {row[0]!r}")
        if b < 0 or math.isinf(b):
            raise DataError(f"{path}:{lineno}: b must be finite and >= 0, got {row[1]!r}")
        regime = row[2].strip() or None if has_regime else None
        episodes.append(Episode(theta=theta, b=b, regime=regime))
    return episodes


def read_episodes(path) -> list:
    """Read an episode CSV; raises DataError with file:row on violations."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _parse_rows(csv.reader(fh), str(path))
    except OSError as exc:
        raise DataError(f"{path}: cannot read data: {exc}") from None


def episodes_to_csv(episodes: Sequence[Episode], include_regime: bool = False) -> str:
    """Render episodes as CSV text (LF, repr floats)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if include_regime:
        writer.writerow(["theta", "b", "regime"])
        for e in episodes:
            writer.writerow([repr(e.theta), repr(e.b), e.regime or ""])
    else:
        writer.writerow(["theta", "b"])
        for e in episodes:
            writer.writerow([repr(e.theta), repr(e.b)])
    return buf.getvalue()


def write_episodes(path, episodes: Sequence[Episode], include_regime: bool = False) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(episodes_to_csv(episodes, include_regime=include_regime))
