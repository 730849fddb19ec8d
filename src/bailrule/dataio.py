"""Episode rows and their CSV files.

``Episode`` is one observed bailout decision (shock proxy theta, payout b,
optional regime label) and ``EpisodeTable`` the same rows as columns; both
check the one row predicate ``_valid`` (finite and >= 0) when built, so no
estimator sees a row that no episode file can hold.

Files: header ``theta,b`` with an optional ``regime`` column, UTF-8, LF line
endings, full-precision floats via repr.  The writer checks its columns as an
``EpisodeTable``; the reader checks each record as it parses it and names
the line the first faulty record starts on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, ParameterError

__all__ = ["Episode", "EpisodeTable", "read_episodes", "write_episodes", "episodes_to_csv"]


_UNWRITABLE = "may not contain a comma, quote or line break"


def _valid(x):
    """The row predicate, elementwise: finite and >= 0 (a float gives a bool)."""
    return (0.0 <= x) & (x < math.inf)


def _unwritable(regime: str) -> bool:
    """True for a regime label that would need CSV quoting."""
    return any(ch in regime for ch in ',"\r\n')


@dataclass(frozen=True)
class Episode:
    """One observed bailout decision: shock proxy, realized payout, optional label."""

    theta: float
    b: float
    regime: str | None = None

    def __post_init__(self) -> None:
        for name in ("theta", "b"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not _valid(value):
                raise ParameterError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True, eq=False)
class EpisodeTable(Sequence):
    """Episodes as columns: float arrays ``theta`` and ``b``, and ``regime``,
    a tuple of labels (None where blank) or None when there is no such
    column.  Indexing (and so iteration) builds ``Episode`` rows on demand.
    """

    theta: np.ndarray
    b: np.ndarray
    regime: tuple | None = None

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        b = np.asarray(self.b, dtype=float)
        regime = None if self.regime is None else tuple(self.regime)
        if theta.ndim != 1 or theta.shape != b.shape:
            raise ParameterError(
                f"theta and b must be 1-D columns of one length, got {theta.shape} and {b.shape}"
            )
        if regime is not None and len(regime) != len(theta):
            raise ParameterError(f"regime has {len(regime)} rows, theta has {len(theta)}")
        ok = _valid(theta) & _valid(b)
        if not ok.all():
            i = int(ok.argmin())  # the first bad row
            name, v = ("theta", theta[i]) if not _valid(theta[i]) else ("b", b[i])
            raise ParameterError(f"episode {i}: {name} must be finite and >= 0, got {v}")
        for name, value in (("theta", theta), ("b", b), ("regime", regime)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, i: int) -> Episode:
        return Episode(self.theta[i], self.b[i], None if self.regime is None else self.regime[i])


def _parse_rows(reader, path: str) -> EpisodeTable:
    """Columns of a ``csv.reader``'s records, each checked as it is parsed:
    field count, numbers, regime, NaN, theta, b.  The first fault raises,
    citing the line its record starts on."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}:1: empty file, expected 'theta,b[,regime]' header")
    header = [h.strip() for h in header]
    if header not in (["theta", "b"], ["theta", "b", "regime"]):
        raise DataError(
            f"{path}:1: bad header {','.join(header)!r}, expected 'theta,b[,regime]'"
        )
    width = len(header)
    theta, b, regime = [], [], []
    start = reader.line_num + 1  # the line the next record starts on
    for row in reader:
        lineno, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            t, v = float(row[0]), float(row[1])
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: non-numeric theta/b: {row[0]!r}, {row[1]!r}"
            ) from None
        if width == 3:
            r = row[2].strip()
            if _unwritable(r):
                raise DataError(f"{path}:{lineno}: regime {r!r} {_UNWRITABLE}")
            regime.append(r or None)
        if not (_valid(t) and _valid(v)):
            if math.isnan(t) or math.isnan(v):
                raise DataError(f"{path}:{lineno}: NaN is not a valid observation")
            name, raw = ("theta", row[0]) if not _valid(t) else ("b", row[1])
            raise DataError(f"{path}:{lineno}: {name} must be finite and >= 0, got {raw!r}")
        theta.append(t)
        b.append(v)
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
