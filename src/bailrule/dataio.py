"""Episode CSV files: header ``theta,b`` with an optional ``regime`` column.

UTF-8, LF line endings, full-precision floats via repr.  Episodes travel as
columns both ways: the writer takes ``theta``, ``b`` and, when given,
``regime``, and the reader returns an ``EpisodeTable``.  Both reject a row
by one predicate, theta or b not finite or < 0, and name the first such
row; these files are the only data interchange surface, so the contract is
enforced strictly.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError, ParameterError
from .estimation import EpisodeTable

__all__ = ["read_episodes", "write_episodes", "episodes_to_csv"]


def _valid(x):
    """The row predicate, elementwise: finite and >= 0."""
    return np.isfinite(x) & (x >= 0.0)


def _first_invalid(theta: np.ndarray, b: np.ndarray) -> int:
    """Index of the first row whose theta or b fails ``_valid``, else -1."""
    bad = ~(_valid(theta) & _valid(b))
    return int(bad.argmax()) if bad.any() else -1


_UNWRITABLE = "may not contain a comma, quote or line break"


def _unwritable(regime: str) -> bool:
    """True for a regime label that would need CSV quoting."""
    return any(ch in regime for ch in ',"\r\n')


def _parse_rows(rows, path: str) -> EpisodeTable:
    header = next(rows, None)
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
    for lineno, row in enumerate(rows, start=2):
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
    column is written exactly when ``regime`` is given (None entries blank)."""
    theta = np.asarray(theta, dtype=float)
    b = np.asarray(b, dtype=float)
    if theta.ndim != 1 or theta.shape != b.shape:
        raise ParameterError(
            f"theta and b must be 1-D columns of one length, got {theta.shape} and {b.shape}"
        )
    i = _first_invalid(theta, b)
    if i >= 0:
        name, v = ("theta", theta[i]) if not _valid(theta[i]) else ("b", b[i])
        raise ParameterError(f"episode {i}: {name} must be finite and >= 0, got {v}")
    if regime is None:
        rows = (f"{t!r},{v!r}\n" for t, v in zip(theta.tolist(), b.tolist()))
        return "theta,b\n" + "".join(rows)
    regime = [r or "" for r in regime]
    if len(regime) != len(theta):
        raise ParameterError(f"regime has {len(regime)} rows, theta has {len(theta)}")
    for i, r in enumerate(regime):
        if _unwritable(r):
            raise ParameterError(f"episode {i}: regime {r!r} {_UNWRITABLE}")
    rows = (f"{t!r},{v!r},{r}\n" for t, v, r in zip(theta.tolist(), b.tolist(), regime))
    return "theta,b,regime\n" + "".join(rows)


def write_episodes(path, theta, b, regime=None) -> None:
    """Write episode columns to ``path``; nothing is written if a check fails."""
    text = episodes_to_csv(theta, b, regime)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
