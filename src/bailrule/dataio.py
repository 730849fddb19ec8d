"""Episode CSV files: header ``theta,b`` with an optional ``regime`` column.

UTF-8, LF line endings, full-precision floats via repr.  The writer takes
episodes as columns (``theta``, ``b`` and, when given, ``regime``); it and
the reader, which returns a list of ``Episode``, reject the same rows: theta
or b not finite or < 0.  Errors name the offending row; these files are the
only data interchange surface, so the contract is enforced strictly.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError, ParameterError
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


def _check_columns(theta, b) -> None:
    """The reader's checks on whole columns: theta and b finite and >= 0; the
    error names the first offending row (0-based)."""
    if theta.ndim != 1 or theta.shape != b.shape:
        raise ParameterError(
            f"theta and b must be 1-D columns of one length, got {theta.shape} and {b.shape}"
        )
    bad_theta = ~(np.isfinite(theta) & (theta >= 0.0))
    bad_b = ~(np.isfinite(b) & (b >= 0.0))
    bad = bad_theta | bad_b
    if bad.any():
        i = int(np.argmax(bad))
        if bad_theta[i]:
            raise ParameterError(f"episode {i}: theta must be finite and >= 0, got {theta[i]}")
        raise ParameterError(f"episode {i}: b must be finite and >= 0, got {b[i]}")


def episodes_to_csv(theta, b, regime=None) -> str:
    """Render episode columns as CSV text (LF, repr floats); the ``regime``
    column is written exactly when ``regime`` is given (None entries blank)."""
    theta = np.asarray(theta, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_columns(theta, b)
    if regime is None:
        rows = (f"{t!r},{v!r}\n" for t, v in zip(theta.tolist(), b.tolist()))
        return "theta,b\n" + "".join(rows)
    regime = [r or "" for r in regime]
    if len(regime) != len(theta):
        raise ParameterError(f"regime has {len(regime)} rows, theta has {len(theta)}")
    for i, r in enumerate(regime):
        if any(ch in r for ch in ',"\r\n'):
            raise ParameterError(
                f"episode {i}: regime {r!r} may not contain a comma, quote or line break"
            )
    rows = (f"{t!r},{v!r},{r}\n" for t, v, r in zip(theta.tolist(), b.tolist(), regime))
    return "theta,b,regime\n" + "".join(rows)


def write_episodes(path, theta, b, regime=None) -> None:
    """Write episode columns to ``path``; nothing is written if a check fails."""
    text = episodes_to_csv(theta, b, regime)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
