"""Rule cards: the published commitment a later audit is checked against.

A card states the two cutoffs, the interior slope, the cap, the threshold,
and (when the cap comes from a legislature) the quota, plus provenance: the
config's sha256 and a timestamp.  The timestamp honors SOURCE_DATE_EPOCH and
otherwise uses the config file's mtime, so repeated runs over an unchanged
config emit byte-identical cards.  A floored card states ``Schedule.card()``
and a ``floor_note``.

The machine-readable copy is JSON with infinities encoded as the string
"inf" (JSON proper has no infinity literal); ``card_from_json`` restores
exact float values, so a round trip reproduces the cutoffs bit-for-bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from .errors import ConfigError
from .floors import NO_CARD, Schedule
from .policy import MechanismParams, cutoffs, knife_edge

__all__ = ["RuleCard", "make_rule_card", "floor_note", "render_card_text", "card_to_json",
           "card_from_json"]


@dataclass(frozen=True)
class RuleCard:
    theta_lo: float
    theta_hi: float
    interior_slope: float
    b_bar: float
    T: float
    tau: float | None
    no_bailout: bool
    config_sha256: str
    config_path: str
    timestamp: str
    note: str = ""


def _timestamp_for(config_path: str) -> str:
    """UTC ISO timestamp from SOURCE_DATE_EPOCH, else the config's mtime."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            stamp = int(epoch)
        except ValueError:
            raise ConfigError(f"SOURCE_DATE_EPOCH must be an integer, got {epoch!r}") from None
    else:
        stamp = int(os.path.getmtime(config_path)) if os.path.exists(config_path) else 0
    return datetime.fromtimestamp(stamp, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def make_rule_card(
    params: MechanismParams,
    config_sha256: str,
    config_path: str,
    tau: float | None = None,
) -> RuleCard:
    cut = cutoffs(params)
    return RuleCard(
        theta_lo=cut.theta_lo,
        theta_hi=cut.theta_hi,
        interior_slope=params.interior_slope,
        b_bar=params.b_bar,
        T=params.T,
        tau=tau,
        no_bailout=knife_edge(params),
        config_sha256=config_sha256,
        config_path=config_path,
        timestamp=_timestamp_for(config_path),
    )


def floor_note(schedule: Schedule) -> str:
    """The floor, and whether the card's cutoffs include it ("" without one)."""
    f = schedule.floor
    if f is None:
        return ""
    if schedule.card() is None:
        return f"floor {f.name}: {NO_CARD}; the cutoffs are the unfloored rule's"
    return f"floor {f.name}: the cutoffs include it"


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else repr(x)


def render_card_text(card: RuleCard) -> str:
    lines = [
        "RULE CARD",
        "=========",
        f"status:         {'NO-BAILOUT (rule is identically zero)' if card.no_bailout else 'active'}",
        f"threshold T:    {_fmt(card.T)}",
        f"quota tau:      {_fmt(card.tau) if card.tau is not None else 'n/a (cap stated directly)'}",
        f"cap b_bar:      {_fmt(card.b_bar)}",
        f"theta_lo:       {_fmt(card.theta_lo)}",
        f"theta_hi:       {_fmt(card.theta_hi)}",
        f"interior slope: {_fmt(card.interior_slope)}",
        "",
        f"config sha256:  {card.config_sha256}",
        f"config path:    {card.config_path}",
        f"issued:         {card.timestamp}",
    ]
    if card.note:
        lines.append(f"note:           {card.note}")
    return "\n".join(lines) + "\n"


def _encode(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def card_to_json(card: RuleCard) -> str:
    payload = {k: _encode(v) for k, v in asdict(card).items()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def card_from_json(text: str) -> RuleCard:
    raw = json.loads(text)
    for key in ("theta_lo", "theta_hi", "interior_slope", "b_bar", "T", "tau"):
        if raw.get(key) in ("inf", "-inf"):
            raw[key] = math.inf if raw[key] == "inf" else -math.inf
    return RuleCard(**raw)
