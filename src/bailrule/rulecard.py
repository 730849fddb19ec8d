"""Rule cards: the published commitment a later audit is checked against.

A card states the two cutoffs, the interior slope, the cap, the threshold,
and (when the cap comes from a legislature) the quota, plus provenance: the
config's sha256 and a timestamp.  The timestamp honors SOURCE_DATE_EPOCH and
otherwise uses the config file's mtime, so repeated runs over an unchanged
config emit byte-identical cards.  ``make_rule_card`` reads everything a card
publishes from a ``floors.Schedule``: the cutoffs of ``Schedule.rule`` (the
unfloored rule when the floored payout has no card), ``Schedule.no_bailout``,
and a note naming the floor and saying which cutoffs the card states.

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
from .policy import cutoffs

__all__ = ["RuleCard", "make_rule_card", "render_card_text", "card_to_json", "card_from_json"]


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


_ISO = "%Y-%m-%dT%H:%M:%SZ"


def _timestamp_for(config_path: str) -> str:
    """UTC ISO timestamp from SOURCE_DATE_EPOCH, else the config's mtime."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        stamp = int(os.path.getmtime(config_path)) if os.path.exists(config_path) else 0
        return datetime.fromtimestamp(stamp, tz=timezone.utc).strftime(_ISO)
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(_ISO)
    except (ValueError, OverflowError, OSError):
        raise ConfigError(
            f"SOURCE_DATE_EPOCH must be an integer Unix time in years 1-9999, got {epoch!r}"
        ) from None


def make_rule_card(
    schedule: Schedule,
    config_sha256: str,
    config_path: str,
    tau: float | None = None,
) -> RuleCard:
    rule, f = schedule.rule, schedule.floor
    note = "" if f is None else f"floor {f.name}: " + (
        "the cutoffs include it" if schedule.card() is not None
        else f"{NO_CARD}; the cutoffs are the unfloored rule's"
    )
    cut = cutoffs(rule)
    return RuleCard(
        theta_lo=cut.theta_lo,
        theta_hi=cut.theta_hi,
        interior_slope=rule.interior_slope,
        b_bar=rule.b_bar,
        T=rule.T,
        tau=tau,
        no_bailout=schedule.no_bailout,
        config_sha256=config_sha256,
        config_path=config_path,
        timestamp=_timestamp_for(config_path),
        note=note,
    )


def render_card_text(card: RuleCard) -> str:
    lines = [
        "RULE CARD",
        "=========",
        f"status:         {'NO-BAILOUT (rule is identically zero)' if card.no_bailout else 'active'}",
        f"threshold T:    {card.T!r}",
        f"quota tau:      {repr(card.tau) if card.tau is not None else 'n/a (cap stated directly)'}",
        f"cap b_bar:      {card.b_bar!r}",
        f"theta_lo:       {card.theta_lo!r}",
        f"theta_hi:       {card.theta_hi!r}",
        f"interior slope: {card.interior_slope!r}",
        "",
        f"config sha256:  {card.config_sha256}",
        f"config path:    {card.config_path}",
        f"issued:         {card.timestamp}",
    ]
    if card.note:
        lines.append(f"note:           {card.note}")
    return "\n".join(lines) + "\n"


def _encode(value):
    return repr(value) if isinstance(value, float) and math.isinf(value) else value


def card_to_json(card: RuleCard) -> str:
    payload = {k: _encode(v) for k, v in asdict(card).items()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def card_from_json(text: str) -> RuleCard:
    raw = json.loads(text)
    for key in ("theta_lo", "theta_hi", "interior_slope", "b_bar", "T", "tau"):
        if raw.get(key) in ("inf", "-inf"):
            raw[key] = math.inf if raw[key] == "inf" else -math.inf
    return RuleCard(**raw)
