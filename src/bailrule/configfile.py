"""Sectioned key-value config files, with line-precise diagnostics.

Format: ``[section]`` headers, ``key = value`` entries, ``#``/``;`` comments,
blank lines ignored.  Section names may carry an argument after the first
space (``[municipality north]``).  The parser keeps the line number of every
entry so validation errors can point at the offending line, which stdlib
configparser cannot do once parsing has succeeded.

The loader functions at the bottom turn parsed sections into every command's
inputs: mechanism parameters (cap and political cost optionally derived from
a legislature block), the published schedule, shock distributions, threshold
profiles, floors, [simulate] and [announced] settings, sweep plans and
allocation problems.  Config text is read, and its faults put on a line (the
refused key's, else the section's), only here.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .allocation import AllocationProblem
from .distributions import BetaShock, ShockDistribution, TruncatedExponentialShock, UniformShock
from .errors import ConfigError, ParameterError
from .floors import CustomFloor, EquityFloor, ParallelFloor, Schedule
from .policy import _PARAM_NAMES, MechanismParams, _check_theta_domain
from .voting import (
    DiscreteThreshold,
    PoliticalCostSpec,
    UniformThreshold,
    WeightProfile,
    bundle_check,
    consent_cap_analytic,
    political_cost,
)

__all__ = [
    "Section",
    "ConfigFile",
    "parse_config",
    "load_config",
    "build_mechanism",
    "build_quota",
    "build_distribution",
    "build_weight_profile",
    "build_floor",
    "build_schedule",
    "build_simulation",
    "build_announced",
    "build_sweep",
    "build_allocation_problem",
]


@dataclass
class Section:
    name: str
    line: int
    entries: dict = field(default_factory=dict)  # key -> (raw value, line)

    def get(self, key: str, default: str | None = None) -> str | None:
        if key in self.entries:
            return self.entries[key][0]
        return default

    def line_of(self, key: str) -> int:
        return self.entries[key][1] if key in self.entries else self.line


#: The keys each known section kind accepts; other kinds are not checked.
_KEYS = {
    "mechanism": set(_PARAM_NAMES),
    "legislature": {"w_beneficiary", "tau", "h_family", "h_lo", "h_hi", "h_atoms",
                    "h_masses", "lambda0", "lambda1", "salience"},
    "distribution": {"family", "rate", "a", "b"},
    "floor": {"type", "a", "theta_knots", "b_values"},
    "sweep": {"parameter", "start", "stop", "steps", "b_bar_start", "b_bar_stop"},
    "treasury": {"budget"},
    "municipality": {*_PARAM_NAMES, "theta"},
    "simulate": {"n", "override_shift", "screening_beta"},
    "announced": {"delta_omega_T", "delta_b_bar"},
}


@dataclass
class ConfigFile:
    path: str
    sections: list
    sha256: str

    def find(self, name: str) -> Section | None:
        for s in self.sections:
            if s.name == name:
                return self._checked(s, name)
        return None

    def _checked(self, sec: Section, kind: str) -> Section:
        """``sec`` itself, once every key in it is one that ``kind`` accepts."""
        allowed = _KEYS.get(kind)
        if allowed is not None and not sec.entries.keys() <= allowed:
            key = next(k for k in sec.entries if k not in allowed)
            raise self._err(sec.entries[key][1], f"unknown key '{key}' in [{sec.name}]")
        return sec

    def require(self, name: str) -> Section:
        sec = self.find(name)
        if sec is None:
            raise self._err(None, f"missing required [{name}] section")
        return sec

    def _err(self, line: int | None, msg: str) -> ConfigError:
        """``msg`` at ``path:line``, or at ``path`` when no line is to blame."""
        return ConfigError(f"{self.path}{'' if line is None else f':{line}'}: {msg}")

    def _number(self, sec: Section, key: str, text: str) -> float:
        """``text`` as a float; float() takes every spelling of inf, and nan
        is refused like any other non-number."""
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isnan(value):
            raise self._err(sec.line_of(key), f"'{key}' must be a number, got '{text}'")
        return value

    def _raw(self, sec: Section, key: str, required: bool) -> str | None:
        """The text of ``key``, or None when it is absent and not ``required``."""
        raw = sec.get(key)
        if raw is None and required:
            raise self._err(sec.line, f"[{sec.name}] is missing required key '{key}'")
        return raw

    def get_float(self, sec: Section, key: str, default: float | None = None,
                  *, finite: bool = False) -> float:
        """The number at ``key``, or ``default``; ``finite`` refuses +-inf too."""
        raw = self._raw(sec, key, default is None)
        value = default if raw is None else self._number(sec, key, raw)
        if finite and not math.isfinite(value):
            raise self._err(sec.line_of(key), f"'{key}' must be finite, got {value}")
        return value

    def get_int(self, sec: Section, key: str, default: int | None = None) -> int:
        raw = self._raw(sec, key, default is None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise self._err(sec.line_of(key), f"'{key}' must be an integer, got '{raw}'") from None

    def get_floats(self, sec: Section, key: str) -> list:
        raw = self._raw(sec, key, True)
        return [self._number(sec, key, part.strip()) for part in raw.split(",") if part.strip()]


def parse_config(text: str, path: str = "<config>") -> ConfigFile:
    """Parse config text; raises ConfigError with file:line on bad syntax."""
    sections: list = []
    current: Section | None = None
    # a line ends at \n, \r\n or \r, as in a universal-newline read; unlike
    # str.splitlines, form feed, U+2028 and the like do not end one
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{path}:{lineno}: unterminated section header '{raw}'")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            current = Section(name=name, line=lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{raw}'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: entry before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in current.entries:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key '{key}' in [{current.name}] "
                f"(first at line {current.entries[key][1]})"
            )
        current.entries[key] = (value.strip(), lineno)
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ConfigFile(path=path, sections=sections, sha256=sha)


def load_config(path) -> ConfigFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from None
    return parse_config(text, path=str(path))


@contextmanager
def _located(cfg: ConfigFile, sec: Section):
    """Re-raise a ParameterError from the block as a ConfigError in ``sec``:
    at a key's line when the error's text begins ``<key> must `` for a key
    of the section, else at the section header."""
    try:
        yield
    except ParameterError as exc:
        line = sec.line_of(str(exc).partition(" must ")[0])
        raise cfg._err(line, f"invalid [{sec.name}]: {exc}") from exc


def build_weight_profile(cfg: ConfigFile, T: float) -> WeightProfile | None:
    """WeightProfile from [legislature], or None when the section is absent."""
    sec = cfg.find("legislature")
    if sec is None:
        return None
    family = (sec.get("h_family") or "uniform").lower()
    with _located(cfg, sec):
        if family == "uniform":
            dist = UniformThreshold(
                cfg.get_float(sec, "h_lo", 0.0), cfg.get_float(sec, "h_hi")
            )
        elif family == "discrete":
            dist = DiscreteThreshold(
                cfg.get_floats(sec, "h_atoms"), cfg.get_floats(sec, "h_masses")
            )
        else:
            raise cfg._err(sec.line_of("h_family"), f"unknown h_family '{family}' "
                           "(expected uniform or discrete)")
        return WeightProfile(
            w_beneficiary=cfg.get_float(sec, "w_beneficiary"),
            tau=cfg.get_float(sec, "tau"),
            threshold_dist=dist,
            T=T,
        )


def _derived_omega_T(cfg: ConfigFile) -> float | None:
    sec = cfg.find("legislature")
    if sec is None or sec.get("lambda0") is None:
        return None
    with _located(cfg, sec):
        spec = PoliticalCostSpec(
            lambda0=cfg.get_float(sec, "lambda0", finite=True),
            lambda1=cfg.get_float(sec, "lambda1", 0.0, finite=True),
        )
    omega_T = political_cost(spec, cfg.get_float(sec, "salience", 0.0, finite=True))
    if omega_T < 0:
        raise cfg._err(sec.line_of("salience"), f"salience gives omega_T = {omega_T} < 0")
    return omega_T


def _cap_profile(cfg: ConfigFile, sec: Section, T: float) -> WeightProfile | None:
    """The legislature the cap is derived from; None when ``sec`` states b_bar."""
    if sec.get("b_bar") is not None:
        return None
    with _located(cfg, sec):  # T is sec's key; the WeightProfile would cite [legislature]
        if not T >= 0:
            raise ParameterError(f"T must be >= 0, got {T}")
    profile = build_weight_profile(cfg, T)
    if profile is None:
        raise cfg._err(sec.line, "b_bar missing and no [legislature] "
                       "section to derive the consent cap from")
    return profile


def build_quota(cfg: ConfigFile, T: float) -> float | None:
    """The quota tau that [mechanism]'s cap is derived from, or None when the
    cap is stated directly (a [legislature] then sets no cap)."""
    profile = _cap_profile(cfg, cfg.require("mechanism"), T)
    return None if profile is None else profile.tau


def build_mechanism(cfg: ConfigFile) -> MechanismParams:
    """MechanismParams from [mechanism], deriving omega_T and b_bar from the
    legislature block when they are not stated directly."""
    sec = cfg.require("mechanism")
    T = cfg.get_float(sec, "T")
    omega_T = (
        cfg.get_float(sec, "omega_T")
        if sec.get("omega_T") is not None
        else _derived_omega_T(cfg)
    )
    if omega_T is None:
        raise cfg._err(sec.line, "omega_T missing and no [legislature] "
                       "lambda0/lambda1 to derive it from")
    profile = _cap_profile(cfg, sec, T)
    b_bar = cfg.get_float(sec, "b_bar") if profile is None else consent_cap_analytic(profile)
    resolved = {"omega_T": omega_T, "T": T, "b_bar": b_bar}
    with _located(cfg, sec):
        return MechanismParams(
            *(resolved[k] if k in resolved else cfg.get_float(sec, k) for k in _PARAM_NAMES)
        )


def build_distribution(cfg: ConfigFile, params: MechanismParams) -> ShockDistribution:
    """ShockDistribution from [distribution]; defaults to uniform on the support."""
    sec = cfg.find("distribution")
    family = (sec.get("family") or "uniform").lower() if sec else "uniform"
    with _located(cfg, sec):
        if family == "uniform":
            return UniformShock(params.theta_bar)
        if family == "truncexpon":
            return TruncatedExponentialShock(cfg.get_float(sec, "rate"), params.theta_bar)
        if family == "beta":
            return BetaShock(
                cfg.get_float(sec, "a"), cfg.get_float(sec, "b"), params.theta_bar
            )
    raise cfg._err(sec.line_of("family"), f"unknown distribution family '{family}' "
                   "(expected uniform, truncexpon, or beta)")


def build_floor(cfg: ConfigFile) -> EquityFloor | None:
    """Equity floor from [floor], or None when absent."""
    sec = cfg.find("floor")
    if sec is None:
        return None
    kind = (sec.get("type") or "").lower()
    with _located(cfg, sec):
        if kind == "parallel":
            return ParallelFloor(cfg.get_float(sec, "a"))
        if kind == "custom":
            return CustomFloor(
                tuple(cfg.get_floats(sec, "theta_knots")),
                tuple(cfg.get_floats(sec, "b_values")),
            )
    raise cfg._err(sec.line, f"[floor] type must be 'parallel' or 'custom', got '{kind}'")


def build_schedule(cfg: ConfigFile) -> Schedule:
    """The published payout: [mechanism]'s rule raised to [floor]'s floor; a
    floor the rule refuses (one above its cap) is cited at [floor]."""
    params, floor = build_mechanism(cfg), build_floor(cfg)
    with _located(cfg, cfg.find("floor")):
        return Schedule(params, floor)


def build_simulation(cfg: ConfigFile) -> tuple:
    """[simulate]'s (n, override_shift, screening_beta), (100, 0.0, inf) without it."""
    sec = cfg.find("simulate")
    if sec is None:
        return 100, 0.0, math.inf
    n = cfg.get_int(sec, "n", 100)
    if n < 1:
        raise cfg._err(sec.line_of("n"), f"simulate n must be >= 1, got {n}")
    override_shift = cfg.get_float(sec, "override_shift", 0.0, finite=True)
    beta = cfg.get_float(sec, "screening_beta", math.inf)
    if not beta >= 0:
        raise cfg._err(sec.line_of("screening_beta"), f"screening_beta must be >= 0, got {beta}")
    return n, override_shift, beta


def build_announced(cfg: ConfigFile, regimes: int) -> tuple | None:
    """[announced]'s (delta_omega_T, delta_b_bar), or None; a claim needs ``regimes`` == 2."""
    sec = cfg.find("announced")
    if sec is None:
        return None
    if regimes != 2:
        raise cfg._err(sec.line, "[announced] needs two --data files (before and after)")
    return (cfg.get_float(sec, "delta_omega_T", 0.0, finite=True),
            cfg.get_float(sec, "delta_b_bar", 0.0, finite=True))


#: Each sweep parameter and the (section, key) of the config entry it sets.
SWEEPABLE = {"omega_T": ("mechanism", "omega_T"), "b_bar": ("mechanism", "b_bar"),
             "T": ("mechanism", "T"), "tau": ("legislature", "tau"),
             "w_B": ("legislature", "w_beneficiary")}


@dataclass(frozen=True)
class SweepPlan:
    """``rules[i]`` is the rule the config resolves with the swept entry at ``values[i]``."""

    parameter: str
    values: tuple
    rules: tuple


def build_sweep(cfg: ConfigFile) -> SweepPlan:
    """Sweep plan from [sweep]: parameter, finite start/stop, steps, optional
    coupled cap.  A step's rule is ``build_mechanism`` of the config with the
    swept entry (and the coupled cap) set to the step's value, so a cap
    derived from [legislature] moves with T, tau and w_B; tau and w_B need it.
    Refusals (no such cap, a coupled step that raises omega_T while loosening
    the cap, a value the rule refuses) name a [sweep] line."""
    sec = cfg.require("sweep")
    parameter = sec.get("parameter")
    if parameter not in SWEEPABLE:
        raise cfg._err(sec.line_of("parameter"), f"parameter must be one of "
                       f"{', '.join(SWEEPABLE)}, got '{parameter}'")
    where = SWEEPABLE[parameter]
    if where[0] == "legislature" and (cfg.require("mechanism").get("b_bar") is not None
                                      or cfg.find("legislature") is None):
        raise cfg._err(sec.line_of("parameter"), f"sweeping {parameter} needs a cap "
                       "derived from [legislature] (no b_bar in [mechanism])")

    def ramp(lo_key: str, hi_key: str) -> tuple:
        lo = cfg.get_float(sec, lo_key, finite=True)
        hi = cfg.get_float(sec, hi_key, finite=True)
        steps = cfg.get_int(sec, "steps")
        if steps < 2:
            raise cfg._err(sec.line_of("steps"), "steps must be >= 2")
        return tuple(lo + (hi - lo) * i / (steps - 1) for i in range(steps))

    values = ramp("start", "stop")
    sets = [{where: v} for v in values]
    if sec.get("b_bar_start") is not None or sec.get("b_bar_stop") is not None:
        if parameter != "omega_T":
            raise cfg._err(sec.line, "a coupled b_bar schedule is only valid when "
                           "sweeping omega_T")
        pairs = list(zip(values, ramp("b_bar_start", "b_bar_stop")))
        for (v0, c0), (v1, c1) in zip(pairs, pairs[1:]):
            if not bundle_check((v0, c0), (v1, c1)):
                raise cfg._err(sec.line, f"coupled sweep refused: step omega_T {v0:.6g} -> "
                               f"{v1:.6g} raises the political cost while loosening the cap "
                               f"{c0:.6g} -> {c1:.6g}; institutional shifts must move these "
                               "together")
        sets = [{where: v, ("mechanism", "b_bar"): cap} for v, cap in pairs]
    rules = []
    for v, entries in zip(values, sets):
        step_cfg = replace(cfg, sections=[replace(s, entries=dict(s.entries))
                                          for s in cfg.sections])
        for (name, key), x in entries.items():
            step_cfg.find(name).entries[key] = (repr(x), sec.line)
        try:
            rules.append(build_mechanism(step_cfg))
        except ConfigError as exc:
            if not isinstance(exc.__cause__, ParameterError):
                raise
            build_mechanism(cfg)  # a fault of the config's own entries is reported as such
            raise cfg._err(
                sec.line, f"sweep value {v} invalid for {parameter}: {exc.__cause__}"
            ) from None
    return SweepPlan(parameter, values, tuple(rules))


def build_allocation_problem(cfg: ConfigFile) -> tuple[AllocationProblem, list]:
    """AllocationProblem from [treasury] + [municipality NAME] sections.

    Returns the problem plus the municipality names in section order.
    """
    treasury = cfg.require("treasury")
    budget = cfg.get_float(treasury, "budget")
    names = []
    munis = []
    for sec in cfg.sections:
        if not sec.name.startswith("municipality"):
            continue
        name = sec.name[len("municipality"):].strip() or f"#{len(names) + 1}"
        with _located(cfg, cfg._checked(sec, "municipality")):
            p = MechanismParams(*(cfg.get_float(sec, key) for key in _PARAM_NAMES))
            theta = cfg.get_float(sec, "theta")
            _check_theta_domain(theta, p)
        names.append(name)
        munis.append((p, theta))
    if not munis:
        raise cfg._err(None, "no [municipality ...] sections found")
    with _located(cfg, treasury):
        return AllocationProblem(tuple(munis), budget), names
