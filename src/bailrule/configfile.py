"""Sectioned key-value config files, with line-precise diagnostics.

Format: ``[section]`` headers, ``key = value`` entries, ``#``/``;`` comments,
blank lines ignored.  Section names may carry an argument after the first
space (``[municipality north]``).  The parser keeps the line number of every
entry so validation errors can point at the offending line, which stdlib
configparser cannot do once parsing has succeeded.

The loader functions at the bottom turn parsed sections into domain objects:
mechanism parameters (with the cap and political cost optionally derived
from a legislature block), shock distributions, threshold profiles, floors,
sweep plans, and allocation problems.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .allocation import AllocationProblem
from .distributions import BetaShock, ShockDistribution, TruncatedExponentialShock, UniformShock
from .errors import ConfigError, ParameterError
from .floors import CustomFloor, EquityFloor, ParallelFloor
from .policy import _PARAM_NAMES, MechanismParams
from .voting import (
    DiscreteThreshold,
    PoliticalCostSpec,
    UniformThreshold,
    WeightProfile,
    consent_cap_analytic,
    political_cost,
)

__all__ = [
    "Section",
    "ConfigFile",
    "parse_config",
    "load_config",
    "build_mechanism",
    "build_distribution",
    "build_weight_profile",
    "build_floor",
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
            raise ConfigError(f"{self.path}: missing required [{name}] section")
        return sec

    def _err(self, line: int, msg: str) -> ConfigError:
        return ConfigError(f"{self.path}:{line}: {msg}")

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

    def get_float(self, sec: Section, key: str, default: float | None = None) -> float:
        raw = self._raw(sec, key, default is None)
        return default if raw is None else self._number(sec, key, raw)

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
    """Re-raise a ParameterError from the block as a ConfigError at ``sec``."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(f"{cfg.path}:{sec.line}: invalid [{sec.name}]: {exc}") from None


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
            raise ConfigError(
                f"{cfg.path}:{sec.line_of('h_family')}: unknown h_family '{family}' "
                "(expected uniform or discrete)"
            )
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
            lambda0=cfg.get_float(sec, "lambda0"),
            lambda1=cfg.get_float(sec, "lambda1", 0.0),
        )
        return political_cost(spec, cfg.get_float(sec, "salience", 0.0))


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
        raise ConfigError(
            f"{cfg.path}:{sec.line}: omega_T missing and no [legislature] "
            "lambda0/lambda1 to derive it from"
        )
    if sec.get("b_bar") is not None:
        b_bar = cfg.get_float(sec, "b_bar")
    else:
        profile = build_weight_profile(cfg, T)
        if profile is None:
            raise ConfigError(
                f"{cfg.path}:{sec.line}: b_bar missing and no [legislature] "
                "section to derive the consent cap from"
            )
        b_bar = consent_cap_analytic(profile)
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
    raise ConfigError(
        f"{cfg.path}:{sec.line_of('family')}: unknown distribution family '{family}' "
        "(expected uniform, truncexpon, or beta)"
    )


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
    raise ConfigError(
        f"{cfg.path}:{sec.line}: [floor] type must be 'parallel' or 'custom', got '{kind}'"
    )


SWEEPABLE = ("omega_T", "b_bar", "T", "tau", "w_B")


@dataclass(frozen=True)
class SweepPlan:
    parameter: str
    values: tuple
    coupled_b_bar: tuple | None = None  # only with parameter == omega_T


def build_sweep(cfg: ConfigFile) -> SweepPlan:
    """Sweep plan from [sweep]: parameter, finite start/stop, steps, optional coupled cap."""
    sec = cfg.require("sweep")
    parameter = sec.get("parameter")
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"{cfg.path}:{sec.line_of('parameter')}: parameter must be one of "
            f"{', '.join(SWEEPABLE)}, got '{parameter}'"
        )

    def ramp(lo_key: str, hi_key: str) -> tuple:
        lo, hi = cfg.get_float(sec, lo_key), cfg.get_float(sec, hi_key)
        for key, value in ((lo_key, lo), (hi_key, hi)):
            if not math.isfinite(value):
                raise cfg._err(sec.line_of(key), f"'{key}' must be finite, got {value}")
        steps = cfg.get_int(sec, "steps")
        if steps < 2:
            raise cfg._err(sec.line_of("steps"), "steps must be >= 2")
        return tuple(lo + (hi - lo) * i / (steps - 1) for i in range(steps))

    values = ramp("start", "stop")
    coupled = None
    if sec.get("b_bar_start") is not None or sec.get("b_bar_stop") is not None:
        if parameter != "omega_T":
            raise ConfigError(
                f"{cfg.path}:{sec.line}: a coupled b_bar schedule is only valid "
                "when sweeping omega_T"
            )
        coupled = ramp("b_bar_start", "b_bar_stop")
    return SweepPlan(parameter=parameter, values=values, coupled_b_bar=coupled)


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
        names.append(name)
        munis.append((p, theta))
    if not munis:
        raise ConfigError(f"{cfg.path}: no [municipality ...] sections found")
    with _located(cfg, treasury):
        return AllocationProblem(tuple(munis), budget), names
