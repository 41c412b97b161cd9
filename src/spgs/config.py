"""Run configuration: `[section] key = value` text format with validation,
defaults, environment overrides and a round-trip renderer."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .nonlinearity import Nonlinearity, canonical_family
from .sp_solver import SolverOptions

DEFAULT_SCHEDULE = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)

ENV_PREFIX = "SPGS_"


class ConfigError(ValueError):
    """Configuration diagnostic with a line number where applicable."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class RunConfig:
    mu: float = 1.0
    q: float = 4.0
    critical_weight: float = 0.0
    R: float = 30.0
    n: int = 3000
    tol: float = 1e-8
    lambdas: tuple[float, ...] = DEFAULT_SCHEDULE
    directory: str = "out"
    emit_profiles: bool = False
    seed: int = 12345

    def nonlinearity(self) -> Nonlinearity:
        return canonical_family(self.mu, self.q, self.critical_weight)

    def solver_options(self) -> SolverOptions:
        return SolverOptions(tol=self.tol)


# (section, key) -> (attribute, parser)
def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"{s.strip()!r} is not a finite number")
    return x


def _parse_lambdas(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(x) for x in s.replace(",", " ").split())


_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("nonlinearity", "mu"): ("mu", _parse_float),
    ("nonlinearity", "q"): ("q", _parse_float),
    ("nonlinearity", "critical_weight"): ("critical_weight", _parse_float),
    ("grid", "R"): ("R", _parse_float),
    ("grid", "n"): ("n", int),
    ("solver", "tol"): ("tol", _parse_float),
    ("schedule", "lambdas"): ("lambdas", _parse_lambdas),
    ("output", "directory"): ("directory", str),
    ("output", "emit_profiles"): ("emit_profiles", _parse_bool),
    ("output", "seed"): ("seed", int),
}

_SECTIONS = sorted({s for s, _ in _SCHEMA})

# value formats of render_config by parser; the others print with str
_RENDER = {_parse_float: repr, _parse_lambdas: lambda xs: ", ".join(repr(x) for x in xs)}


def validate(cfg: RunConfig) -> RunConfig:
    """Check every field against the preconditions of the consuming modules."""
    if not cfg.mu > 0:
        raise ConfigError(
            f"mu = {cfg.mu} out of range: the existence threshold requires mu > 0"
        )
    if not 2.0 < cfg.q < 6.0:
        raise ConfigError(
            f"q = {cfg.q} out of range: the subcritical exponent must lie in (2, 6)"
        )
    if not 0.0 <= cfg.critical_weight <= 1.0:
        raise ConfigError(
            f"critical_weight = {cfg.critical_weight} out of range [0, 1]"
        )
    if not cfg.R > 0:
        raise ConfigError(f"grid R = {cfg.R} must be positive")
    if cfg.n < 16:
        raise ConfigError(f"grid n = {cfg.n} must be at least 16")
    if not cfg.tol > 0:
        raise ConfigError(f"solver tol = {cfg.tol} must be positive")
    if not cfg.lambdas:
        raise ConfigError("schedule must contain at least one coupling value")
    if any(x < 0 for x in cfg.lambdas):
        raise ConfigError("schedule entries must be nonnegative")
    if any(b >= a for a, b in zip(cfg.lambdas, cfg.lambdas[1:])):
        raise ConfigError("schedule must be strictly decreasing")
    if cfg.seed < 0:
        raise ConfigError(f"output seed = {cfg.seed} must be nonnegative")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse `[section] key = value` text into a validated RunConfig."""
    cfg = RunConfig()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            attr, parser = _SCHEMA[(section, key)]
        except KeyError:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", line=lineno)
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}", line=lineno)
        cfg = replace(cfg, **{attr: parsed})
    try:
        return validate(cfg)
    except ConfigError as exc:
        raise ConfigError(str(exc)) from None


def apply_env_overrides(cfg: RunConfig, environ=None) -> RunConfig:
    """Apply SPGS_<SECTION>_<KEY> environment variable overrides."""
    environ = os.environ if environ is None else environ
    for (section, key), (attr, parser) in _SCHEMA.items():
        name = f"{ENV_PREFIX}{section.upper()}_{key.upper()}"
        if name in environ:
            try:
                cfg = replace(cfg, **{attr: parser(environ[name])})
            except ValueError as exc:
                raise ConfigError(f"bad value in {name}: {exc}")
    return validate(cfg)


def render_config(cfg: RunConfig) -> str:
    """Canonical text form in the key order of _SCHEMA; parse(render(cfg)) == cfg."""
    lines: list[str] = []
    for (section, key), (attr, parser) in _SCHEMA.items():
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"] if lines else [f"[{section}]"]
        lines.append(f"{key} = {_RENDER.get(parser, str)(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"
