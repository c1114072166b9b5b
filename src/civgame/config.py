"""Flat key=value config files driving the CLI.

One `key=value` pair per line, `#` starts a comment, blank lines are
ok. Unknown and repeated keys are a hard error; missing keys take the
documented defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable

from .agents import AgentKind, Hyperparams
from .experiment import RunConfig, Variant
from .game import RewardConfig, check_board_size, check_players
from .matrix import AnalysisConfig, check_match_players


class ConfigError(ValueError):
    """Bad config file content; the message names the offending line."""

    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"line {line_no}: {message}: {line!r}")


def _check_key(settings: dict[str, Any], key: str, check: Callable) -> None:
    """check(settings[key]), with the key named in its error."""
    try:
        check(settings[key])
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _enum_parser(enum: type[Enum], what: str) -> Callable[[str], Any]:
    """A parser of `enum`'s values that names all of them on a miss."""
    names = "|".join(member.value for member in enum)

    def parse(text: str) -> Any:
        try:
            return enum(text)
        except ValueError:
            raise ValueError(f"{what} must be one of {names}, got {text!r}")

    return parse


_parse_variant = _enum_parser(Variant, "variant")
_parse_agent = _enum_parser(AgentKind, "agent kind")


_RUN = RunConfig()
_ANALYSIS = AnalysisConfig()

# key -> (parser, default); the defaults are the dataclasses' own
SCHEMA: dict[str, tuple[Callable[[str], Any], Any]] = {
    "board_size": (int, _RUN.size),
    "players": (int, _RUN.players),
    "total_steps": (int, _RUN.total_steps),
    "bin": (int, _RUN.bin_size),
    "trials": (int, _RUN.trials),
    "seed": (int, _RUN.seed),
    "variant": (_parse_variant, _RUN.variant),
    **{
        f"agent{i}": (_parse_agent, kind)
        for i, kind in enumerate(_RUN.agent_kinds)
    },
    # the reward and learning keys are RewardConfig's and Hyperparams' fields
    **{f.name: (int, f.default) for f in fields(RewardConfig)},
    **{f.name: (float, f.default) for f in fields(Hyperparams)},
    "alpha_c": (float, _ANALYSIS.alpha_c),
    "alpha_d": (float, _ANALYSIS.alpha_d),
    "workers": (int, _RUN.workers),
    # matrix-analysis pipeline
    "train_steps": (int, _ANALYSIS.train_steps),
    "defect_train_steps": (int, _ANALYSIS.defect_train_steps),
    "match_steps": (int, _ANALYSIS.match_steps),
    "match_trials": (int, _ANALYSIS.match_trials),
    "eval_steps": (int, _ANALYSIS.eval_steps),
    "match_players": (int, _ANALYSIS.players),
    "match_variant": (_parse_variant, _ANALYSIS.match_variant),
}


def parse_config(path: str | None) -> dict[str, Any]:
    """Read a config file into a fully defaulted settings dict."""
    settings = {key: default for key, (_, default) in SCHEMA.items()}
    if path is None:
        return settings
    set_on: dict[str, int] = {}  # key -> the line that set it
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"config {path} is not UTF-8 text: {exc}")
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected key=value", line_no, raw.rstrip("\n"))
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in SCHEMA:
                raise ConfigError(f"unknown key {key!r}", line_no, raw.rstrip("\n"))
            if key in set_on:
                raise ConfigError(
                    f"key {key!r} was already set on line {set_on[key]}",
                    line_no,
                    raw.rstrip("\n"),
                )
            set_on[key] = line_no
            parser, _ = SCHEMA[key]
            try:
                settings[key] = parser(value)
            except ValueError as exc:
                raise ConfigError(str(exc), line_no, raw.rstrip("\n"))
    return settings


def _build(
    cls: type, settings: dict[str, Any], renamed: dict[str, str], **given: Any
) -> Any:
    """cls with each field not given set from the key of its name, or
    from the key renamed[field]; an error that starts with a renamed
    field's name is prefixed with its key."""
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = settings[renamed.get(f.name, f.name)]
    try:
        return cls(**given)
    except ValueError as exc:
        key = renamed.get(str(exc).partition(" ")[0])
        if key is None:
            raise
        raise ValueError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class ResolvedConfig:
    """A parsed config's fully defaulted settings, keyed as in SCHEMA,
    with the run and analysis configs built from them. Each key sets the
    field of its name, but for board_size (size), bin (bin_size),
    match_players (AnalysisConfig.players) and players with the agentN
    keys (RunConfig.agent_kinds)."""

    settings: dict[str, Any]

    def run_config(self) -> RunConfig:
        s = self.settings
        # the seat count is checked before the agentN keys are read, since
        # there is no agent4 key; RunConfig checks both again once built
        _check_key(s, "players", check_players)
        _check_key(s, "board_size", check_board_size)
        kinds = tuple(s[f"agent{i}"] for i in range(s["players"]))
        return _build(
            RunConfig, s, {"size": "board_size", "bin_size": "bin"},
            agent_kinds=kinds,
            rewards=_build(RewardConfig, s, {}), hp=_build(Hyperparams, s, {}),
        )

    def analysis_config(self) -> AnalysisConfig:
        s = self.settings
        # AnalysisConfig checks both again, in messages without the key
        _check_key(s, "match_players", check_match_players)
        _check_key(s, "board_size", check_board_size)
        return _build(
            AnalysisConfig, s, {"size": "board_size", "players": "match_players"},
            rewards=_build(RewardConfig, s, {}), hp=_build(Hyperparams, s, {}),
        )

    def manifest(self) -> str:
        """Deterministic key=value dump of the resolved settings."""
        lines = []
        for key in sorted(self.settings):
            value = self.settings[key]
            if isinstance(value, (Variant, AgentKind)):
                value = value.value
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


def load_config(path: str | None, seed_override: int | None = None) -> ResolvedConfig:
    settings = parse_config(path)
    if seed_override is not None:
        settings["seed"] = seed_override
    return ResolvedConfig(settings)
