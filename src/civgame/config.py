"""Flat key=value config files driving the CLI.

One `key=value` pair per line, `#` starts a comment, blank lines are
ok. Unknown and repeated keys are a hard error; missing keys take the
documented defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .agents import AgentKind, Hyperparams
from .experiment import RunConfig, Variant
from .game import MAX_PLAYERS, RewardConfig
from .matrix import AnalysisConfig, Thresholds


class ConfigError(ValueError):
    """Bad config file content; the message names the offending line."""

    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"line {line_no}: {message}: {line!r}")


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
    "invasion_bonus": (int, _RUN.rewards.invasion_bonus),
    "invasion_penalty": (int, _RUN.rewards.invasion_penalty),
    "vote_bonus": (int, _RUN.rewards.vote_bonus),
    "vote_penalty": (int, _RUN.rewards.vote_penalty),
    "alpha": (float, _RUN.hp.alpha),
    "gamma": (float, _RUN.hp.gamma),
    "eps0": (float, _RUN.hp.eps0),
    "eps_decay": (float, _RUN.hp.eps_decay),
    "alpha_c": (float, _ANALYSIS.thresholds.alpha_c),
    "alpha_d": (float, _ANALYSIS.thresholds.alpha_d),
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


@dataclass(frozen=True)
class ResolvedConfig:
    """A parsed config's fully defaulted settings, keyed as in SCHEMA,
    with the run, analysis, reward and learning configs built from them."""

    settings: dict[str, Any]

    def run_config(self) -> RunConfig:
        s = self.settings
        if not 1 <= s["players"] <= MAX_PLAYERS:
            raise ValueError(
                f"players must be in 1..{MAX_PLAYERS}, got {s['players']}"
            )
        kinds = tuple(s[f"agent{i}"] for i in range(s["players"]))
        return RunConfig(
            size=s["board_size"],
            players=s["players"],
            total_steps=s["total_steps"],
            bin_size=s["bin"],
            trials=s["trials"],
            agent_kinds=kinds,
            rewards=self.reward_config(),
            hp=self.hyperparams(),
            seed=s["seed"],
            variant=s["variant"],
            workers=s["workers"],
        )

    def reward_config(self) -> RewardConfig:
        s = self.settings
        return RewardConfig(
            invasion_bonus=s["invasion_bonus"],
            invasion_penalty=s["invasion_penalty"],
            vote_bonus=s["vote_bonus"],
            vote_penalty=s["vote_penalty"],
        )

    def hyperparams(self) -> Hyperparams:
        s = self.settings
        return Hyperparams(
            alpha=s["alpha"], gamma=s["gamma"],
            eps0=s["eps0"], eps_decay=s["eps_decay"],
        )

    def analysis_config(self) -> AnalysisConfig:
        s = self.settings
        return AnalysisConfig(
            size=s["board_size"],
            players=s["match_players"],
            train_steps=s["train_steps"],
            defect_train_steps=s["defect_train_steps"],
            match_steps=s["match_steps"],
            match_trials=s["match_trials"],
            eval_steps=s["eval_steps"],
            match_variant=s["match_variant"],
            rewards=self.reward_config(),
            hp=self.hyperparams(),
            thresholds=Thresholds(alpha_c=s["alpha_c"], alpha_d=s["alpha_d"]),
            seed=s["seed"],
            workers=s["workers"],
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
