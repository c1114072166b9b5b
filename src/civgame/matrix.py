"""Empirical matrix-game extraction and social dilemma classification.

Trained policies are first classed as cooperative or defecting by their
invasion rate (invasions per hundred moves). Frozen policy pairs then
play out the three matchups (coop vs coop, coop vs defect, defect vs
defect); the long-term per-step payoffs fill the R/P/S/T cells, and the
fear (P - S) and greed (T - R) incentives decide what kind of one-shot
game is embedded in the full environment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .agents import AgentKind, Hyperparams, QTable, epsilon_at
from .experiment import (
    AgentSetup,
    RunConfig,
    Variant,
    map_jobs,
    run_game,
    stream_seed,
    write_csv,
)
from .game import RewardConfig


class InsufficientDataError(ValueError):
    """Too few moves to yield a meaningful behavior metric."""


class PolicyClassificationError(ValueError):
    """A matchup input policy does not fall in the required class."""

    def __init__(
        self, coop_alpha: float, defect_alpha: float, thresholds: Thresholds
    ):
        super().__init__(
            f"policy classification failed: cooperative alpha={coop_alpha:.3f}, "
            f"defecting alpha={defect_alpha:.3f} "
            f"(thresholds {thresholds.alpha_c}/{thresholds.alpha_d})"
        )


class PolicyClass(Enum):
    COOPERATIVE = "cooperative"
    DEFECTING = "defecting"
    NEITHER = "neither"


class DilemmaClass(Enum):
    STAG_HUNT = "StagHunt"
    PRISONERS_DILEMMA = "PrisonersDilemma"
    NOT_SOCIAL_DILEMMA = "NotSocialDilemma"
    OTHER_DILEMMA = "OtherDilemma"


@dataclass(frozen=True)
class Thresholds:
    """Invasions-per-100-moves cutoffs splitting policies into classes."""

    alpha_c: float = 5.0
    alpha_d: float = 15.0

    def __post_init__(self) -> None:
        if not self.alpha_c < self.alpha_d:
            raise ValueError("alpha_c must be below alpha_d")


def alpha_from_counts(invasions: int, moves: int) -> float:
    """Invasions committed per hundred moves taken (ballots count as moves)."""
    if moves < 100:
        raise InsufficientDataError(f"need >= 100 moves, got {moves}")
    return 100.0 * invasions / moves


def classify_policy(alpha: float, thresholds: Thresholds) -> PolicyClass:
    if alpha < thresholds.alpha_c:
        return PolicyClass.COOPERATIVE
    if alpha > thresholds.alpha_d:
        return PolicyClass.DEFECTING
    return PolicyClass.NEITHER


@dataclass(frozen=True)
class PayoffMatrix:
    """Empirical R/P/S/T; the incentives and the class are read off them."""

    R: float
    P: float
    S: float
    T: float

    @property
    def fear(self) -> float:
        return self.P - self.S

    @property
    def greed(self) -> float:
        return self.T - self.R

    @property
    def classification(self) -> DilemmaClass:
        coop_preferred = self.R > self.P
        exploit_resistant = self.R > self.S
        efficient = 2 * self.R > self.T + self.S
        fear, greed = self.fear, self.greed
        if not (coop_preferred and exploit_resistant and efficient):
            return DilemmaClass.NOT_SOCIAL_DILEMMA
        if fear > 0 and greed > 0:
            return DilemmaClass.PRISONERS_DILEMMA
        if fear > 0:
            return DilemmaClass.STAG_HUNT
        if greed > 0:
            return DilemmaClass.OTHER_DILEMMA
        return DilemmaClass.NOT_SOCIAL_DILEMMA


@dataclass
class TrainedPolicy:
    """Seat-bound frozen tables plus the behavior stats that classify them."""

    tables: list[QTable]
    final_eps: float
    alpha: float


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs for the train/classify/matchup pipeline.

    The cooperative policy is an hq pair trained to convergence on the
    sovereign variant. The defecting policy is a plain Q pair frozen
    early, in the pre-convergence war regime of the base game: left to
    train long enough, independent Q-learners on this board settle into
    peaceful farming and stop classifying as defectors.
    """

    size: int = RunConfig.size
    players: int = 2
    train_steps: int = 250_000
    defect_train_steps: int = 20_000
    match_steps: int = 100_000
    match_trials: int = 15
    eval_steps: int = 20_000
    match_variant: Variant = Variant.BASE
    rewards: RewardConfig = field(default_factory=RewardConfig)
    hp: Hyperparams = field(default_factory=Hyperparams)
    thresholds: Thresholds = field(default_factory=Thresholds)
    seed: int = RunConfig.seed
    workers: int = RunConfig.workers

    def __post_init__(self) -> None:
        if self.players < 2:
            raise ValueError("matchups need at least 2 players")
        for name in (
            "train_steps", "defect_train_steps", "match_steps",
            "match_trials", "eval_steps", "workers",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def _match_config(
    cfg: AnalysisConfig,
    steps: int,
    variant: Variant,
    kind: AgentKind = AgentKind.QLEARNER,
) -> RunConfig:
    return RunConfig(
        size=cfg.size,
        players=cfg.players,
        total_steps=steps,
        bin_size=steps,
        trials=1,
        agent_kinds=(kind,) * cfg.players,
        rewards=cfg.rewards,
        hp=cfg.hp,
        seed=cfg.seed,
        variant=variant,
    )


def play_matchup(
    cfg: AnalysisConfig,
    tables: Sequence[QTable],
    eps_by_seat: Sequence[float],
    steps: int,
    seed: int,
    variant: Variant | None = None,
) -> tuple[list[float], list[int], list[int]]:
    """Frozen-policy play; returns (per-seat payoff/step, invasions, moves).

    The tables are only read, so they come back unchanged.
    """
    run_cfg = _match_config(cfg, steps, variant or cfg.match_variant)
    setups = [
        AgentSetup(AgentKind.QLEARNER, table=table, learn=False, fixed_eps=eps)
        for table, eps in zip(tables, eps_by_seat)
    ]
    result = run_game(run_cfg, seed, setups=setups)
    payoffs = [total / steps for total in result.rewards_per_player]
    return payoffs, result.invasions_per_player, result.moves_per_player


def train_policy(cfg: AnalysisConfig, kind: AgentKind) -> TrainedPolicy:
    """Self-play training, then a frozen self-play evaluation of the
    invasion rate in the same (native) environment."""
    # hq learners train and are classified in the sovereign game, since
    # their mechanisms live in the vote; every other kind in the base game
    if kind is AgentKind.HQLEARNER:
        variant, steps = Variant.SOVEREIGN, cfg.train_steps
    else:
        variant, steps = Variant.BASE, cfg.defect_train_steps
    result = run_game(
        _match_config(cfg, steps, variant, kind),
        stream_seed(cfg.seed, f"train:{kind.value}"),
        keep_tables=True,
    )
    tables = [t for t in result.tables if t is not None]
    final_eps = epsilon_at(steps, cfg.hp)
    _, invasions, moves = play_matchup(
        cfg,
        tables,
        [final_eps] * cfg.players,
        cfg.eval_steps,
        stream_seed(cfg.seed, f"eval:{kind.value}"),
        variant=variant,
    )
    alpha = alpha_from_counts(sum(invasions), sum(moves))
    return TrainedPolicy(tables=tables, final_eps=final_eps, alpha=alpha)


@dataclass
class AnalysisResult:
    """The per-trial matrices; the pooled figures are read off them."""

    per_trial: list[PayoffMatrix]

    @property
    def aggregate(self) -> PayoffMatrix:
        """Each cell's mean over the trials."""
        n = len(self.per_trial)
        return PayoffMatrix(
            sum(m.R for m in self.per_trial) / n,
            sum(m.P for m in self.per_trial) / n,
            sum(m.S for m in self.per_trial) / n,
            sum(m.T for m in self.per_trial) / n,
        )

    @property
    def class_counts(self) -> Counter[DilemmaClass]:
        return Counter(m.classification for m in self.per_trial)

    @property
    def stag_hunt_fraction(self) -> float:
        return self.class_counts[DilemmaClass.STAG_HUNT] / len(self.per_trial)


def _play_seating(
    cfg: AnalysisConfig, seatings: dict, job: tuple[str, int]
) -> list[float]:
    """Per-seat payoffs of one (seating name, seed) matchup job."""
    name, seed = job
    tables, eps_by_seat = seatings[name]
    payoffs, _, _ = play_matchup(cfg, tables, eps_by_seat, cfg.match_steps, seed)
    return payoffs


def run_payoff_trials(
    cfg: AnalysisConfig,
    coop: TrainedPolicy,
    defect: TrainedPolicy,
) -> AnalysisResult:
    """The three matchups, match_trials times; mixed runs both seatings.

    Tables are seat-bound (a state encodes who starts in which corner),
    so each table only ever plays in the seat it was trained in. The
    matchups only read the tables, so they run in up to cfg.workers
    processes with the same results.
    """
    if (
        classify_policy(coop.alpha, cfg.thresholds) is not PolicyClass.COOPERATIVE
        or classify_policy(defect.alpha, cfg.thresholds) is not PolicyClass.DEFECTING
    ):
        raise PolicyClassificationError(coop.alpha, defect.alpha, cfg.thresholds)

    eps_c, eps_d = coop.final_eps, defect.final_eps
    p = cfg.players
    half = p // 2  # seats 0..half-1 vs half..p-1, then swapped
    # per trial: each policy against itself, then the mixed pair in both
    # seat orders
    seatings = {
        "cc": (coop.tables, [eps_c] * p),
        "dd": (defect.tables, [eps_d] * p),
        "cd": (coop.tables[:half] + defect.tables[half:],
               [eps_c] * half + [eps_d] * (p - half)),
        "dc": (defect.tables[:half] + coop.tables[half:],
               [eps_d] * half + [eps_c] * (p - half)),
    }
    jobs = [
        (name, stream_seed(stream_seed(cfg.seed, f"match:{k}"), name))
        for k in range(cfg.match_trials)
        for name in seatings
    ]
    payoffs = map_jobs(_play_seating, jobs, cfg.workers, shared=(cfg, seatings))

    per_trial = []
    for k in range(cfg.match_trials):
        cc, dd, cd, dc = payoffs[4 * k:4 * k + 4]
        # across the two seatings each policy is observed once per seat
        R = sum(cc) / p
        P = sum(dd) / p
        S = (sum(cd[:half]) + sum(dc[half:])) / p
        T = (sum(dc[:half]) + sum(cd[half:])) / p
        per_trial.append(PayoffMatrix(R, P, S, T))
    return AnalysisResult(per_trial)


MATRIX_HEADER = ["trial", "R", "P", "S", "T", "fear", "greed", "classification"]


def write_matrix_csv(result: AnalysisResult, path: str) -> None:
    rows = [
        [k, m.R, m.P, m.S, m.T, m.fear, m.greed, m.classification.value]
        for k, m in enumerate(result.per_trial)
    ]
    a = result.aggregate
    rows.append(
        ["aggregate", a.R, a.P, a.S, a.T, a.fear, a.greed,
         result.stag_hunt_fraction]
    )
    write_csv(path, MATRIX_HEADER, rows)
