"""Simulation loop, metric binning, and multi-trial aggregation.

A "step" is one turn: a single player's move, or one vote move in the
sovereign variant. Rewards are integer points throughout so that the sum
paid out by the environment can be compared exactly against the binned
collective score.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Sequence

from .agents import (
    AgentKind,
    Hyperparams,
    NUM_ACTIONS,
    QTable,
    ola_broadcast,
    q_update,
    select_action,
)
from .game import (
    BOARD_OFFSET,
    Action,
    UNOWNED,
    RewardConfig,
    corner_cells,
    encode_state,
    initial_state,
    key_offsets,
    neighbours,
    occupied_cell,
    territory_cell,
)
from .sovereign import vote_succeeds

# The GameState rules that run_game applies to the key bytes. perfbench's
# tracer looks these names up here as layer sites (perfbench/sites.py).
from .game import is_invasion, legal_actions, reward, transition  # noqa: F401
from .sovereign import (  # noqa: F401
    consume_flag,
    sovereign_legal_actions,
    sovereign_reward,
    sovereign_transition,
)


class Variant(Enum):
    BASE = "base"
    SOVEREIGN = "sovereign"


@dataclass(frozen=True)
class RunConfig:
    """A simulate run: `trials` seeded trials of total_steps turns each,
    in bins of bin_size turns, with one agent kind per seat."""

    size: int = 4
    players: int = 4
    total_steps: int = 250_000
    bin_size: int = 2_500
    trials: int = 3
    agent_kinds: tuple[AgentKind, ...] = (AgentKind.HQLEARNER,) * 4
    rewards: RewardConfig = field(default_factory=RewardConfig)
    hp: Hyperparams = field(default_factory=Hyperparams)
    seed: int = 1
    variant: Variant = Variant.SOVEREIGN
    workers: int = 1

    def __post_init__(self) -> None:
        if self.bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.total_steps % self.bin_size != 0:
            raise ValueError("bin_size must divide total_steps")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.agent_kinds) != self.players:
            raise ValueError(
                f"need {self.players} agent kinds, got {len(self.agent_kinds)}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True, slots=True)
class MoveRecord:
    """One ordinary turn; invaded_sample >= 0 marks a CI sampling point."""

    step: int
    player: int
    key: bytes
    action: Action
    reward: int
    invasion: bool
    invaded_sample: int = -1


@dataclass(frozen=True, slots=True)
class VoteRecord:
    """One vote move: every player casts a ballot and is paid at once."""

    step: int
    key: bytes
    ballots: tuple[Action, ...]
    rewards: tuple[int, ...]
    success: bool
    invaded_sample: int


@dataclass
class MetricsBin:
    """The bin_size turns from bin_start: their collective score (cs_sum),
    invasions, passed votes, and each seat's count of each action."""

    bin_start: int
    bin_size: int
    players: int
    cs_sum: int = 0
    invasions: int = 0
    successful_defers: int = 0
    action_counts: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.action_counts:
            self.action_counts = [[0] * NUM_ACTIONS for _ in range(self.players)]

    @property
    def cs_avg(self) -> float:
        return self.cs_sum / self.bin_size


@dataclass
class AgentSetup:
    """Per-seat runner wiring; `table=None` with a learning kind means fresh.

    Every kind but random learns; hq learners also broadcast their updates
    and learn from vote payouts. A seat with `learn=False` plays frozen:
    it makes no updates, so its table is left as it was.
    """

    kind: AgentKind
    table: QTable | None = None
    learn: bool = True
    fixed_eps: float | None = None


@dataclass
class RunResult:
    """One run_game trial: its bins, per-seat totals, and the Q-tables
    and step trace when run_game is asked to keep them."""

    bins: list[MetricsBin]
    rewards_per_player: list[int]
    invasions_per_player: list[int]
    tables: list[QTable | None] | None = None
    trace: list[MoveRecord | VoteRecord] | None = None

    @property
    def total_reward(self) -> int:
        """Everything the environment paid out, summed over the seats."""
        return sum(self.rewards_per_player)

    @property
    def moves_per_player(self) -> list[int]:
        """Each seat's moves, ballots included: its action counts summed."""
        return [
            sum(sum(b.action_counts[i]) for b in self.bins)
            for i in range(len(self.rewards_per_player))
        ]


def stream_seed(trial_seed: int, label: str) -> int:
    """Stable per-stream seed, independent of platform hash randomization."""
    digest = hashlib.sha256(f"{trial_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def agent_rng(trial_seed: int, player: int) -> random.Random:
    return random.Random(stream_seed(trial_seed, f"agent:{player}"))


def run_game(
    cfg: RunConfig,
    trial_seed: int,
    setups: Sequence[AgentSetup] | None = None,
    keep_trace: bool = False,
    keep_tables: bool = False,
) -> RunResult:
    """Play total_steps turns and fold metrics into bins.

    Each step: the mover (or every voter) picks an action epsilon-greedily
    from its own table, the environment transitions, and Q-updates plus
    broadcasts are applied according to each seat's agent kind. Random
    seats draw uniformly from the legal set; learners call select_action
    with the step's epsilon_at, or with their fixed_eps.

    The loop's state is the encode_state key itself, a bytearray edited
    in place, plus each seat's cell and territory count and the number
    of forced-defer turns left. Each seat's cell also hands ola_broadcast
    the positions in the pre-move key. It plays by the rules that
    transition, sovereign_transition, reward and is_invasion define on
    GameState; the tests replay its traces through those functions.
    """
    p, hp, rc = cfg.players, cfg.hp, cfg.rewards
    sovereign = cfg.variant is Variant.SOVEREIGN
    if setups is None:
        setups = [AgentSetup(k) for k in cfg.agent_kinds]

    rngs = [agent_rng(trial_seed, i) for i in range(p)]
    tables: list[QTable | None] = []
    for setup in setups:
        if setup.table is not None:
            table = setup.table
        elif setup.kind is not AgentKind.RANDOM:
            table = QTable()
        else:
            table = None
        tables.append(table)

    randoms = [s.kind is AgentKind.RANDOM for s in setups]
    fixed_eps = [s.fixed_eps for s in setups]
    learns = [s.learn and s.kind is not AgentKind.RANDOM for s in setups]
    # learning hq seats broadcast, receive broadcasts and learn from votes
    hq = [s.learn and s.kind is AgentKind.HQLEARNER for s in setups]
    recv_tables = [table if h else None for table, h in zip(tables, hq)]

    key = encode_state(initial_state(cfg.size, p))
    k = bytearray(key)
    invaded_at, move_at, _ = key_offsets(cfg.size, p)
    board_at = BOARD_OFFSET
    nbrs = neighbours(cfg.size)
    pos = list(corner_cells(cfg.size, p))  # each seat's cell
    terr = [0] * p  # territory cells per seat
    terr0, occ0 = territory_cell(0), occupied_cell(0)
    cycle = p + 1 if sovereign else p  # move values, the vote move included
    forced = 0  # forced-defer turns left after a successful vote
    bonus, penalty = rc.invasion_bonus, rc.invasion_penalty

    num_bins = cfg.total_steps // cfg.bin_size
    bins = [
        MetricsBin(bin_start=j * cfg.bin_size, bin_size=cfg.bin_size, players=p)
        for j in range(num_bins)
    ]
    trace: list[MoveRecord | VoteRecord] | None = [] if keep_trace else None
    rewards_per_player = [0] * p
    invasions_per_player = [0] * p

    # per cell, each on-board movement and the key offset of its destination
    steps = [tuple((a, board_at + d) for a, d in nb.items()) for nb in nbrs]

    def legal_of(i: int) -> list[Action]:
        """legal_actions for seat i, read off the key bytes."""
        acts = [a for a, at in steps[pos[i]] if k[at] < occ0]
        return acts or [Action.STAY]

    eps0, decay = hp.eps0, hp.eps_decay
    defer, stay = Action.DEFER, Action.STAY
    vote_passed = (rc.vote_bonus,) * p
    move = 0
    legal = legal_of(0)  # the legal set of the seat to move
    for b in bins:
        counts = b.action_counts
        for t in range(b.bin_start, b.bin_start + b.bin_size):
            eps = eps0 * decay**t  # epsilon_at(t, hp)
            if move == p:  # the sovereign vote
                ci = sum(k[invaded_at:move_at])
                ballots = []
                for i in range(p):
                    options = ballot_options[i]
                    rng = rngs[i]
                    if randoms[i]:
                        ballots.append(options[rng.randrange(len(options))])
                    else:
                        seat_eps = fixed_eps[i]
                        ballots.append(select_action(
                            tables[i], key, options,
                            eps if seat_eps is None else seat_eps, rng,
                        ))
                ballots = tuple(ballots)
                success = vote_succeeds(ballots, p)
                if success:
                    payouts = vote_passed
                else:
                    payouts = tuple(
                        rc.vote_penalty if a is defer else 0 for a in ballots
                    )
                # the sovereign flag is zeroed within the vote step, so
                # only the move byte changes
                move = k[move_at] = 0
                next_key = bytes(k)
                forced = p if success else 0
                legal = [defer] if success else legal_of(0)
                for i in range(p):
                    # vote payouts cause a Q-update only for sovereign-aware
                    # learners: on success everyone updates as if it had
                    # deferred, on failure only the duped defer voters
                    # learn the penalty
                    if hq[i] and (success or ballots[i] is defer):
                        q_update(
                            tables[i], key, defer, payouts[i],
                            next_key, legal, hp,
                        )
                b.cs_sum += sum(payouts)
                b.invasions += ci
                b.successful_defers += success
                for i in range(p):
                    counts[i][ballots[i]] += 1
                    rewards_per_player[i] += payouts[i]
                if trace is not None:
                    trace.append(
                        VoteRecord(t, key, ballots, payouts, success, ci)
                    )
                key = next_key
                continue

            i = move
            ci = sum(k[invaded_at:move_at]) if not sovereign and i == 0 else -1
            rng = rngs[i]
            if randoms[i]:
                action = legal[rng.randrange(len(legal))]
            else:
                seat_eps = fixed_eps[i]
                action = select_action(
                    tables[i], key, legal,
                    eps if seat_eps is None else seat_eps, rng,
                )
            # reward terms from the pre-move bytes: farming, then (unless
            # a forced defer) the invaded penalty and the invasion bonus
            r = terr[i]
            invasion = False
            loc = dest = pos[i]
            if action is not defer:
                if k[invaded_at + i]:
                    r += penalty
                if action is not stay:
                    dest = nbrs[loc][action]
                    # unowned or territory, never occupied
                    cell = k[board_at + dest]
                    if cell != UNOWNED:
                        owner = cell - terr0
                        terr[owner] -= 1
                        if owner != i:
                            invasion = True
                            r += bonus
                            k[invaded_at + owner] = 1
                    k[board_at + dest] = occ0 + i
                    k[board_at + loc] = terr0 + i
                    terr[i] += 1
                    pos[i] = dest
            k[invaded_at + i] = 0
            move = k[move_at] = (i + 1) % cycle
            next_key = bytes(k)
            if forced:
                forced -= 1
            if move == p:
                # every seat's ballot options at the coming vote; the
                # mover's own are the max of its pre-vote update
                ballot_options = [legal_of(j) + [defer] for j in range(p)]
                legal = ballot_options[i]
            else:
                legal = [defer] if forced else legal_of(move)

            if learns[i]:
                delta = q_update(tables[i], key, action, r, next_key, legal, hp)
                if hq[i]:
                    # the broadcast reads the cells of the pre-move key
                    pos[i] = loc
                    ola_broadcast(recv_tables, key, pos, action, delta, i, hp)
                    pos[i] = dest

            rewards_per_player[i] += r
            invasions_per_player[i] += invasion
            b.cs_sum += r
            counts[i][action] += 1
            if ci >= 0:
                b.invasions += ci
            if trace is not None:
                trace.append(MoveRecord(t, i, key, action, r, invasion, ci))
            key = next_key

    return RunResult(
        bins=bins,
        rewards_per_player=rewards_per_player,
        invasions_per_player=invasions_per_player,
        tables=tables if keep_tables else None,
        trace=trace,
    )


def trial_seed(master_seed: int, trial: int) -> int:
    return master_seed + trial


def _run_trial_bins(cfg: RunConfig, k: int) -> list[MetricsBin]:
    return run_game(cfg, trial_seed(cfg.seed, k)).bins


# The leading arguments that every job in a pool process shares: set once
# in each worker process by _share, never in the process that maps.
_shared_args: tuple = ()


def _share(args: tuple) -> None:
    global _shared_args
    _shared_args = args


def _call_shared(fn: Callable, job):
    return fn(*_shared_args, job)


def map_jobs(
    fn: Callable, jobs: Sequence, workers: int, shared: tuple = ()
) -> list:
    """[fn(*shared, job) for job in jobs], in up to `workers` processes.

    The pool has min(workers, len(jobs), CPU count) processes; when that
    is one, the jobs run inline and no pool is made. Results keep the job
    order. `shared` reaches each process once, through the pool's
    initializer, not with every job.
    """
    size = min(workers, len(jobs), os.cpu_count() or 1)
    if size <= 1:
        return [fn(*shared, job) for job in jobs]
    # imported here so that a run without a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=size, initializer=_share, initargs=(shared,)
    ) as pool:
        return list(pool.map(partial(_call_shared, fn), jobs))


def run_trials(cfg: RunConfig) -> list[list[MetricsBin]]:
    """Each of cfg.trials seeded trials' bin series, in trial order, run
    in up to cfg.workers processes."""
    return map_jobs(
        _run_trial_bins, range(cfg.trials), cfg.workers, shared=(cfg,)
    )


LEARNING_CURVE_HEADER = [
    "trial", "bin_start", "cs_sum", "cs_avg", "invasions", "successful_defers",
]
ACTIONS_HEADER = [
    "trial", "bin_start", "player", *(a.name.lower() for a in Action)
]


def write_csv(path: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write header then rows as UTF-8 CSV with "\n" line ends."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_learning_curve(trials: list[list[MetricsBin]], path: str) -> None:
    write_csv(path, LEARNING_CURVE_HEADER, (
        [trial, b.bin_start, b.cs_sum, b.cs_avg, b.invasions,
         b.successful_defers]
        for trial, series in enumerate(trials)
        for b in series
    ))


def write_actions(trials: list[list[MetricsBin]], path: str) -> None:
    write_csv(path, ACTIONS_HEADER, (
        [trial, b.bin_start, player, *counts]
        for trial, series in enumerate(trials)
        for b in series
        for player, counts in enumerate(b.action_counts)
    ))
