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
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Sequence

from .agents import (
    AgentKind,
    Hyperparams,
    NUM_ACTIONS,
    QTable,
    greedy_actions,
    ola_broadcast,
    q_update,
    select_action,
)
from .game import (
    BOARD_OFFSET,
    Action,
    UNOWNED,
    RewardConfig,
    check_board_size,
    check_players,
    corner_cells,
    encode_state,
    initial_state,
    key_offsets,
    legal_tables,
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
        check_board_size(self.size)
        check_players(self.players)
        if self.bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.total_steps % self.bin_size != 0:
            raise ValueError("bin_size must divide total_steps")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def players(self) -> int:
        """The seat count: one seat per agent kind."""
        return len(self.agent_kinds)


@dataclass
class MetricsBin:
    """The bin_size turns from bin_start: their collective score (cs_sum),
    invasions, passed votes, and per seat its count of each action, its
    reward and the invasions it committed.

    `invasions` counts the raised invaded flags, sampled once a cycle;
    `invasions_committed[i]` counts each move of seat i onto another
    seat's territory, whether or not its flag is still up at a sample.
    """

    bin_start: int
    bin_size: int
    players: int
    cs_sum: int = 0
    invasions: int = 0
    successful_defers: int = 0
    action_counts: list[list[int]] = field(init=False)
    rewards: list[int] = field(init=False)
    invasions_committed: list[int] = field(init=False)

    def __post_init__(self) -> None:
        p = self.players
        self.action_counts = [[0] * NUM_ACTIONS for _ in range(p)]
        self.rewards, self.invasions_committed = [0] * p, [0] * p

    @property
    def cs_avg(self) -> float:
        return self.cs_sum / self.bin_size


@dataclass
class RunResult:
    """One run_game trial: its bins, and the Q-tables when run_game is
    asked to keep them. The tests play each run again through the
    GameState functions and compare its bins and table writes with
    theirs."""

    bins: list[MetricsBin]
    tables: list[QTable | None] | None = None

    @property
    def moves_per_player(self) -> list[int]:
        """Each seat's moves, ballots included: its action counts summed."""
        return [sum(map(sum, seat))
                for seat in zip(*(b.action_counts for b in self.bins))]

    @property
    def rewards_per_player(self) -> list[int]:
        """Each seat's reward, summed over the bins."""
        return [sum(seat) for seat in zip(*(b.rewards for b in self.bins))]

    @property
    def invasions_per_player(self) -> list[int]:
        """Each seat's committed invasions, summed over the bins."""
        return [sum(seat)
                for seat in zip(*(b.invasions_committed for b in self.bins))]


def stream_seed(trial_seed: int, label: str) -> int:
    """Stable per-stream seed, independent of platform hash randomization."""
    digest = hashlib.sha256(f"{trial_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def agent_rng(trial_seed: int, player: int) -> random.Random:
    return random.Random(stream_seed(trial_seed, f"agent:{player}"))


def run_game(
    cfg: RunConfig,
    trial_seed: int,
    tables: Sequence[QTable | None] | None = None,
    frozen_eps: Sequence[float | None] | None = None,
    keep_tables: bool = False,
) -> RunResult:
    """Play total_steps turns and fold metrics into bins.

    Seat i plays as cfg.agent_kinds[i]. A random seat has no table. A
    learner starts from tables[i] (a fresh QTable when None); when
    frozen_eps[i] is set it plays frozen at that eps and makes no
    updates, else it learns at the step's epsilon_at, and an hq learner
    also broadcasts, receives the other hq learners' broadcasts and
    learns from vote payouts. Every seat decides through select_action;
    in a replayed period it hands over the greedy choices recorded.

    The loop's state is the encode_state key itself, a bytearray edited
    in place, plus each seat's cell and territory count, the occupancy
    mask that selects each seat's legal set from legal_tables, the number
    of forced-defer turns left, and the period that _Replay recorded to
    play again. Each seat's cell also hands ola_broadcast the positions in
    the pre-move key. A step decides and applies the vote or the move,
    ends in one tail that writes the move byte, takes the next key and
    reads the next mover's legal set, and then learns and counts. It
    plays by the rules that transition, sovereign_transition, reward and
    is_invasion define on GameState; the tests play each run again
    through those functions and compare its bins, per-seat totals and
    table writes with theirs.
    """
    p, hp, rc = cfg.players, cfg.hp, cfg.rewards
    sovereign = cfg.variant is Variant.SOVEREIGN
    kinds = cfg.agent_kinds
    for name, seats in (("tables", tables), ("frozen_eps", frozen_eps)):
        if seats is not None and len(seats) != p:
            raise ValueError(f"{name} has {len(seats)} entries for {p} seats")
    given = [None] * p if tables is None else tables
    frozen = [None] * p if frozen_eps is None else frozen_eps

    rngs = [agent_rng(trial_seed, i) for i in range(p)]
    # built through the module name QTable: perfbench counts them there
    tables = [
        None if kind is AgentKind.RANDOM else QTable() if t is None else t
        for kind, t in zip(kinds, given)
    ]
    learns = [t is not None and e is None for t, e in zip(tables, frozen)]
    # learning hq seats broadcast, receive broadcasts and learn from votes
    hq = [learn and kind is AgentKind.HQLEARNER
          for learn, kind in zip(learns, kinds)]
    recv_tables = [table if h else None for table, h in zip(tables, hq)]

    key = encode_state(initial_state(cfg.size, p))
    k = bytearray(key)
    invaded_at, move_at = key_offsets(cfg.size, p)
    board_at = BOARD_OFFSET
    nbrs = neighbours(cfg.size)
    pos = list(corner_cells(cfg.size, p))  # each seat's cell
    # bit c of occ is set while a seat stands on cell c; a seat on c has
    # legal_at[c][occ >> nbr_shift[c] & nbr_mask[c]] as its legal set, and
    # that set plus DEFER as its ballot options
    occ = sum(1 << c for c in pos)
    nbr_shift, nbr_mask, legal_at = legal_tables(cfg.size)
    terr = [0] * p  # territory cells per seat
    terr0, occ0 = territory_cell(0), occupied_cell(0)
    cycle = p + 1 if sovereign else p  # move values, the vote move included
    # the invasions metric counts the raised flags once a cycle, at the
    # top of the vote (sovereign) or of seat 0's turn (base)
    sample_at = p if sovereign else 0
    forced = 0  # forced-defer turns left after a successful vote
    bonus, penalty = rc.invasion_bonus, rc.invasion_penalty

    num_bins = cfg.total_steps // cfg.bin_size
    bins = [
        MetricsBin(bin_start=j * cfg.bin_size, bin_size=cfg.bin_size, players=p)
        for j in range(num_bins)
    ]

    eps0, decay = hp.eps0, hp.eps_decay
    learners = [t for t, learn in zip(tables, learns) if learn]
    replay = _Replay(tables, learners, frozen, rngs, eps0, decay, cycle)
    # slow while _Replay records a period or holds drawn decisions
    slow = replay.slow
    top1 = top2 = b""  # the keys at the last two cycle tops
    defer, stay = Action.DEFER, Action.STAY
    defer_only = (defer,)  # a forced turn's legal set, a ballot's extra
    vote_bonus, vote_penalty = rc.vote_bonus, rc.vote_penalty
    move = 0
    # the legal set of the seat to move
    c = pos[0]
    legal = legal_at[c][occ >> nbr_shift[c] & nbr_mask[c]]
    for b in bins:
        counts, rewards, committed = (
            b.action_counts, b.rewards, b.invasions_committed)
        t, end = b.bin_start, b.bin_start + b.bin_size
        while t < end:
            if move == sample_at:
                lag = 1 if key == top1 else 2 if key == top2 else 0
                if lag or slow:
                    # replayed periods move t on and leave the state as is
                    t = replay.top(t, end, key, lag, b)
                    if t == end:
                        break
                    slow = replay.slow
                top1, top2 = key, top1
                b.invasions += sum(k[invaded_at:move_at])
            eps = eps0 * decay**t  # epsilon_at(t, hp)
            i = move
            if i == p:  # the sovereign vote
                ballots = [
                    replay.decide(j, key, ballot_options[j], eps, t) if slow
                    else select_action(
                        tables[j], key, ballot_options[j],
                        eps if frozen[j] is None else frozen[j], rngs[j],
                    )
                    for j in range(p)
                ]
                success = vote_succeeds(ballots, p)
                forced = p if success else 0
                # the sovereign flag is zeroed within the vote step, so
                # only the move byte changes
                move = 0
            else:
                if slow:
                    action = replay.decide(i, key, legal, eps, t)
                else:
                    action = select_action(
                        tables[i], key, legal,
                        eps if frozen[i] is None else frozen[i], rngs[i],
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
                        occ ^= 1 << loc | 1 << dest
                        terr[i] += 1
                        pos[i] = dest
                k[invaded_at + i] = 0
                move = (i + 1) % cycle
                if forced:
                    forced -= 1

            # the tail of every step: the next key, and the legal set of
            # the seat to move at it
            k[move_at] = move
            next_key = bytes(k)
            if move == p:
                # every seat's ballot options at the coming vote; the
                # mover's own are the max of its pre-vote update
                ballot_options = [
                    legal_at[c][occ >> nbr_shift[c] & nbr_mask[c]] + defer_only
                    for c in pos
                ]
                legal = ballot_options[i]
            elif forced:
                legal = defer_only
            else:
                c = pos[move]
                legal = legal_at[c][occ >> nbr_shift[c] & nbr_mask[c]]

            if i == p:
                for j, ballot in enumerate(ballots):
                    # on success every seat gets the bonus, on failure each
                    # duped defer voter the penalty; a sovereign-aware
                    # learner learns the payout as that of a DEFER
                    duped = not success and ballot is defer
                    payout = (
                        vote_bonus if success else vote_penalty if duped else 0
                    )
                    if hq[j] and (success or duped):
                        q_update(tables[j], key, defer, payout, next_key,
                                 legal, hp)
                    counts[j][ballot] += 1
                    rewards[j] += payout
                    b.cs_sum += payout
                b.successful_defers += success
            else:
                if learns[i]:
                    delta = q_update(tables[i], key, action, r, next_key,
                                     legal, hp)
                    if hq[i]:
                        # the broadcast reads the cells of the pre-move key
                        pos[i] = loc
                        ola_broadcast(recv_tables, key, pos, action, delta, i, hp)
                        pos[i] = dest
                rewards[i] += r
                committed[i] += invasion
                b.cs_sum += r
                counts[i][action] += 1
            key = next_key
            t += 1

    return RunResult(bins=bins, tables=tables if keep_tables else None)


def _lists(b: MetricsBin) -> tuple[list[int], ...]:
    """The bin's per-seat lists: each seat's action counts, then the
    seats' rewards and committed invasions."""
    return (*b.action_counts, b.rewards, b.invasions_committed)


def _counters(b: MetricsBin, learners: list[QTable]) -> list[list[int]]:
    """A copy of every counter that play adds to: the bin's sums, its
    per-seat lists, and each learner's count of writes."""
    return [[b.cs_sum, b.invasions, b.successful_defers],
            *(row[:] for row in _lists(b)), [t.writes for t in learners]]


@dataclass
class _Period:
    """A stretch of play recorded in bin `b` from the cycle top at step
    `start`, `length` steps back to a top with the same key. It is played
    again only while the learners' count of value changes is `changes`,
    the count where it began: then its rows read as they did, and its
    writes change nothing.

    `decisions` holds, in draw order, each decision's step offset and
    select_action arguments (the seat's table, the key, the legal set,
    its frozen eps or None for the schedule's, its stream and the greedy
    choices read as it was drawn, which hold while no value changes, None
    for a seat without a table), then the action drawn. `before` is
    _counters at the start; when the recording ends, `added` is their
    difference over it, but for the writes, and `writes` pairs each
    learner's table with its count.
    """

    key: bytes
    changes: int
    start: int
    length: int
    b: MetricsBin
    before: list[list[int]]
    decisions: list[tuple] = field(default_factory=list)
    added: list[list[int]] = field(default_factory=list)
    writes: list[tuple[QTable, int]] = field(default_factory=list)

    def add_to(self, times: int, b: MetricsBin) -> None:
        """Add what the stretch added to bin b, `times` over. A write that
        changes nothing leaves only its count."""
        (cs_sum, invaded, defers), *lists = self.added
        b.cs_sum += times * cs_sum
        b.invasions += times * invaded
        b.successful_defers += times * defers
        for row, added in zip(_lists(b), lists):
            for j, n in enumerate(added):
                row[j] += times * n
        for table, n in self.writes:
            table.writes += times * n


class _Replay:
    """run_game's replay of a period of play that changed nothing.

    run_game calls `top` at a cycle top, its once-a-cycle point, when the
    key is that of the top 1 or 2 cycles back, and at every top while
    `slow`. A period is recorded from a top whose key the tops `lag`
    and 2 * lag cycles back also had (lag 1 is the sovereign steady
    state, lag 2 the orbit of two frozen seats in the base game), with
    no value changed by the learners over the last lag cycles. It is
    kept if play came back to its key after lag cycles, within one bin,
    and plays again only while no value has changed since it began (see
    _Period).

    At a top the key fixes the rest of the loop's state (the cells, the
    territory counts and the legal sets; the forced count is 0). While
    no value changes, the rows read are those of the recording, so the
    period plays again exactly when each seat's select_action, handed
    the recorded greedy choices, draws its recorded decision. Then only
    the period's counters and write counts are added, as long as it fits
    in the bin. When a draw differs, the loop goes on from the top, and
    the seats take the decisions drawn so far (`decide`).
    """

    def __init__(self, tables, learners, frozen, rngs, eps0, decay, cycle):
        self.tables, self.learners = tables, learners
        self.frozen, self.rngs = frozen, rngs
        self.eps0, self.decay, self.cycle = eps0, decay, cycle
        # whether the loop's decisions must go through `decide`
        self.slow = False
        # (key, value changes, step) at the last two tops whose key was
        # that of the top 1 or 2 cycles back
        self.repeats: deque[tuple] = deque(maxlen=2)
        self.period: _Period | None = None  # the last period kept
        self.recording: _Period | None = None
        self.queued: list[Action] = []  # drawn by a replay, not yet played

    def changes(self) -> int:
        return sum(t.changes for t in self.learners)

    def decide(self, i: int, key: bytes, legal: list[Action], eps: float,
               t: int) -> Action:
        """Seat i's action at step t: the next decision a replay drew, or
        select_action's; noted while a period is recorded. `eps` is the
        step's schedule eps."""
        e, q = self.frozen[i], self.tables[i]
        if self.queued:
            action = self.queued.pop(0)
        else:
            action = select_action(q, key, legal, eps if e is None else e,
                                   self.rngs[i])
        period = self.recording
        if period is not None:
            greedy = None if q is None else greedy_actions(q, key, legal)
            period.decisions.append((t - period.start, q, key, legal, e,
                                     self.rngs[i], greedy, action))
        return action

    def top(self, t: int, end: int, key: bytes, lag: int,
            b: MetricsBin) -> int:
        """At the cycle top at step t of bin b, which ends at `end`, before
        its invasions are sampled; `lag` is 1 or 2 when the key is that
        of the top so many cycles back, else 0. Returns the step at which
        the loop goes on, past t when periods were replayed."""
        rec = self.recording
        if rec is not None:
            if t < rec.start + rec.length:
                return t
            self.recording = None
            # kept if play came back to its key within its bin, since the
            # counters of the next bin are not in the difference; a value
            # changed since the start stops it at its first replay
            if key == rec.key and t <= rec.b.bin_start + rec.b.bin_size:
                added = [[y - x for x, y in zip(r0, r1)] for r0, r1
                         in zip(rec.before, _counters(rec.b, self.learners))]
                rec.writes = list(zip(self.learners, added.pop()))
                rec.added = added
                self.period = rec
        period = self.period
        if self.queued:
            pass  # the drawn decisions are played first
        elif period is not None and key == period.key:
            if self.changes() == period.changes:
                t = self._replay(t, end, b)
            else:
                self.period = None
        elif lag:
            changes = self.changes()
            length = lag * self.cycle
            if (key, changes, t - length) in self.repeats:
                self.recording = _Period(key, changes, t, length, b,
                                         _counters(b, self.learners))
            self.repeats.append((key, changes, t))
        self.slow = bool(self.queued) or self.recording is not None
        return t

    def _replay(self, t: int, end: int, b: MetricsBin) -> int:
        """Draw the period's decisions again, whole periods from step t
        on, while one fits in bin b, which ends at `end`. At the first
        decision that differs from the record, queue the decisions drawn
        in that period. Add the periods drawn in full to b, and return the
        step at which the loop goes on."""
        period = self.period
        n, decisions = period.length, period.decisions
        eps0, decay = self.eps0, self.decay
        times = 0
        while t + n <= end and not self.queued:
            for d, (s, q, key, legal, eps, rng, greedy, action) in enumerate(decisions):
                if eps is None:
                    eps = eps0 * decay ** (t + s)
                drawn = select_action(q, key, legal, eps, rng, greedy)
                if drawn is not action:
                    self.queued = [dec[-1] for dec in decisions[:d]] + [drawn]
                    break
            else:
                times += 1
                t += n
        if times:
            period.add_to(times, b)
        return t


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
