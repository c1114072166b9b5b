"""Fixtures and helpers shared by the test modules."""

import importlib.util
from collections import deque
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

from civgame import experiment
from civgame.agents import AgentKind, QTable, epsilon_at, ola_state
from civgame.experiment import MetricsBin, Variant, agent_rng, run_game
from civgame.game import (
    UNOWNED,
    Action,
    GameState,
    cell_owner,
    encode_state,
    initial_state,
    is_invasion,
    is_occupied,
    legal_actions,
    reward,
    transition,
)
from civgame.sovereign import (
    consume_flag,
    sovereign_legal_actions,
    sovereign_reward,
    sovereign_transition,
)


SITES_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "sites.py"


def perfbench_sites() -> set[str]:
    """Every `module.name` that perfbench's tracer looks up, read from
    perfbench/sites.py, which is loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_sites", SITES_PATH)
    sites = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sites)
    return {*sites.LAYER_SITES, *sites.TABLE_SITES, *sites.KEY_SITES}


@cache
def enumerate_reachable(size: int, players: int) -> frozenset:
    """BFS over the module's own legality and transition; computed once
    per board, since several tests walk the same set."""
    start = initial_state(size, players)
    seen = {start}
    queue = deque(seen)
    while queue:
        s = queue.popleft()
        for a in legal_actions(s, s.move):
            t = transition(s, a)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return frozenset(seen)


def naive_reachable(size: int, players: int):
    """Independent oracle: plain-tuple BFS reimplementation of the rules."""
    occ = lambda i: ("occ", i)
    terr = lambda i: ("terr", i)

    def start():
        board = [None] * (size * size)
        corners = (
            (0, size * size - 1)
            if players == 2
            else (0, size - 1, size * (size - 1), size * size - 1)[:players]
        )
        for i, c in enumerate(corners):
            board[c] = occ(i)
        return (tuple(board), (False,) * players, 0)

    def naive_legal(state):
        board, _, move = state
        loc = board.index(occ(move))
        row, col = divmod(loc, size)
        out = []
        if row > 0 and (board[loc - size] is None or board[loc - size][0] != "occ"):
            out.append(loc - size)
        if row < size - 1 and (
            board[loc + size] is None or board[loc + size][0] != "occ"
        ):
            out.append(loc + size)
        if col > 0 and (board[loc - 1] is None or board[loc - 1][0] != "occ"):
            out.append(loc - 1)
        if col < size - 1 and (board[loc + 1] is None or board[loc + 1][0] != "occ"):
            out.append(loc + 1)
        return out or [loc]

    def naive_step(state, dest):
        board, invaded, move = state
        loc = board.index(occ(move))
        nb, ni = list(board), list(invaded)
        if dest != loc:
            if nb[dest] is not None and nb[dest] != terr(move):
                ni[nb[dest][1]] = True
            nb[dest] = occ(move)
            nb[loc] = terr(move)
        ni[move] = False
        return (tuple(nb), tuple(ni), (move + 1) % players)

    seen = {start()}
    queue = deque(seen)
    while queue:
        s = queue.popleft()
        for dest in naive_legal(s):
            nxt = naive_step(s, dest)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def to_naive(state: GameState):
    board = []
    for c in state.board:
        if c == UNOWNED:
            board.append(None)
        elif is_occupied(c):
            board.append(("occ", cell_owner(c)))
        else:
            board.append(("terr", cell_owner(c)))
    return (tuple(board), state.invaded, state.move)


class LoggingQTable(QTable):
    """A QTable that records every learning write made through `blend`.

    `write_log` gets (key, action, old, new, delta) for each `blend`,
    with the value before and after the write. A replayed period makes
    no blend: it only adds its count of writes to `writes`, so `writes`
    exceeds len(write_log) once a period was replayed.
    """

    def __init__(self) -> None:
        super().__init__()
        self.write_log: list = []

    def blend(self, key, action, delta, alpha):
        old = self.rows.get(key, (0.0,) * len(Action))[action]
        super().blend(key, action, delta, alpha)
        self.write_log.append((key, action, old, self.rows[key][action], delta))


def randrange_select(rows, key, legal, eps, rng):
    """select_action as written with rng.randrange: the selection oracle.

    `rows` maps keys to value rows, or is None for a seat without a
    table, which draws legal[rng.randrange(len(legal))] and nothing else.
    """
    if rows is None or rng.random() < eps:
        return legal[rng.randrange(len(legal))]
    row = rows.get(key)
    if row is None:
        ties = legal
    else:
        values = [row[a] for a in legal]
        ties = [a for a, v in zip(legal, values) if v == max(values)]
    return ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]


class Step(NamedTuple):
    """One step as the GameState rules play it: an ordinary turn of
    `mover`, or (mover None) a vote with every seat's ballot and payout."""

    mover: int | None
    actions: tuple[Action, ...]  # the mover's action, or the ballots
    rewards: tuple[int, ...]  # the mover's reward, or the payouts
    invasion: bool = False
    passed: bool = False  # a vote that installed the sovereign


def replay_against_oracle(cfg, seed, tables=None, frozen_eps=None):
    """Play run_game's run again through the public GameState functions.

    Seat i is of kind cfg.agent_kinds[i]; a learner starts from
    tables[i] (fresh when None) and plays frozen when frozen_eps[i] is
    set. Every seat's choices are made here by randrange_select from its
    own stream, over the legal set the rules give, in order: a random
    seat draws uniformly; a learner explores with probability
    epsilon_at(step) (or its frozen eps), else takes the best action of
    its shadow row, breaking ties uniformly. Shadow copies of the
    tables, rebuilt from the write logs, supply the values read. At a
    vote the legal set is sovereign_legal_actions' ballot, so a run
    whose ballot options differ from it draws otherwise and fails here.

    Every table write must be the one the rules call for: the mover's
    Bellman update at the step's key, with the max taken over the legal
    set the rules give at the next state; one broadcast write per
    receiving observer at the "in their shoes" key with the mover's
    delta; and the vote updates. Each is the next write logged, with
    the same old and new values, or, if run_game replayed it, a write
    that leaves its value as it is, and then only counted; the logged
    and the counted writes must add up to the table's `writes`. Frozen
    seats write nothing. The bins folded here from reward, is_invasion,
    sovereign_reward and the invaded flags at each cycle boundary, each
    seat's reward and committed invasions among them, and the per-seat
    totals must equal run_game's.

    Returns run_game's result, its tables kept, and the steps played.
    """
    p, rc, hp, kinds = cfg.players, cfg.rewards, cfg.hp, cfg.agent_kinds
    given = [None] * p if tables is None else tables
    frozen = [None] * p if frozen_eps is None else frozen_eps

    def logged(table):
        """A fresh logging table, or the given table's rows under a log."""
        logging_table = LoggingQTable()
        if table is not None:
            logging_table.rows = table.rows
        return logging_table

    tables = [
        None if kind is AgentKind.RANDOM else logged(t)
        for kind, t in zip(kinds, given)
    ]
    shadow = [None if t is None else {k: list(r) for k, r in t.rows.items()}
              for t in tables]
    result = run_game(
        cfg, seed, tables=tables, frozen_eps=frozen, keep_tables=True
    )
    sovereign = cfg.variant is Variant.SOVEREIGN
    learns = [
        kind is not AgentKind.RANDOM and eps is None
        for kind, eps in zip(kinds, frozen)
    ]
    hq = [learn and kind is AgentKind.HQLEARNER for learn, kind in zip(learns, kinds)]
    cursor = [0] * p  # the logged writes consumed
    replayed = [0] * p  # the writes made by a replayed period
    rngs = [agent_rng(seed, i) for i in range(p)]

    def value(i, key, action):
        return shadow[i].get(key, (0.0,) * len(Action))[action]

    def choose(i, legal, key, step):
        eps = epsilon_at(step, hp) if frozen[i] is None else frozen[i]
        return randrange_select(shadow[i], key, legal, eps, rngs[i])

    def check_write(i, key, action, delta):
        """Consume seat i's next logged write if it is this one; else
        count it as replayed, which it can be only if it changes
        nothing."""
        old = value(i, key, action)
        new = (1 - hp.alpha) * old + delta
        log = tables[i].write_log
        if cursor[i] < len(log) and log[cursor[i]] == (key, action, old, new, delta):
            cursor[i] += 1
            shadow[i].setdefault(key, [0.0] * len(Action))[action] = new
        else:
            assert new == old
            replayed[i] += 1

    def bellman(i, r, next_key, legal_next):
        best = max(value(i, next_key, a) for a in legal_next)
        return hp.alpha * (r + hp.gamma * best)

    bins = [
        MetricsBin(bin_start=start, bin_size=cfg.bin_size, players=p)
        for start in range(0, cfg.total_steps, cfg.bin_size)
    ]
    rewards, invasions, steps = [0] * p, [0] * p, []
    cycle_start = p if sovereign else 0  # the vote, or seat 0's turn
    state, phase = initial_state(cfg.size, p), 0
    for t in range(cfg.total_steps):
        b = bins[t // cfg.bin_size]
        key = encode_state(state)
        if state.move == cycle_start:
            b.invasions += sum(state.invaded)
        if state.move == p:
            ballots = tuple(
                choose(i, sovereign_legal_actions(state, i, phase), key, t)
                for i in range(p)
            )
            voted, phase = sovereign_transition(state, ballots, phase)
            passed = voted.flag == 1
            payouts = tuple(sovereign_reward(voted, a, rc) for a in ballots)
            state = consume_flag(voted)
            next_key = encode_state(state)
            legal_next = sovereign_legal_actions(state, 0, phase)
            for i, ballot in enumerate(ballots):
                if hq[i] and (passed or ballot is Action.DEFER):
                    delta = bellman(i, payouts[i], next_key, legal_next)
                    check_write(i, key, Action.DEFER, delta)
                b.action_counts[i][ballot] += 1
                b.rewards[i] += payouts[i]
                rewards[i] += payouts[i]
            b.cs_sum += sum(payouts)
            b.successful_defers += passed
            steps.append(Step(None, ballots, payouts, passed=passed))
            continue
        mover = state.move
        legal = (
            sovereign_legal_actions(state, mover, phase)
            if sovereign else legal_actions(state, mover)
        )
        action = choose(mover, legal, key, t)
        r = reward(state, action, rc)
        invasion = is_invasion(state, action)
        pre_state = state
        if sovereign:
            state, phase = sovereign_transition(state, action, phase)
            if state.move == p:  # the max ranges over the mover's own ballot
                legal_next = legal_actions(state, mover) + [Action.DEFER]
            else:
                legal_next = sovereign_legal_actions(state, state.move, phase)
        else:
            state = transition(state, action)
            legal_next = legal_actions(state, state.move)
        b.action_counts[mover][action] += 1
        b.cs_sum += r
        b.rewards[mover] += r
        b.invasions_committed[mover] += invasion
        rewards[mover] += r
        invasions[mover] += invasion
        steps.append(Step(mover, (action,), (r,), invasion))
        if not learns[mover]:
            continue
        delta = bellman(mover, r, encode_state(state), legal_next)
        check_write(mover, key, action, delta)
        if hq[mover]:
            for i in range(p):
                if i != mover and hq[i]:
                    o_key = encode_state(ola_state(pre_state, i, mover))
                    check_write(i, o_key, action, delta)
    for i, table in enumerate(tables):
        if table is not None:  # no write unaccounted for
            assert cursor[i] == len(table.write_log)
            assert table.writes == cursor[i] + replayed[i]
    assert result.bins == bins
    assert result.rewards_per_player == rewards
    assert result.invasions_per_player == invasions
    return result, steps


class ReplayLog(NamedTuple):
    """What run_game replayed (see experiment._Replay)."""

    periods: list  # (bin_start, times, length) per stretch of replayed periods
    draws: list  # (legal, greedy, action) per decision a replay drew


@contextmanager
def logged_replays():
    """Logs, through the module names that run_game looks up, each
    stretch of periods it replays and each select_action call it makes
    with the greedy choices handed in, which only a replay makes."""
    log = ReplayLog([], [])
    add_to = experiment._Period.add_to
    select = experiment.select_action

    def logged_add_to(period, times, b):
        log.periods.append((b.bin_start, times, period.length))
        add_to(period, times, b)

    def logged_select(q, key, legal, eps, rng, greedy=None):
        action = select(q, key, legal, eps, rng, greedy)
        if greedy is not None:
            log.draws.append((legal, greedy, action))
        return action

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment._Period, "add_to", logged_add_to)
        patch.setattr(experiment, "select_action", logged_select)
        yield log


@pytest.fixture
def replay_log():
    """The ReplayLog of the test's runs (see logged_replays)."""
    with logged_replays() as log:
        yield log


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces the process pool with one that starts no process.

    Returns the list of pool sizes asked for, one per pool made. The fake
    runs the initializer and maps in this process. The CPU count reads 64,
    so workers and the job count alone set the pool size.
    """
    asked = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # map_jobs imports the pool class from here when it makes a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    # the initializer runs here, so restore what it sets
    monkeypatch.setattr("civgame.experiment._shared_args", ())
    monkeypatch.setattr("civgame.experiment.os.cpu_count", lambda: 64)
    return asked
