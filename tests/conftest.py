"""Fixtures and helpers shared by the test modules."""

from collections import deque
from dataclasses import replace
from functools import cache
from typing import NamedTuple

import pytest

from civgame.agents import AgentKind, QTable, epsilon_at, ola_state
from civgame.experiment import (
    AgentSetup,
    MetricsBin,
    Variant,
    agent_rng,
    run_game,
)
from civgame.game import (
    Action,
    encode_state,
    initial_state,
    is_invasion,
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


class LoggingQTable(QTable):
    """A QTable that records every learning write.

    `write_log` gets (key, action, old, new, delta) for each `blend`,
    with the value before and after the write.
    """

    def __init__(self) -> None:
        super().__init__()
        self.write_log: list = []

    def blend(self, key, action, delta, alpha):
        old = self.rows.get(key, (0.0,) * len(Action))[action]
        super().blend(key, action, delta, alpha)
        self.write_log.append((key, action, old, self.rows[key][action], delta))


class Step(NamedTuple):
    """One step as the GameState rules play it: an ordinary turn of
    `mover`, or (mover None) a vote with every seat's ballot and payout."""

    mover: int | None
    actions: tuple[Action, ...]  # the mover's action, or the ballots
    rewards: tuple[int, ...]  # the mover's reward, or the payouts
    invasion: bool = False
    passed: bool = False  # a vote that installed the sovereign


def replay_against_oracle(cfg, seed, setups=None):
    """Play run_game's run again through the public GameState functions.

    Every seat's choices are made here from its own stream, over the
    legal set the rules give, in order: a random seat draws uniformly; a
    learner explores with probability epsilon_at(step) (or its fixed
    eps), else takes the best action of its shadow row, breaking ties
    uniformly. Shadow copies of the tables, rebuilt from the write logs,
    supply the values read.

    Every table write must be the one the rules call for: the mover's
    Bellman update at the step's key, with the max taken over the legal
    set the rules give at the next state; one broadcast write per
    receiving observer at the "in their shoes" key with the mover's
    delta; and the vote updates. Frozen seats (`learn=False`) write
    nothing. The bins and per-seat totals folded here from reward,
    is_invasion, sovereign_reward and the invaded flags at each cycle
    boundary must equal run_game's.

    Returns run_game's result, its tables kept, and the steps played.
    """
    if setups is None:
        setups = [AgentSetup(k) for k in cfg.agent_kinds]

    def logged(table):
        """A fresh logging table, or a frozen seat's rows under a log."""
        logging_table = LoggingQTable()
        if table is not None:
            logging_table.rows = table.rows
        return logging_table

    setups = [
        s if s.table is None and s.kind is AgentKind.RANDOM
        else replace(s, table=logged(s.table))
        for s in setups
    ]
    tables = [s.table for s in setups]
    shadow = [{} if t is None else {k: list(r) for k, r in t.rows.items()}
              for t in tables]
    result = run_game(cfg, seed, setups=setups, keep_tables=True)
    p, rc, hp = cfg.players, cfg.rewards, cfg.hp
    sovereign = cfg.variant is Variant.SOVEREIGN
    learns = [s.learn and s.kind is not AgentKind.RANDOM for s in setups]
    hq = [s.learn and s.kind is AgentKind.HQLEARNER for s in setups]
    cursor = [0] * p
    rngs = [agent_rng(seed, i) for i in range(p)]

    def value(i, key, action):
        return shadow[i].get(key, (0.0,) * len(Action))[action]

    def choose(i, legal, key, step):
        rng = rngs[i]
        if setups[i].kind is not AgentKind.RANDOM:
            eps = setups[i].fixed_eps
            if eps is None:
                eps = epsilon_at(step, hp)
            if rng.random() >= eps:
                values = [value(i, key, a) for a in legal]
                ties = [a for a, v in zip(legal, values) if v == max(values)]
                if len(ties) == 1:
                    return ties[0]
                return ties[rng.randrange(len(ties))]
        return legal[rng.randrange(len(legal))]

    def check_write(i, key, action, delta):
        """Consume seat i's next write, which must be this one."""
        w_key, w_action, old, new, w_delta = tables[i].write_log[cursor[i]]
        cursor[i] += 1
        assert (w_key, w_action, w_delta) == (key, action, delta)
        assert old == value(i, key, action)
        assert new == (1 - hp.alpha) * old + w_delta
        shadow[i].setdefault(key, [0.0] * len(Action))[action] = new

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
        if table is not None:
            assert cursor[i] == len(table.write_log)  # no write unaccounted for
    assert result.bins == bins
    assert result.rewards_per_player == rewards
    assert result.invasions_per_player == invasions
    return result, steps


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
