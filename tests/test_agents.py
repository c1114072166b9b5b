"""Learners: schedule, selection, Bellman update, broadcasting, table IO."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from civgame.agents import (
    AgentKind,
    Hyperparams,
    QTable,
    dump_qtable,
    epsilon_at,
    greedy_actions,
    ola_broadcast,
    ola_state,
    q_update,
    select_action,
)
from civgame.experiment import RunConfig, Variant, run_game
from civgame.game import Action, GameState, encode_state, initial_state, occupied_cell
from conftest import (
    LoggingQTable,
    enumerate_reachable,
    randrange_select,
    replay_against_oracle,
)

HP = Hyperparams()


# --- epsilon schedule ---------------------------------------------------------


def test_epsilon_initial():
    assert epsilon_at(0, HP) == 0.9


def test_epsilon_annealed_value():
    # frozen from a 40-digit evaluation of 0.9 * 0.9999**10000
    assert abs(epsilon_at(10_000, HP) - 0.3310749417896369) < 1e-12


def test_epsilon_constant_when_decay_is_one():
    hp = Hyperparams(eps_decay=1.0)
    assert epsilon_at(123_456, hp) == hp.eps0


def test_epsilon_monotone_non_increasing():
    values = [epsilon_at(t, HP) for t in range(0, 5000, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_hyperparams_validate_range():
    with pytest.raises(ValueError):
        Hyperparams(alpha=1.5)
    with pytest.raises(ValueError):
        Hyperparams(gamma=-0.1)


# --- action selection ---------------------------------------------------------


def test_select_exploits_best_value():
    q = QTable()
    key = b"state"
    q.rows[key] = [1.0, 3.0, 0.0, 0.0, 0.0, 0.0]  # UP 1, DOWN 3
    legal = [Action.UP, Action.DOWN]
    rng = random.Random(5)
    assert all(
        select_action(q, key, legal, 0.0, rng) is Action.DOWN for _ in range(50)
    )


def test_select_explores_uniformly_at_eps_one():
    q = QTable()
    legal = [Action.UP, Action.DOWN, Action.LEFT]
    rng = random.Random(9)
    counts = Counter(select_action(q, b"s", legal, 1.0, rng) for _ in range(9000))
    for a in legal:
        assert abs(counts[a] - 3000) < 3 * math.sqrt(9000 * (1 / 3) * (2 / 3))


def test_select_breaks_ties_uniformly():
    q = QTable()
    key = b"tied"
    legal = [Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT]
    q.rows[key] = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]  # the four moves tie
    rng = random.Random(11)
    n = 10_000
    counts = Counter(select_action(q, key, legal, 0.0, rng) for _ in range(n))
    sigma = math.sqrt(n * 0.25 * 0.75)
    for a in legal:
        assert abs(counts[a] - n / 4) <= 3 * sigma


def test_select_rejects_empty_legal():
    with pytest.raises(ValueError):
        select_action(QTable(), b"s", [], 0.5, random.Random(0))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    legal=st.lists(st.sampled_from(list(Action)), min_size=1, max_size=6, unique=True),
    has_table=st.booleans(),
    # few distinct values, so that rows often hold ties
    row=st.none() | st.lists(st.sampled_from((0.0, 1.0, 2.0)), min_size=6, max_size=6),
    eps=st.sampled_from((0.0, 0.3, 1.0)),
)
def test_select_action_matches_randrange(seed, legal, has_table, row, eps):
    """The inline draw picks what randrange(n) picks, with the same
    draws: over a run of calls the actions agree and all streams stay
    in the same state. A row of None means the key has no row; a seat
    without a table draws as legal[rng.randrange(len(legal))]. A replay
    hands select_action the greedy choices read earlier, with a table
    it then does not read (here an empty one), and draws the same."""
    q = QTable() if has_table else None
    if has_table and row is not None:
        q.rows[b"s"] = row
    rows = q.rows if has_table else None
    greedy = greedy_actions(q, b"s", legal) if has_table else None
    unread = QTable() if has_table else None
    rng, oracle_rng, replay_rng = (random.Random(seed) for _ in range(3))
    for _ in range(20):
        action = select_action(q, b"s", legal, eps, rng)
        assert action == randrange_select(rows, b"s", legal, eps, oracle_rng)
        assert select_action(unread, b"s", legal, eps, replay_rng, greedy) == action
        assert rng.getstate() == oracle_rng.getstate() == replay_rng.getstate()
    if has_table:
        assert q.rows == ({} if row is None else {b"s": row})


def test_reads_never_add_rows():
    """select_action and q_update's next-state max read a key without a
    row as all zeros: the same choices and random draws as an explicit
    zero row, and the table stays empty. Only blend adds a row."""
    legal = [Action.UP, Action.DOWN, Action.LEFT]
    for eps in (0.0, 1.0):
        empty, zeros = QTable(), QTable()
        zeros.rows[b"unseen"] = [0.0] * 6
        rng_a, rng_b = random.Random(3), random.Random(3)
        picks_a = [select_action(empty, b"unseen", legal, eps, rng_a) for _ in range(200)]
        picks_b = [select_action(zeros, b"unseen", legal, eps, rng_b) for _ in range(200)]
        assert picks_a == picks_b  # same choices and the same random draws
        assert rng_a.random() == rng_b.random()
        assert len(set(picks_a)) == 3  # ties are broken uniformly
        assert empty.rows == {}
    q = QTable()
    hp = Hyperparams(alpha=0.5, gamma=0.99)
    assert q_update(q, b"s", Action.UP, 4, b"unseen", legal, hp) == hp.alpha * 4
    assert list(q.rows) == [b"s"]  # the next-state read added no row
    q.blend(b"t", Action.DOWN, 1.0, 0.5)
    assert list(q.rows) == [b"s", b"t"]
    assert select_action(q, b"s", legal, 0.0, random.Random(0)) is Action.UP


def test_no_row_read_keeps_the_draws():
    """At a key without a row, select_action draws as at an explicit
    all-zero row: with one legal action on exploit it takes rng.random()
    once and no index, and for 1-5 legal actions it returns the same
    action and leaves the stream in the same state."""
    one = (Action.STAY,)
    rng, once = random.Random(4), random.Random(4)
    assert select_action(QTable(), b"unseen", one, 0.0, rng) is Action.STAY
    once.random()
    assert rng.getstate() == once.getstate()
    moves = (Action.UP, Action.DOWN, Action.LEFT, Action.RIGHT, Action.DEFER)
    zeros = QTable()
    zeros.rows[b"unseen"] = [0.0] * 6
    for n in range(1, 6):
        legal = moves[:n]
        for seed in range(20):
            for eps in (0.0, 0.5):
                rng_a, rng_b = random.Random(seed), random.Random(seed)
                picks = [select_action(QTable(), b"unseen", legal, eps, rng_a)
                         for _ in range(5)]
                assert picks == [select_action(zeros, b"unseen", legal, eps, rng_b)
                                 for _ in range(5)]
                assert rng_a.getstate() == rng_b.getstate()


# --- Bellman update -----------------------------------------------------------


def test_q_update_worked_example():
    q = QTable()
    q.rows[b"s"] = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # UP 2
    q.rows[b"t"] = [1.0, 4.0, 0.0, 0.0, 0.0, 0.0]  # UP 1, DOWN 4
    hp = Hyperparams(alpha=0.5, gamma=0.99)
    delta = q_update(q, b"s", Action.UP, 10, b"t", [Action.UP, Action.DOWN], hp)
    assert delta == pytest.approx(6.98, abs=1e-12)
    assert q.rows[b"s"][Action.UP] == pytest.approx(7.98, abs=1e-12)


def test_q_update_alpha_zero_changes_nothing():
    q = QTable()
    q.rows[b"s"] = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # UP 2
    hp = Hyperparams(alpha=0.0)
    q_update(q, b"s", Action.UP, 100, b"t", [Action.UP], hp)
    assert q.rows[b"s"][Action.UP] == 2.0


def test_q_update_myopic_alpha_one_gamma_zero():
    q = QTable()
    q.rows[b"s"] = [123.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # UP 123
    hp = Hyperparams(alpha=1.0, gamma=0.0)
    q_update(q, b"s", Action.UP, 7, b"t", [Action.UP], hp)
    assert q.rows[b"s"][Action.UP] == 7.0


def test_lazy_rows_default_to_exact_ties():
    q = QTable()
    q.blend(b"k", Action.UP, 1.0, 0.5)
    row = q.rows[b"k"]
    assert row == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # unwritten entries tie at 0
    q.blend(b"k", Action.DOWN, 2.0, 0.5)
    assert q.rows[b"k"] is row  # one row per key, not fresh objects


# --- alternate-reality swap ----------------------------------------------------


def test_ola_state_swaps_positions_and_move():
    s = initial_state(3, 2)
    s = replace(s, move=1)
    swapped = ola_state(s, 0, 1)
    assert swapped.position(0) == 8
    assert swapped.position(1) == 0
    assert swapped.move == 0
    assert swapped.board[1:8] == s.board[1:8]  # territory untouched


def test_ola_state_is_involution():
    s = replace(initial_state(4, 4), move=2, invaded=(True, False, False, True))
    back = ola_state(ola_state(s, 1, 2), 2, 1)
    assert back == s  # positions, flags, and move all restored


def test_ola_state_swaps_invaded_flags():
    s = replace(initial_state(3, 2), invaded=(True, False), move=1)
    assert ola_state(s, 0, 1).invaded == (False, True)


def test_ola_state_rejects_self_swap():
    with pytest.raises(ValueError):
        ola_state(initial_state(3, 2), 1, 1)


def test_no_swapped_state_is_reachable_3x3():
    """A broadcast on 3x3 with 2 players writes only keys that no game
    reaches: the other seat's shoes are never a reachable state."""
    states = enumerate_reachable(3, 2)
    assert not any(ola_state(s, 1 - s.move, s.move) in states for s in states)


# --- broadcast ------------------------------------------------------------------


def cells(state):
    """Each seat's board cell, as ola_broadcast takes them."""
    return [state.position(j) for j in range(state.players)]


@st.composite
def broadcast_cases(draw):
    """A state with players on distinct cells, random territory and
    invaded flags, a mover, and which seats receive broadcasts."""
    size = draw(st.integers(2, 6))
    p = draw(st.integers(2, 4))
    n = size * size
    seats = draw(st.lists(st.integers(0, n - 1), min_size=p, max_size=p, unique=True))
    board = bytearray(draw(st.lists(st.integers(0, p), min_size=n, max_size=n)))
    for j, cell in enumerate(seats):
        board[cell] = occupied_cell(j)
    state = GameState(
        board=bytes(board),
        invaded=tuple(draw(st.lists(st.booleans(), min_size=p, max_size=p))),
        move=draw(st.integers(0, p - 1)),
        flag=draw(st.sampled_from((-1, 0, 1))),
        size=size,
        players=p,
    )
    receives = draw(st.lists(st.booleans(), min_size=p, max_size=p))
    return state, receives


@settings(max_examples=200, deadline=None)
@given(
    case=broadcast_cases(),
    action=st.sampled_from(list(Action)),
    delta=st.floats(-50, 50),
)
# the mover's delta lands verbatim, not recomputed
@example(case=(initial_state(3, 2), [True, True]), action=Action.RIGHT, delta=6.98)
# every seat but the mover gets one write, the last seat included
@example(
    case=(replace(initial_state(4, 4), move=2), [True] * 4),
    action=Action.DOWN, delta=1.0,
)
# seats with broadcasting disabled are skipped
@example(
    case=(initial_state(4, 4), [True, False, True, False]),
    action=Action.DOWN, delta=1.0,
)
def test_broadcast_lands_in_the_observers_shoes(case, action, delta):
    """Every observer write lands at encode_state(ola_state(state,
    observer, mover)) with the mover's delta; the mover and the seats
    that do not receive get none."""
    state, receives = case
    mover = state.move
    tables = [LoggingQTable() if on else None for on in receives]
    ola_broadcast(tables, encode_state(state), cells(state), action, delta, mover, HP)
    for observer, table in enumerate(tables):
        if table is None:
            continue
        expected = []
        if observer != mover:
            key = encode_state(ola_state(state, observer, mover))
            expected = [(key, action, 0.0, delta, delta)]
        assert table.write_log == expected


def test_agent_mode_flags():
    """hq learners broadcast and learn from votes, plain Q learners do
    neither, random agents keep no table."""
    cfg = RunConfig(
        size=4, total_steps=300, bin_size=300, trials=1,
        agent_kinds=(AgentKind.QLEARNER,) * 2, variant=Variant.SOVEREIGN,
    )
    for kind in (AgentKind.HQLEARNER, AgentKind.QLEARNER):
        res, steps = replay_against_oracle(replace(cfg, agent_kinds=(kind,) * 2), 5)
        turns = [0, 0]
        vote_updates = [0, 0]  # on success everyone, else defer voters
        for step in steps:
            if step.mover is None:
                for i in range(2):
                    vote_updates[i] += (
                        step.passed or step.actions[i] is Action.DEFER
                    )
            else:
                turns[step.mover] += 1
        writes = [len(t.write_log) for t in res.tables]
        if kind is AgentKind.HQLEARNER:
            assert sum(vote_updates) > 0
            # own turns, vote payouts, one broadcast per turn of the other
            assert writes == [
                turns[0] + vote_updates[0] + turns[1],
                turns[1] + vote_updates[1] + turns[0],
            ]
        else:
            assert writes == turns  # no broadcasts, no vote-payout updates
    res = run_game(
        replace(cfg, agent_kinds=(AgentKind.RANDOM,) * 2), 5, keep_tables=True
    )
    assert res.tables == [None, None]


# --- dump / load -----------------------------------------------------------------


def test_dump_load_roundtrip():
    q = QTable()
    rng = random.Random(99)
    for _ in range(20):
        key, action = rng.randbytes(5), Action(rng.randrange(6))
        q.rows.setdefault(key, [0.0] * 6)[action] = rng.uniform(-10, 10)
    text = dump_qtable(q)
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert all(len(line.split("\t")) == 3 for line in lines)
    loaded = {}
    for line in lines:
        hexkey, name, value = line.split("\t")
        row = loaded.setdefault(bytes.fromhex(hexkey), [0.0] * 6)
        row[Action[name.upper()]] = float(value)
    assert loaded == q.rows


def test_dump_format_17_significant_digits():
    q = QTable()
    q.rows[b"k"] = [1 / 3, 0.0, 0.0, 0.0, 0.0, 0.0]  # UP 1/3
    line = next(l for l in dump_qtable(q).splitlines() if "\tup\t" in l)
    assert float(line.split("\t")[2]) == 1 / 3
