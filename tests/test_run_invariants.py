"""Cross-cutting run-level invariants: write patterns, reproducibility,
forced-cycle behavior."""

import warnings
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from civgame.agents import AgentKind, Hyperparams, dump_qtable, epsilon_at
from civgame.experiment import (
    AgentSetup,
    agent_rng,
    MoveRecord,
    RunConfig,
    Variant,
    VoteRecord,
    run_game,
)
from civgame.game import Action, RewardConfig, reward
from conftest import LoggingQTable

H, Q, R = AgentKind.HQLEARNER, AgentKind.QLEARNER, AgentKind.RANDOM


def hql_cfg(**kw):
    defaults = dict(
        size=4,
        players=4,
        total_steps=1_500,
        bin_size=1_500,
        trials=1,
        agent_kinds=(AgentKind.HQLEARNER,) * 4,
        seed=19,
        variant=Variant.SOVEREIGN,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def instrumented_run(cfg, seed):
    tables = [LoggingQTable() for _ in range(cfg.players)]
    setups = [AgentSetup(kind=AgentKind.HQLEARNER, table=t) for t in tables]
    result = run_game(cfg, seed, setups=setups, keep_trace=True)
    return result, tables


def test_sovereign_write_pattern_by_turn_kind():
    """Ordinary turns write 4 tables (mover + 3 observers); successful
    votes write all 4 (everyone updates as a deferrer); failed votes
    write one per duped defer voter."""
    result, tables = instrumented_run(hql_cfg(), 19)
    expected = 0
    for record in result.trace:
        if isinstance(record, MoveRecord):
            expected += 4
        elif record.success:
            expected += 4
        else:
            expected += sum(b is Action.DEFER for b in record.ballots)
    assert sum(t.writes for t in tables) == expected


def test_tables_hold_only_written_rows():
    """Every row of every table was put there by a learning write: the
    hq seats of the sovereign game and the plain Q seats of the base
    game read many keys they never write, and those reads add nothing."""
    base = hql_cfg(
        variant=Variant.BASE, agent_kinds=(AgentKind.QLEARNER,) * 4
    )
    for cfg in (hql_cfg(), base):
        tables = [LoggingQTable() for _ in range(cfg.players)]
        setups = [AgentSetup(kind, table=t) for kind, t in zip(cfg.agent_kinds, tables)]
        run_game(cfg, 19, setups=setups)
        for t in tables:
            assert t.write_log
            assert set(t.rows) == {key for key, *_ in t.write_log}


def test_identical_seed_reproduces_final_tables_bitwise():
    cfg = hql_cfg(total_steps=600, bin_size=600)
    a = run_game(cfg, 3, keep_tables=True)
    b = run_game(cfg, 3, keep_tables=True)
    for ta, tb in zip(a.tables, b.tables):
        assert dump_qtable(ta) == dump_qtable(tb)
    assert a.rewards_per_player == b.rewards_per_player


def test_forced_cycle_rewards_equal_farm_count():
    """Every turn inside a forced-defer cycle pays exactly the mover's
    territory count, and no invasion events occur."""
    result, _ = instrumented_run(hql_cfg(total_steps=3_000, bin_size=3_000), 23)
    trace = result.trace
    checked = 0
    for k, record in enumerate(trace):
        if not (isinstance(record, VoteRecord) and record.success):
            continue
        for offset in range(1, 5):
            if k + offset >= len(trace):
                break
            move = trace[k + offset]
            assert isinstance(move, MoveRecord)
            assert move.action is Action.DEFER
            assert not move.invasion
            assert move.reward >= 0  # TERR only, never the invaded penalty
            checked += 1
    assert checked > 0


def test_reward_is_zero_for_non_movers():
    from civgame.game import initial_state

    s = replace(initial_state(4, 4), move=1, invaded=(True, True, True, True))
    cfg = RewardConfig()
    for player in (0, 2, 3):
        assert reward(s, Action.DOWN, cfg, player=player) == 0
    assert reward(s, Action.DOWN, cfg, player=1) == reward(s, Action.DOWN, cfg)
    assert reward(s, Action.DOWN, cfg) == -25


def test_base_variant_ci_sampling_counts_flags_each_cycle():
    """The invasions metric equals the flag counts observed at each
    cycle boundary, recomputed independently by replaying the trace."""
    from civgame.game import initial_state, transition

    cfg = RunConfig(
        size=4, players=2, total_steps=1_000, bin_size=1_000, trials=1,
        agent_kinds=(AgentKind.RANDOM,) * 2, seed=8, variant=Variant.BASE,
    )
    result = run_game(cfg, 8, keep_trace=True)
    state = initial_state(4, 2)
    expected = 0
    for record in result.trace:
        if state.move == 0:
            expected += sum(state.invaded)
        state = transition(state, record.action)
    assert result.bins[0].invasions == expected


def replay_against_oracle(cfg, seed, setups):
    """Replay a traced run through the public GameState functions.

    Every record's key, legality, reward and invasion flag must be what
    the GameState rules give, and every table write must be the one the
    rules call for: the mover's Bellman update at the record's key, with
    the max taken over the legal set the rules give at the next state;
    one broadcast write per receiving observer at the "in their shoes"
    key with the mover's delta; and the vote updates. Frozen seats
    (`learn=False`) write nothing. Shadow copies of the tables, rebuilt
    from the write logs, supply the values read.

    Every seat's draws are replayed from its own stream, so the loop
    must offer it the rules' legal set, in order: a random seat draws
    uniformly; a learner explores with probability epsilon_at(step) (or
    its fixed eps), else takes the best action of its shadow row,
    breaking ties uniformly.
    """
    from civgame.agents import ola_state
    from civgame.game import encode_state, initial_state, is_invasion, legal_actions
    from civgame.game import transition
    from civgame.sovereign import (
        consume_flag,
        sovereign_legal_actions,
        sovereign_reward,
        sovereign_transition,
    )

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
    result = run_game(cfg, seed, setups=setups, keep_trace=True)
    p, rc, hp = cfg.players, cfg.rewards, cfg.hp
    sovereign = cfg.variant is Variant.SOVEREIGN
    learns = [s.learn and s.kind is not AgentKind.RANDOM for s in setups]
    hq = [s.learn and s.kind is AgentKind.HQLEARNER for s in setups]
    cursor = [0] * p
    rngs = [agent_rng(seed, i) for i in range(p)]

    def check_choice(i, action, legal, key, step):
        assert action in legal
        rng = rngs[i]
        if setups[i].kind is not AgentKind.RANDOM:
            eps = setups[i].fixed_eps
            if eps is None:
                eps = epsilon_at(step, hp)
            if rng.random() >= eps:
                values = [value(i, key, a) for a in legal]
                ties = [a for a, v in zip(legal, values) if v == max(values)]
                if len(ties) == 1:
                    assert action == ties[0]
                else:
                    assert action == ties[rng.randrange(len(ties))]
                return
        assert action == legal[rng.randrange(len(legal))]

    def value(i, key, action):
        return shadow[i].get(key, (0.0,) * len(Action))[action]

    def check_write(i, key, action, delta=None):
        """Consume seat i's next write; returns its delta."""
        w_key, w_action, old, new, w_delta = tables[i].write_log[cursor[i]]
        cursor[i] += 1
        assert (w_key, w_action) == (key, action)
        assert old == value(i, key, action)
        if delta is not None:
            assert w_delta == delta
        assert new == (1 - hp.alpha) * old + w_delta
        shadow[i].setdefault(key, [0.0] * len(Action))[action] = new
        return w_delta

    def bellman(i, r, next_key, legal_next):
        best = max(value(i, next_key, a) for a in legal_next)
        return hp.alpha * (r + hp.gamma * best)

    state, phase = initial_state(cfg.size, p), 0
    for record in result.trace:
        assert record.key == encode_state(state)
        if isinstance(record, VoteRecord):
            assert record.invaded_sample == sum(state.invaded)
            for i, ballot in enumerate(record.ballots):
                legal = sovereign_legal_actions(state, i, phase)
                check_choice(i, ballot, legal, record.key, record.step)
            voted, phase = sovereign_transition(state, record.ballots, phase)
            assert record.success == (voted.flag == 1)
            state = consume_flag(voted)
            next_key = encode_state(state)
            legal_next = sovereign_legal_actions(state, 0, phase)
            for i, ballot in enumerate(record.ballots):
                payout = sovereign_reward(voted, ballot, rc)
                assert record.rewards[i] == payout
                if hq[i] and (record.success or ballot is Action.DEFER):
                    delta = bellman(i, payout, next_key, legal_next)
                    check_write(i, record.key, Action.DEFER, delta)
            continue
        mover = record.player
        assert mover == state.move
        legal = (
            sovereign_legal_actions(state, mover, phase)
            if sovereign else legal_actions(state, mover)
        )
        check_choice(mover, record.action, legal, record.key, record.step)
        assert record.reward == reward(state, record.action, rc)
        assert record.invasion == is_invasion(state, record.action)
        pre_state = state
        if sovereign:
            state, phase = sovereign_transition(state, record.action, phase)
            if state.move == p:  # the max ranges over the mover's own ballot
                legal_next = legal_actions(state, mover) + [Action.DEFER]
            else:
                legal_next = sovereign_legal_actions(state, state.move, phase)
        else:
            state = transition(state, record.action)
            legal_next = legal_actions(state, state.move)
        if not learns[mover]:
            continue
        delta = check_write(
            mover, record.key, record.action,
            bellman(mover, record.reward, encode_state(state), legal_next),
        )
        if hq[mover]:
            for i in range(p):
                if i != mover and hq[i]:
                    o_key = encode_state(ola_state(pre_state, i, mover))
                    check_write(i, o_key, record.action, delta)
    for i, table in enumerate(tables):
        if table is not None:
            assert cursor[i] == len(table.write_log)  # no write unaccounted for
    return result


def test_loop_matches_gamestate_oracle():
    runs = [
        (Variant.SOVEREIGN, 4, (H, H, H, H)),
        (Variant.SOVEREIGN, 4, (H, Q, R, H)),
        (Variant.SOVEREIGN, 3, (H, H)),  # small enough for keys to recur
        (Variant.BASE, 3, (H, Q)),
        (Variant.BASE, 5, (H, Q)),
        (Variant.BASE, 3, (H, H, R)),
        (Variant.BASE, 5, (H, H, R)),
    ]
    for variant, size, kinds in runs:
        cfg = hql_cfg(
            size=size, players=len(kinds), agent_kinds=kinds,
            total_steps=2_000, bin_size=2_000, variant=variant,
        )
        result = replay_against_oracle(cfg, 31, [AgentSetup(k) for k in kinds])
        assert sum(result.invasions_per_player) > 0, (variant, size, kinds)
        if variant is Variant.SOVEREIGN:
            votes = [r for r in result.trace if isinstance(r, VoteRecord)]
            assert any(v.success for v in votes) and not all(v.success for v in votes)


@st.composite
def oracle_runs(draw):
    """A short run of any size, variant, seat mix and reward signs, with
    frozen seats holding a trained table and seats at a fixed eps."""
    size = draw(st.integers(2, 6))
    p = draw(st.integers(1, 4))
    total = draw(st.integers(1, 300))
    bin_size = draw(st.sampled_from([d for d in range(1, total + 1) if total % d == 0]))
    with warnings.catch_warnings():  # a bonus above |penalty| only warns
        warnings.simplefilter("ignore")
        rewards = RewardConfig(
            invasion_bonus=draw(st.integers(0, 40)),
            invasion_penalty=draw(st.integers(-40, -1)),
            vote_bonus=draw(st.integers(-20, 20)),
            vote_penalty=draw(st.integers(-20, 20)),
        )
    unit = st.floats(0, 1)
    kinds = tuple(draw(st.lists(st.sampled_from((H, Q, R)), min_size=p, max_size=p)))
    cfg = RunConfig(
        size=size, players=p, total_steps=total, bin_size=bin_size, trials=1,
        agent_kinds=kinds, rewards=rewards,
        hp=Hyperparams(alpha=draw(unit), gamma=draw(unit), eps0=draw(unit),
                       eps_decay=draw(st.sampled_from((1.0, 0.999, 0.99)))),
        variant=draw(st.sampled_from(list(Variant))),
    )
    seats = [
        (draw(st.booleans()), draw(st.sampled_from((None, None, 0.0, 0.3, 1.0))))
        for _ in range(p)
    ]
    trained = run_game(cfg, draw(st.integers(0, 99)), keep_tables=True).tables
    setups = [
        AgentSetup(kind, table=None if learn else trained[i], learn=learn,
                   fixed_eps=eps)
        for i, (kind, (learn, eps)) in enumerate(zip(kinds, seats))
    ]
    return cfg, setups


@settings(max_examples=150, deadline=None)
@given(run=oracle_runs(), seed=st.integers(0, 2**32))
def test_generated_runs_match_gamestate_oracle(run, seed):
    cfg, setups = run
    replay_against_oracle(cfg, seed, setups)
