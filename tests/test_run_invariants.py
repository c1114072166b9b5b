"""Cross-cutting run-level invariants: write patterns, reproducibility,
forced-cycle behavior."""

from dataclasses import replace

from civgame.agents import AgentKind, QTable, dump_qtable
from civgame.experiment import (
    AgentSetup,
    MoveRecord,
    RunConfig,
    Variant,
    VoteRecord,
    run_game,
)
from civgame.game import Action, RewardConfig, reward


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
    tables = [QTable() for _ in range(cfg.players)]
    for t in tables:
        t.write_log = []
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
