"""Cross-cutting run-level invariants: write patterns, forced-cycle
behavior."""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from civgame.agents import AgentKind, Hyperparams
from civgame.experiment import AgentSetup, RunConfig, Variant, run_game
from civgame.game import Action, RewardConfig
from conftest import LoggingQTable, replay_against_oracle

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


def test_sovereign_write_pattern_by_turn_kind():
    """Ordinary turns write 4 tables (mover + 3 observers); successful
    votes write all 4 (everyone updates as a deferrer); failed votes
    write one per duped defer voter."""
    result, steps = replay_against_oracle(hql_cfg(), 19)
    expected = 0
    for step in steps:
        if step.mover is not None or step.passed:
            expected += 4
        else:
            expected += step.actions.count(Action.DEFER)
    assert sum(t.writes for t in result.tables) == expected


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


def test_forced_cycle_rewards_equal_farm_count():
    """Every turn inside a forced-defer cycle pays exactly the mover's
    territory count, and no invasion events occur."""
    _, steps = replay_against_oracle(hql_cfg(total_steps=3_000, bin_size=3_000), 23)
    checked = 0
    for k, step in enumerate(steps):
        if not step.passed:
            continue
        for move in steps[k + 1 : k + 5]:
            assert move.mover is not None
            assert move.actions == (Action.DEFER,)
            assert not move.invasion
            assert move.rewards[0] >= 0  # TERR only, never the invaded penalty
            checked += 1
    assert checked > 0


def test_base_variant_ci_sampling_counts_flags_each_cycle():
    """The invasions metric equals the flag counts observed at each
    cycle boundary, recounted independently by the replay."""
    cfg = RunConfig(
        size=4, players=2, total_steps=1_000, bin_size=1_000, trials=1,
        agent_kinds=(AgentKind.RANDOM,) * 2, seed=8, variant=Variant.BASE,
    )
    result, _ = replay_against_oracle(cfg, 8)
    assert result.bins[0].invasions > 0


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
        result, _ = replay_against_oracle(cfg, 31)
        assert sum(result.invasions_per_player) > 0, (variant, size, kinds)
        if variant is Variant.SOVEREIGN:
            passed = sum(b.successful_defers for b in result.bins)
            assert 0 < passed < 2_000 // (len(kinds) + 1)  # some votes fail


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
