"""Run-level checks: the GameState replay (conftest.replay_against_oracle)
on fixed and generated runs, each run-level rule an input to it; plus
the rows a table holds and the turns of a forced-defer cycle."""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from civgame.agents import AgentKind, Hyperparams
from civgame.experiment import RunConfig, Variant, run_game
from civgame.game import Action, RewardConfig
from conftest import LoggingQTable, replay_against_oracle

H, Q, R = AgentKind.HQLEARNER, AgentKind.QLEARNER, AgentKind.RANDOM


def hql_cfg(**kw):
    defaults = dict(
        size=4,
        total_steps=1_500,
        bin_size=1_500,
        trials=1,
        agent_kinds=(AgentKind.HQLEARNER,) * 4,
        seed=19,
        variant=Variant.SOVEREIGN,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_tables_hold_only_written_rows():
    """Every row of every table was put there by a learning write: the
    hq seats of the sovereign game and the plain Q seats of the base
    game read many keys they never write, and those reads add nothing."""
    base = hql_cfg(
        variant=Variant.BASE, agent_kinds=(AgentKind.QLEARNER,) * 4
    )
    for cfg in (hql_cfg(), base):
        tables = [LoggingQTable() for _ in range(cfg.players)]
        run_game(cfg, 19, tables=tables)
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
        for seat, move in enumerate(steps[k + 1 : k + 5]):
            assert move.mover == seat
            assert move.actions == (Action.DEFER,)
            assert not move.invasion
            assert move.rewards[0] >= 0  # TERR only, never the invaded penalty
            checked += 1
    assert checked > 0


def test_loop_matches_gamestate_oracle():
    runs = [
        (Variant.SOVEREIGN, 4, (H, H, H, H)),
        (Variant.SOVEREIGN, 4, (H, Q, R, H)),
        (Variant.SOVEREIGN, 3, (H, H)),  # small enough for keys to recur
        (Variant.BASE, 3, (H, Q)),
        (Variant.BASE, 5, (H, Q)),
        (Variant.BASE, 3, (H, H, R)),
        (Variant.BASE, 5, (H, H, R)),
        (Variant.BASE, 4, (H, H, H, H)),
        (Variant.BASE, 4, (R, R)),
    ]
    for variant, size, kinds in runs:
        cfg = hql_cfg(
            size=size, agent_kinds=kinds,
            total_steps=2_000, bin_size=500, variant=variant,
        )
        result, _ = replay_against_oracle(cfg, 31)
        assert sum(result.invasions_per_player) > 0, (variant, size, kinds)
        assert sum(b.invasions for b in result.bins) > 0, (variant, size, kinds)
        if variant is Variant.SOVEREIGN:
            passed = sum(b.successful_defers for b in result.bins)
            assert 0 < passed < 2_000 // (len(kinds) + 1)  # some votes fail


@st.composite
def oracle_runs(draw):
    """A short run of any size, variant, seat mix and reward signs, with
    frozen seats at a fixed eps holding a trained table."""
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
        size=size, total_steps=total, bin_size=bin_size, trials=1,
        agent_kinds=kinds, rewards=rewards,
        hp=Hyperparams(alpha=draw(unit), gamma=draw(unit), eps0=draw(unit),
                       eps_decay=draw(st.sampled_from((1.0, 0.999, 0.99)))),
        variant=draw(st.sampled_from(list(Variant))),
    )
    # per seat: None (learning) or the eps it plays frozen at
    frozen_eps = draw(st.lists(
        st.none() | st.sampled_from((0.0, 0.3, 1.0)), min_size=p, max_size=p
    ))
    trained = run_game(cfg, draw(st.integers(0, 99)), keep_tables=True).tables
    tables = [None if eps is None else t for t, eps in zip(trained, frozen_eps)]
    return cfg, tables, frozen_eps


@settings(max_examples=150, deadline=None)
@given(run=oracle_runs(), seed=st.integers(0, 2**32))
def test_generated_runs_match_gamestate_oracle(run, seed):
    cfg, tables, frozen_eps = run
    replay_against_oracle(cfg, seed, tables, frozen_eps)
