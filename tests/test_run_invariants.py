"""Run-level checks: the GameState replay (conftest.replay_against_oracle)
on fixed and generated runs, each run-level rule an input to it, the
paths of run_game's own replay of periods included; plus the rows a
table holds and the turns of a forced-defer cycle."""

import warnings
from dataclasses import replace

from hypothesis import event, given, settings
from hypothesis import strategies as st

from civgame.agents import AgentKind, Hyperparams
from civgame.experiment import RunConfig, Variant, run_game
from civgame.game import Action, RewardConfig
from conftest import LoggingQTable, logged_replays, replay_against_oracle

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
    """A run of any size, variant, seat mix and reward signs, with frozen
    seats at a fixed eps holding a trained table. Most are short; a
    settling share runs up to 3,000 steps on boards 2-3 in bins of 7
    steps and up, its exploration fading (eps decay 0.99 from eps0 at
    most 0.2) and its frozen seats at eps 0 or 0.001, so that play
    settles and run_game's replay of periods is reached."""
    settling = draw(st.booleans())
    size = draw(st.integers(2, 3 if settling else 6))
    p = draw(st.integers(1, 4))
    total = draw(st.integers(7, 3_000) if settling else st.integers(1, 300))
    bin_size = draw(st.sampled_from([
        d for d in range(7 if settling else 1, total + 1) if total % d == 0
    ]))
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
    decays = (0.99,) if settling else (1.0, 0.999, 0.99)
    cfg = RunConfig(
        size=size, total_steps=total, bin_size=bin_size, trials=1,
        agent_kinds=kinds, rewards=rewards,
        hp=Hyperparams(alpha=draw(unit), gamma=draw(unit),
                       eps0=draw(st.floats(0, 0.2) if settling else unit),
                       eps_decay=draw(st.sampled_from(decays))),
        variant=draw(st.sampled_from(list(Variant))),
    )
    # per seat: None (learning) or the eps it plays frozen at
    frozen_at = (0.0, 0.001) if settling else (0.0, 0.3, 1.0)
    frozen_eps = draw(st.lists(
        st.none() | st.sampled_from(frozen_at), min_size=p, max_size=p
    ))
    trained = run_game(cfg, draw(st.integers(0, 99)), keep_tables=True).tables
    tables = [None if eps is None else t for t, eps in zip(trained, frozen_eps)]
    return cfg, tables, frozen_eps


@settings(max_examples=150, deadline=None)
@given(run=oracle_runs(), seed=st.integers(0, 2**32))
def test_generated_runs_match_gamestate_oracle(run, seed):
    cfg, tables, frozen_eps = run
    with logged_replays() as log:
        replay_against_oracle(cfg, seed, tables, frozen_eps)
    event("replayed" if log.periods else "not replayed")


# --- run_game's replay of periods that changed nothing ---------------------------


def settling_pair(**kw):
    """Two seats on 3x3, hq in the sovereign game unless given, whose
    exploration fades within the run, so that their play settles."""
    return hql_cfg(**{
        **dict(size=3, total_steps=3_000, bin_size=3_000, agent_kinds=(H, H),
               hp=Hyperparams(eps_decay=0.99)),
        **kw,
    })


def frozen_base_pair():
    """A plain Q pair trained on 3x3 in the base game, and the config its
    frozen play runs in."""
    cfg = settling_pair(agent_kinds=(Q, Q), variant=Variant.BASE)
    return cfg, run_game(cfg, 3, keep_tables=True).tables


def test_replay_of_the_sovereign_fixed_point(replay_log):
    """Learning hq seats reach a vote cycle that changes no value: it
    replays at lag 1, one cycle of 3 steps, and each table counts the
    period's writes without making them, which the oracle checks against
    the writes it makes itself."""
    result, _ = replay_against_oracle(settling_pair(), 3)
    assert {length for *_, length in replay_log.periods} == {3}
    assert sum(times * n for _, times, n in replay_log.periods) > 2_000
    assert all(t.writes > len(t.write_log) for t in result.tables)


def test_replay_of_the_frozen_base_orbit(replay_log):
    """Two frozen greedy seats in the base game settle into an orbit of
    two keys at the top of seat 0's turn: it replays at lag 2, two cycles
    of 2 steps, with no table written."""
    cfg, tables = frozen_base_pair()
    result, _ = replay_against_oracle(cfg, 13, tables, [0.0, 0.0])
    assert {length for *_, length in replay_log.periods} == {4}
    assert sum(times * n for _, times, n in replay_log.periods) > 2_000
    assert all(not table.write_log for table in result.tables)


def test_replay_stops_at_an_explored_move(replay_log):
    """At eps 0.05 a replay draws moves off the greedy choices: the draws
    made so far are played as drawn, and play goes on from there."""
    cfg, tables = frozen_base_pair()
    replay_against_oracle(cfg, 13, tables, [0.05, 0.05])
    assert replay_log.periods
    assert any(action not in greedy for _, greedy, action in replay_log.draws)


def test_replay_stops_at_a_failed_vote(replay_log):
    """A replay draws a ballot other than the recorded DEFER; with two
    seats that vote fails, and learning goes on from it."""
    replay_against_oracle(settling_pair(), 2)
    assert replay_log.periods
    assert any(
        list(greedy) == [Action.DEFER] and action is not Action.DEFER
        for _, greedy, action in replay_log.draws
    )


def test_replay_stops_at_a_bin_boundary(replay_log):
    """Bins of 100 or 50 steps cut the learning pair's 3-step period, and
    bins of 20 the 4-step orbit of the frozen base pair at eps 0.05:
    each bin replays the periods that fit in it and plays the rest, and
    a period whose recording ran past its bin's end is not kept."""
    base, trained = frozen_base_pair()
    runs = [
        (settling_pair(bin_size=100), 3, None, None, 3),
        (settling_pair(bin_size=50), 2, None, None, 3),
        (replace(base, bin_size=20), 1, trained, [0.05, 0.05], 4),
    ]
    for cfg, seed, tables, frozen_eps, length in runs:
        replay_log.periods.clear()
        replay_against_oracle(cfg, seed, tables, frozen_eps)
        assert {n for *_, n in replay_log.periods} == {length}
        assert len({start for start, *_ in replay_log.periods}) > 10


def test_replay_of_a_learner_beside_a_frozen_seat(replay_log):
    """Seat 0 goes on learning from its trained table while seat 1 plays
    frozen at eps 0: the period's learners are only seat 0, whose table
    counts the replayed writes, and the frozen table writes nothing."""
    cfg = settling_pair()
    tables = run_game(cfg, 3, keep_tables=True).tables
    result, _ = replay_against_oracle(cfg, 5, tables, [None, 0.0])
    assert replay_log.periods
    learner, frozen = result.tables
    assert learner.writes > len(learner.write_log)
    assert frozen.writes == 0 and not frozen.write_log
