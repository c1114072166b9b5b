"""Matrix extraction: behavior metric, thresholds, payoffs, classification."""

from dataclasses import replace

import pytest

from civgame.agents import AgentKind, QTable
from civgame.experiment import RunConfig, Variant, run_game
from civgame.matrix import (
    AnalysisConfig,
    DilemmaClass,
    PayoffMatrix,
    PolicyClassificationError,
    TrainedPolicy,
    alpha_from_counts,
    play_matchup,
    run_payoff_trials,
    write_matrix_csv,
)
from conftest import replay_against_oracle


def sovereign_cfg(steps, seed):
    return RunConfig(
        size=4, total_steps=steps, bin_size=steps, trials=1,
        agent_kinds=(AgentKind.QLEARNER,) * 2, seed=seed,
        variant=Variant.SOVEREIGN,
    )


def own_moves(steps, player):
    """The player's turns and ballots among the replay's steps, and how
    many of its turns invaded."""
    own = [s for s in steps if s.mover in (None, player)]
    return len(own), sum(s.invasion for s in own)


# --- social behavior metric ------------------------------------------------


def test_social_metric_arithmetic():
    assert alpha_from_counts(4, 200) == pytest.approx(2.0)
    assert alpha_from_counts(0, 100) == 0.0


def test_social_metric_counts_ballots_as_moves():
    # 2 players: a vote every 3rd step, and each vote is a move for both
    res = run_game(sovereign_cfg(600, 6), 6)
    votes = 600 // 3
    assert sum(res.moves_per_player) == (600 - votes) + 2 * votes
    assert res.moves_per_player == [400, 400]


def test_social_metric_agrees_with_run_counters():
    """Each seat's alpha from the run's counters equals its replay recount."""
    res, steps = replay_against_oracle(sovereign_cfg(600, 6), 6)
    for player in range(2):
        moves, invasions = own_moves(steps, player)
        assert invasions > 0
        assert res.invasions_per_player[player] == invasions
        assert res.moves_per_player[player] == moves
        assert alpha_from_counts(
            res.invasions_per_player[player], res.moves_per_player[player]
        ) == alpha_from_counts(invasions, moves)


# --- classification ----------------------------------------------------------


def test_thresholds_must_be_ordered():
    for alpha_c, alpha_d in ((15, 5), (5, 5)):
        with pytest.raises(ValueError, match="alpha_c must be below alpha_d"):
            AnalysisConfig(alpha_c=alpha_c, alpha_d=alpha_d)


# --- payoff matrix ------------------------------------------------------------


def test_stag_hunt_reference_matrix():
    m = PayoffMatrix(R=4, P=1, S=0, T=3)
    assert (m.fear, m.greed) == (1, -1)
    assert m.classification is DilemmaClass.STAG_HUNT


def test_prisoners_dilemma_reference_matrix():
    m = PayoffMatrix(R=3, P=1, S=0, T=4)
    assert (m.fear, m.greed) == (1, 1)
    assert m.classification is DilemmaClass.PRISONERS_DILEMMA


def test_reported_empirical_matrix_is_stag_hunt():
    m = PayoffMatrix(R=0.459, P=0.455, S=0.426, T=0.446)
    assert m.fear == pytest.approx(0.029)
    assert m.greed == pytest.approx(-0.013)
    assert m.classification is DilemmaClass.STAG_HUNT


def test_greed_only_is_other_dilemma():
    m = PayoffMatrix(R=3, P=0, S=1, T=4)  # chicken-like
    assert m.classification is DilemmaClass.OTHER_DILEMMA


def test_no_dilemma_when_inequalities_fail():
    assert (
        PayoffMatrix(R=1, P=2, S=0, T=0).classification
        is DilemmaClass.NOT_SOCIAL_DILEMMA
    )
    assert (
        PayoffMatrix(R=4, P=1, S=2, T=3).classification
        is DilemmaClass.NOT_SOCIAL_DILEMMA
    )  # fear and greed both absent


def test_fear_greed_degenerate_all_equal():
    m = PayoffMatrix(1.5, 1.5, 1.5, 1.5)
    assert (m.fear, m.greed) == (0.0, 0.0)


def test_fear_greed_matches_stored_fields_exactly():
    m = PayoffMatrix(R=0.459, P=0.455, S=0.426, T=0.446)
    assert (m.fear, m.greed) == (0.455 - 0.426, 0.446 - 0.459)


# --- long-term payoff ----------------------------------------------------------


def test_long_term_payoff_counts_votes_and_moves():
    """A frozen sovereign match pays each seat its own turns' rewards plus
    its share of every vote payout, per step."""
    cfg = AnalysisConfig(
        size=4, players=2, match_steps=300, match_variant=Variant.SOVEREIGN
    )
    tables = [QTable(), QTable()]
    payoffs = play_matchup(cfg, tables, [1.0, 1.0], 4)
    # the same match, replayed through the GameState rules
    run_cfg = RunConfig(
        size=4, total_steps=300, bin_size=300, trials=1,
        agent_kinds=(AgentKind.QLEARNER,) * 2, variant=Variant.SOVEREIGN,
    )
    res, _ = replay_against_oracle(run_cfg, 4, tables, [1.0, 1.0])
    assert payoffs == [r / 300 for r in res.rewards_per_player]


# --- matchup plumbing -----------------------------------------------------------


def make_policy(alpha, eps=0.0):
    return TrainedPolicy(tables=[QTable(), QTable()], final_eps=eps, alpha=alpha)


@pytest.fixture
def stub_matchup(monkeypatch):
    """Replaces play_matchup; install(coop, defect, payoffs) arms it and
    returns the list of seeds the fake is called with.

    The fake returns the given per-seat payoffs in call order. Each call
    must bring the seating that run_payoff_trials owes it, in the order
    cc, dd, cd, dc per trial: the tables by identity and the eps by
    value, with the mixed seatings split at half = p // 2.
    """

    def install(coop, defect, payoffs_by_call):
        calls = iter(payoffs_by_call)
        seeds = []  # one per call

        def fake(cfg, tables, eps_by_seat, seed):
            p, half = cfg.players, cfg.players // 2
            c, d = coop.tables, defect.tables
            ec, ed = [coop.final_eps] * p, [defect.final_eps] * p
            want = [
                (c, ec), (d, ed),
                (c[:half] + d[half:], ec[:half] + ed[half:]),
                (d[:half] + c[half:], ed[:half] + ec[half:]),
            ][len(seeds) % 4]
            seeds.append(seed)
            assert len(tables) == p
            assert all(t is w for t, w in zip(tables, want[0]))
            assert list(eps_by_seat) == want[1]
            return next(calls)

        monkeypatch.setattr("civgame.matrix.play_matchup", fake)
        return seeds

    return install


def test_payoff_matrix_reproduces_stub_values(stub_matchup):
    coop = make_policy(alpha=1.0, eps=0.01)
    defect = make_policy(alpha=30.0, eps=0.2)
    cfg = AnalysisConfig(match_trials=1, seed=5, workers=1)
    # calls per trial: cc, dd, cd, dc
    calls = stub_matchup(
        coop, defect, [[4.0, 4.0], [1.0, 1.0], [0.0, 3.0], [3.0, 0.0]]
    )
    m = run_payoff_trials(cfg, coop, defect).aggregate
    assert len(calls) == 4
    assert (m.R, m.P, m.S, m.T) == (4.0, 1.0, 0.0, 3.0)
    assert m.classification is DilemmaClass.STAG_HUNT


def test_payoff_matrix_averages_mixed_seatings(stub_matchup):
    coop = make_policy(alpha=0.0, eps=0.01)
    defect = make_policy(alpha=99.0, eps=0.2)
    cfg = AnalysisConfig(match_trials=1, seed=5, workers=1)
    stub_matchup(
        coop, defect, [[4.0, 4.0], [1.0, 1.0], [0.2, 3.0], [3.4, 0.4]]
    )
    m = run_payoff_trials(cfg, coop, defect).aggregate
    assert m.S == pytest.approx(0.3)  # (0.2 + 0.4) / 2
    assert m.T == pytest.approx(3.2)  # (3.0 + 3.4) / 2


def test_payoff_matrix_rejects_misclassified_inputs(stub_matchup):
    coop = make_policy(alpha=10.0)  # in the gap
    defect = make_policy(alpha=30.0)
    cfg = AnalysisConfig(match_trials=1, workers=1)
    calls = stub_matchup(coop, defect, [])
    with pytest.raises(PolicyClassificationError) as err:
        run_payoff_trials(cfg, coop, defect)
    assert str(err.value) == (
        "policy classification failed: cooperative alpha=10.000, "
        "defecting alpha=30.000 (thresholds 5.0/15.0)"
    )
    # the cutoffs are strict: alpha_c itself is not cooperative, nor
    # alpha_d itself defecting
    for coop_alpha, defect_alpha in ((0.0, 10.0), (5.0, 30.0), (0.0, 15.0)):
        with pytest.raises(PolicyClassificationError):
            run_payoff_trials(
                cfg, make_policy(alpha=coop_alpha), make_policy(alpha=defect_alpha)
            )
    assert calls == []


def test_run_payoff_trials_aggregate_and_fraction(tmp_path, stub_matchup):
    coop = make_policy(alpha=1.0, eps=0.01)
    defect = make_policy(alpha=30.0, eps=0.2)
    cfg = AnalysisConfig(match_trials=2, seed=5, workers=1)
    stub_matchup(
        coop,
        defect,
        [
            [4.0, 4.0], [1.0, 1.0], [0.0, 3.0], [3.0, 0.0],  # stag hunt
            [3.0, 3.0], [1.0, 1.0], [0.0, 4.0], [4.0, 0.0],  # prisoner's
        ],
    )
    result = run_payoff_trials(cfg, coop, defect)
    assert [m.classification for m in result.per_trial] == [
        DilemmaClass.STAG_HUNT,
        DilemmaClass.PRISONERS_DILEMMA,
    ]
    assert result.stag_hunt_fraction == 0.5
    assert result.aggregate.R == pytest.approx(3.5)

    out = tmp_path / "matrix.csv"
    write_matrix_csv(result, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,R,P,S,T,fear,greed,classification"
    assert len(lines) == 1 + 2 + 1
    assert lines[-1].startswith("aggregate,")
    assert lines[-1].endswith(",0.5")


def test_frozen_matchup_runs_and_is_seeded():
    """End-to-end miniature: tiny training then a real frozen matchup."""
    from civgame.matrix import train_policy

    cfg = AnalysisConfig(
        size=3,
        players=2,
        train_steps=3_000,
        match_steps=600,
        eval_steps=600,
        match_trials=1,
        seed=3,
    )
    policy = train_policy(cfg, AgentKind.HQLEARNER)
    assert len(policy.tables) == 2
    a1 = play_matchup(cfg, policy.tables, [0.01, 0.01], 42)
    a2 = play_matchup(cfg, policy.tables, [0.01, 0.01], 42)
    assert a1 == a2
    b1 = play_matchup(cfg, policy.tables, [0.01, 0.01], 43)
    assert len(b1) == 2


def test_play_matchup_leaves_input_tables_unchanged():
    """Frozen play reads the trained tables without adding rows to them,
    in the matchup variant and in the sovereign one."""
    from civgame.agents import dump_qtable

    cfg = AnalysisConfig(size=4, players=2, match_steps=2_000)
    trained = run_game(
        RunConfig(
            size=4, total_steps=2_000, bin_size=2_000, trials=1,
            agent_kinds=(AgentKind.QLEARNER,) * 2, variant=Variant.BASE,
        ),
        6,
        keep_tables=True,
    )
    tables = trained.tables
    before = [(len(t), dump_qtable(t)) for t in tables]
    for variant in (Variant.BASE, Variant.SOVEREIGN):
        play_matchup(replace(cfg, match_variant=variant), tables, [0.1, 0.1], 8)
    assert [(len(t), dump_qtable(t)) for t in tables] == before


# --- matchups over worker processes ---------------------------------------------


def trained_policy(seed, final_eps, alpha):
    """Small real tables from a short learning run, with an in-class alpha."""
    trained = run_game(
        RunConfig(
            size=4, total_steps=2_000, bin_size=2_000, trials=1,
            agent_kinds=(AgentKind.QLEARNER,) * 2, variant=Variant.BASE,
        ),
        seed,
        keep_tables=True,
    )
    return TrainedPolicy(tables=trained.tables, final_eps=final_eps, alpha=alpha)


def test_matrix_csv_does_not_depend_on_workers(tmp_path):
    coop = trained_policy(6, final_eps=0.01, alpha=1.0)
    defect = trained_policy(7, final_eps=0.2, alpha=30.0)
    texts = []
    for workers in (1, 2, 3):
        cfg = AnalysisConfig(
            size=4, players=2, match_steps=400, match_trials=2, seed=9,
            workers=workers,
        )
        out = tmp_path / f"matrix-{workers}.csv"
        write_matrix_csv(run_payoff_trials(cfg, coop, defect), str(out))
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_matchup_pool_never_has_more_processes_than_jobs(fake_pool):
    coop = make_policy(alpha=1.0)
    defect = make_policy(alpha=30.0)
    results = []
    for workers in (8, 1):
        cfg = AnalysisConfig(match_steps=100, match_trials=1, workers=workers)
        results.append(run_payoff_trials(cfg, coop, defect))
    # four matchups per trial; workers=1 makes no pool at all
    assert fake_pool == [4]
    assert results[0] == results[1]
    with pytest.raises(ValueError, match="workers"):
        AnalysisConfig(workers=0)
