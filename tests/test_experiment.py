"""Harness: binning, replayed runs, determinism, aggregation, CSV round-trips."""

import csv
import re

import pytest

from civgame import charts
from civgame.agents import AgentKind, dump_qtable
from civgame.experiment import (
    LEARNING_CURVE_HEADER,
    MetricsBin,
    RunConfig,
    Variant,
    run_game,
    run_trials,
    trial_seed,
    write_actions,
    write_learning_curve,
)
from civgame.game import Action
from conftest import replay_against_oracle


def small_cfg(**kw) -> RunConfig:
    defaults = dict(
        size=4,
        players=4,
        total_steps=2_500,
        bin_size=2_500,
        trials=1,
        agent_kinds=(AgentKind.HQLEARNER,) * 4,
        seed=11,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(total_steps=1000, bin_size=300)
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(players=3)  # agent_kinds length mismatch


def test_single_bin_run():
    res = run_game(small_cfg(), 11)
    assert len(res.bins) == 1
    assert res.bins[0].bin_start == 0


def test_deterministic_same_seed_identical_traces():
    cfg = small_cfg(total_steps=1_000, bin_size=100)
    a, b, c = (run_game(cfg, seed, keep_tables=True) for seed in (5, 5, 6))

    def dumps(res):
        return [dump_qtable(t) for t in res.tables]

    assert a.bins == b.bins
    assert a.rewards_per_player == b.rewards_per_player
    assert a.invasions_per_player == b.invasions_per_player
    assert dumps(a) == dumps(b)
    assert c.bins != a.bins
    assert dumps(c) != dumps(a)


def test_bins_match_trace_refold():
    for variant in (Variant.BASE, Variant.SOVEREIGN):
        cfg = small_cfg(total_steps=4_000, bin_size=1_000, variant=variant)
        res, _ = replay_against_oracle(cfg, 9)
        assert len(res.bins) == 4
        assert sum(res.invasions_per_player) > 0  # the invasion counters were exercised


def test_action_breakdown_matches_bins():
    # a bin's 1,000 steps: 1,000 turns, or 800 turns and 200 four-seat votes
    for variant, moves in ((Variant.BASE, 1_000), (Variant.SOVEREIGN, 1_600)):
        cfg = small_cfg(total_steps=3_000, bin_size=1_000, variant=variant)
        res, _ = replay_against_oracle(cfg, 8)
        assert [sum(map(sum, b.action_counts)) for b in res.bins] == [moves] * 3


def test_action_counts_partition_moves():
    cfg = small_cfg(total_steps=5_000, bin_size=1_000)
    res = run_game(cfg, 4)
    for player in range(4):
        total = sum(b.action_counts[player][a] for b in res.bins for a in range(6))
        assert total == res.moves_per_player[player]
    # 1,000 five-step cycles: one turn and one ballot per seat in each
    assert res.moves_per_player == [2_000] * 4


def test_stay_never_chosen_on_open_board():
    # with one opponent a player can never be boxed in on a 4x4 board
    cfg = small_cfg(
        total_steps=2_500, players=2,
        agent_kinds=(AgentKind.RANDOM,) * 2, variant=Variant.BASE,
    )
    res = run_game(cfg, 2)
    stay = sum(b.action_counts[i][Action.STAY] for b in res.bins for i in range(2))
    assert stay == 0


def test_random_agents_score_negative():
    cfg = small_cfg(
        total_steps=10_000, bin_size=2_500, agent_kinds=(AgentKind.RANDOM,) * 4
    )
    res = run_game(cfg, 17)
    assert all(b.cs_avg < 0 for b in res.bins)


def test_sd_bounded_by_vote_opportunities():
    cfg = small_cfg(total_steps=10_000, bin_size=2_500)
    res = run_game(cfg, 13)
    for b in res.bins:
        assert 0 <= b.successful_defers <= 2_500 // 5


def test_base_variant_has_no_votes_or_defers():
    cfg = small_cfg(total_steps=2_500, variant=Variant.BASE)
    res, steps = replay_against_oracle(cfg, 21)
    assert all(step.mover is not None for step in steps)
    assert sum(res.moves_per_player) == 2_500  # one move per step, no ballots
    assert res.bins[0].successful_defers == 0
    assert all(b.action_counts[i][Action.DEFER] == 0 for b in res.bins for i in range(4))


def test_vote_records_appear_every_cycle():
    cfg = small_cfg(total_steps=500, bin_size=500)
    _, steps = replay_against_oracle(cfg, 30)
    votes = [step for step in steps if step.mover is None]
    assert len(votes) == 500 // 5
    assert all(step.t % 5 == 4 for step in votes)


def test_forced_defer_cycle_counts_defers_for_everyone():
    cfg = small_cfg(total_steps=2_500)
    res, steps = replay_against_oracle(cfg, 31)
    successes = [step for step in steps if step.passed]
    assert successes and res.bins[0].successful_defers == len(successes)
    first = successes[0].t
    # the next p steps after a success are forced defers by players 0..3
    for offset in range(1, 5):
        step = steps[first + offset]
        assert step.mover == offset - 1
        assert step.actions == (Action.DEFER,)


def test_random_tables_never_created():
    cfg = small_cfg(agent_kinds=(AgentKind.RANDOM,) * 4)
    res = run_game(cfg, 1, keep_tables=True)
    assert res.tables == [None] * 4


def _write_curve(path, cs_avgs_per_trial):
    """A learning_curve.csv of 500-step bins with these cs_avg series."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(LEARNING_CURVE_HEADER)
        for trial, series in enumerate(cs_avgs_per_trial):
            for k, avg in enumerate(series):
                w.writerow([trial, k * 500, avg * 500, avg, 0, 0])


def _points(svg, tag):
    """The points of the first <tag> element: the cs_avg panel's."""
    return re.search(f'<{tag} points="([^"]*)"', svg).group(1)


def _panel_points(xs, ys, lo, hi):
    """charts' pixel text for (x, y) pairs in the top panel, y range lo..hi."""
    x_lo, x_hi = min(xs), max(xs)
    bottom, top = charts.PANEL_H - charts.MARGIN_B, charts.MARGIN_T
    x_px_lo, x_px_hi = charts.MARGIN_L, charts.PANEL_W - charts.MARGIN_R
    return " ".join(
        f"{charts._fmt(x_px_lo + (x - x_lo) / (x_hi - x_lo) * (x_px_hi - x_px_lo))},"
        f"{charts._fmt(bottom + (y - lo) / (hi - lo) * (top - bottom))}"
        for x, y in zip(xs, ys)
    )


def test_trial_summary_degenerate_single_trial(tmp_path):
    path = tmp_path / "learning_curve.csv"
    values = [0.5, -1.5, 2.0]
    _write_curve(path, [values])
    svg = charts.render_csv(str(path))
    # one trial: the line is the raw series and there is no band
    assert _points(svg, "polyline") == _panel_points([0, 500, 1000], values, -1.5, 2.0)
    assert "<polygon" not in svg


def test_trial_summary_median_min_max(tmp_path):
    path = tmp_path / "learning_curve.csv"
    # per bin, the median differs from the mean
    _write_curve(path, [[-1.0, 3.0], [0.0, -2.0], [4.0, 1.0]])
    svg = charts.render_csv(str(path))
    xs, lo, hi = [0, 500], -2.0, 4.0
    assert _points(svg, "polyline") == _panel_points(xs, [0.0, 1.0], lo, hi)
    # the band runs along the maxima, then back along the minima
    band = _panel_points(xs + xs[::-1], [4.0, 3.0, -2.0, -1.0], lo, hi)
    assert _points(svg, "polygon") == band


def test_parallel_trials_match_sequential():
    seq = run_trials(small_cfg(total_steps=1_000, bin_size=500, trials=3, workers=1))
    par = run_trials(small_cfg(total_steps=1_000, bin_size=500, trials=3, workers=2))
    for a, b in zip(seq, par):
        assert [x.cs_sum for x in a] == [x.cs_sum for x in b]
        assert [x.invasions for x in a] == [x.invasions for x in b]
        assert [x.action_counts for x in a] == [x.action_counts for x in b]


def test_pool_never_has_more_processes_than_trials(fake_pool):
    for workers, trials in ((8, 3), (2, 3), (3, 2)):
        cfg = small_cfg(total_steps=500, bin_size=500, trials=trials, workers=workers)
        assert len(run_trials(cfg)) == trials
    assert fake_pool == [3, 2, 2]


def test_pool_never_has_more_processes_than_cpus(fake_pool, monkeypatch):
    cfg = small_cfg(total_steps=500, bin_size=500, trials=3, workers=8)
    for cpus in (2, 1, None):  # None: the count is unknown
        monkeypatch.setattr("civgame.experiment.os.cpu_count", lambda n=cpus: n)
        assert len(run_trials(cfg)) == 3
    # one CPU, or an unknown count, runs the trials inline
    assert fake_pool == [2]


def test_trial_seeds_are_master_plus_index():
    assert trial_seed(100, 0) == 100
    trials = run_trials(small_cfg(total_steps=500, bin_size=500, trials=2))
    assert trials[0] != trials[1]


@pytest.mark.parametrize("seats", [2, 4])
def test_csv_round_trip(tmp_path, seats):
    cfg = small_cfg(total_steps=1_000, bin_size=500, trials=2, players=seats,
                    agent_kinds=(AgentKind.HQLEARNER,) * seats)
    trials = run_trials(cfg)
    curve = tmp_path / "learning_curve.csv"
    actions = tmp_path / "actions.csv"
    write_learning_curve(trials, str(curve))
    write_actions(trials, str(actions))

    with open(curve, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 * 2
    for trial, series in enumerate(trials):
        for b in series:
            row = next(
                r for r in rows
                if int(r["trial"]) == trial and int(r["bin_start"]) == b.bin_start
            )
            assert int(row["cs_sum"]) == b.cs_sum
            assert float(row["cs_avg"]) == b.cs_avg
            assert int(row["invasions"]) == b.invasions
            assert int(row["successful_defers"]) == b.successful_defers

    with open(actions, newline="", encoding="utf-8") as f:
        arows = [{k: int(v) for k, v in r.items()} for r in csv.DictReader(f)]
    assert len(arows) == 2 * 2 * seats
    names = ["up", "down", "left", "right", "stay", "defer"]
    for trial, series in enumerate(trials):
        for b in series:
            for player in range(seats):
                row = next(
                    r for r in arows
                    if r["trial"] == trial
                    and r["bin_start"] == b.bin_start
                    and r["player"] == player
                )
                assert [row[n] for n in names] == b.action_counts[player]


def test_metrics_bin_example_arithmetic():
    b = MetricsBin(bin_start=0, bin_size=4, players=2)
    assert b.action_counts == [[0] * 6, [0] * 6]
    assert b.cs_avg == 0.0
    b.cs_sum = 3 - 22 + 18 + 3
    assert b.cs_avg == 0.5
