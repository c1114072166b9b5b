"""Harness: config checks, seeded determinism, trial pools and seeds,
the plot band, CSV round-trips. Run-level rules are checked by the
replay in test_run_invariants.py."""

import csv
import re
from hashlib import sha256

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


def test_same_seed_same_run():
    cfg = small_cfg(total_steps=1_000, bin_size=100)
    a, b, c = (run_game(cfg, seed, keep_tables=True) for seed in (5, 5, 6))

    def dumps(res):
        """Each seat's dump_qtable digest: a mismatch reports at once."""
        return [sha256(dump_qtable(t).encode()).hexdigest() for t in res.tables]

    assert a.bins == b.bins
    assert a.rewards_per_player == b.rewards_per_player
    assert a.invasions_per_player == b.invasions_per_player
    assert dumps(a) == dumps(b)
    assert c.bins != a.bins
    assert dumps(c) != dumps(a)


def test_action_counts_partition_moves():
    # 5,000 steps: 1,250 turns per seat in the base game; in the sovereign
    # game 1,000 five-step cycles, one turn and one ballot per seat in each
    for variant, moves in ((Variant.BASE, 1_250), (Variant.SOVEREIGN, 2_000)):
        cfg = small_cfg(total_steps=5_000, bin_size=1_000, variant=variant)
        assert run_game(cfg, 4).moves_per_player == [moves] * 4


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


def test_plot_band_degenerate_single_trial(tmp_path):
    path = tmp_path / "learning_curve.csv"
    values = [0.5, -1.5, 2.0]
    _write_curve(path, [values])
    svg = charts.render_csv(str(path))
    # one trial: the line is the raw series and there is no band
    assert _points(svg, "polyline") == _panel_points([0, 500, 1000], values, -1.5, 2.0)
    assert "<polygon" not in svg


def test_plot_band_median_min_max(tmp_path):
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
