"""Count the steps that run_game replays instead of playing them one by one.

run_game replays a period of play that changed nothing (see
civgame.experiment._Replay). This script runs analyze's training and
evaluation of both policies, each of its four matchup seatings, and one
sim_sovereign_hq trial, and prints per run:

- steps: the steps the run took;
- replayed: how many of them were replayed periods;
- share: replayed / steps.

The analyze runs use perfbench's analyze_frozen settings and the trial
perfbench's sim_sovereign_hq settings; --divide N divides every step
count by N. It wraps civgame.experiment._Period.add_to, where replayed
periods are added, and civgame.matrix.run_game, to tell the runs apart,
by module attribute; the runs play on the same draws as unwrapped.

    PYTHONPATH=src python tools/replay_share.py --seed 1
"""

from __future__ import annotations

import argparse

from civgame import experiment, matrix
from civgame.agents import AgentKind
from civgame.experiment import RunConfig, Variant, stream_seed, trial_seed
from civgame.matrix import AnalysisConfig, play_matchup, train_policy


def count_replayed(runs: list[list[int]]):
    """Wrap the module names: each run_game call through civgame.matrix
    appends [steps, replayed] to `runs`, and each replayed stretch adds
    to the last entry. Returns a function that puts the names back."""
    add_to, run_game = experiment._Period.add_to, matrix.run_game

    def counting_add_to(period, times, *args):
        runs[-1][1] += times * period.length
        add_to(period, times, *args)

    def counting_run_game(cfg, *args, **kwargs):
        runs.append([cfg.total_steps, 0])
        return run_game(cfg, *args, **kwargs)

    experiment._Period.add_to = counting_add_to
    matrix.run_game = counting_run_game

    def restore() -> None:
        experiment._Period.add_to, matrix.run_game = add_to, run_game

    return restore


def shares(seed: int, divide: int) -> list[tuple[str, int, int]]:
    """(run, steps, replayed) for each run, in the order played."""
    cfg = AnalysisConfig(
        players=2, match_variant=Variant.BASE, train_steps=100_000 // divide,
        defect_train_steps=20_000 // divide, eval_steps=5_000 // divide,
        match_trials=4, match_steps=12_500 // divide, seed=seed,
    )
    sim = RunConfig(
        total_steps=40_000 // divide, bin_size=2_500 // divide, trials=1,
        agent_kinds=(AgentKind.HQLEARNER,) * 4, variant=Variant.SOVEREIGN,
        seed=seed,
    )
    runs: list[list[int]] = []
    names = []
    restore = count_replayed(runs)
    try:
        coop = train_policy(cfg, AgentKind.HQLEARNER)
        defect = train_policy(cfg, AgentKind.QLEARNER)
        names += ["hq_train", "hq_eval", "q_train", "q_eval"]
        # the seatings and seeds of run_payoff_trials, with 2 seats
        seatings = {
            "cc": (coop.tables, [coop.final_eps] * 2),
            "dd": (defect.tables, [defect.final_eps] * 2),
            "cd": (coop.tables[:1] + defect.tables[1:],
                   [coop.final_eps, defect.final_eps]),
            "dc": (defect.tables[:1] + coop.tables[1:],
                   [defect.final_eps, coop.final_eps]),
        }
        for k in range(cfg.match_trials):
            for name, (tables, eps_by_seat) in seatings.items():
                match_seed = stream_seed(stream_seed(seed, f"match:{k}"), name)
                play_matchup(cfg, tables, eps_by_seat, match_seed)
                names.append(name)
        runs.append([sim.total_steps, 0])
        experiment.run_game(sim, trial_seed(seed, 0))
        names.append("sim_sovereign_hq")
    finally:
        restore()
    totals: dict[str, list[int]] = {}
    for name, (steps, replayed) in zip(names, runs):
        total = totals.setdefault(name, [0, 0])
        total[0] += steps
        total[1] += replayed
    return [(name, steps, replayed) for name, (steps, replayed) in totals.items()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--divide", type=int, default=1)
    args = parser.parse_args()
    print("run,steps,replayed,share")
    for name, steps, replayed in shares(args.seed, args.divide):
        print(f"{name},{steps},{replayed},{replayed / steps:.3f}")


if __name__ == "__main__":
    main()
