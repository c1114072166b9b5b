"""Count the steps that run_game replays instead of playing them one by one.

run_game replays a period of play that changed nothing (see
civgame.experiment._Replay). This script runs analyze's training and
evaluation of both policies, each of its four matchup seatings, one
sim_sovereign_hq trial, one sim_base_q trial and one trial at RunConfig's
defaults, and prints per run:

- steps: the steps the run took;
- replayed: how many of them were replayed periods;
- share: replayed / steps;
- replay_cpu: the share of the run's CPU time spent in _Replay._replay,
  which draws the decisions of each replayed period.

The analyze runs use perfbench's analyze_frozen settings, the
sim_sovereign_hq and sim_base_q trials perfbench's settings (4 hq seats
in the sovereign game for 40,000 steps, 4 plain-Q seats in the base game
for 80,000 steps), and simulate_default the
defaults of `civgame simulate`; --divide N divides every step count and
bin size by N (rounded down; a simulate trial keeps its count of bins).
It wraps, by module attribute, civgame.experiment's _Period.add_to,
where replayed periods are added, and _Replay._replay, and run_game in
civgame.experiment and civgame.matrix, to tell the runs apart and time
them; the runs play on the same draws as unwrapped.

    PYTHONPATH=src python tools/replay_share.py --seed 1
"""

from __future__ import annotations

import argparse
import time

from civgame import experiment, matrix
from civgame.agents import AgentKind
from civgame.experiment import RunConfig, Variant, stream_seed, trial_seed
from civgame.matrix import AnalysisConfig, play_matchup, train_policy


def count_replayed(runs: list[list]):
    """Wrap the module names: each run_game call appends [steps,
    replayed, cpu_s, replay_cpu_s] to `runs`, and each replayed stretch
    adds to the last entry. Returns a function that puts the names back."""
    add_to, replay = experiment._Period.add_to, experiment._Replay._replay
    run_game = experiment.run_game

    def counting_add_to(period, times, *args):
        runs[-1][1] += times * period.length
        add_to(period, times, *args)

    def timed_replay(self, *args):
        start = time.process_time()
        t = replay(self, *args)
        runs[-1][3] += time.process_time() - start
        return t

    def counting_run_game(cfg, *args, **kwargs):
        run = [cfg.total_steps, 0, 0.0, 0.0]
        runs.append(run)
        start = time.process_time()
        result = run_game(cfg, *args, **kwargs)
        run[2] += time.process_time() - start
        return result

    experiment._Period.add_to = counting_add_to
    experiment._Replay._replay = timed_replay
    experiment.run_game = matrix.run_game = counting_run_game

    def restore() -> None:
        experiment._Period.add_to, experiment._Replay._replay = add_to, replay
        experiment.run_game = matrix.run_game = run_game

    return restore


def trial(total_steps: int, divide: int, **kwargs) -> RunConfig:
    """One trial of about total_steps / divide steps in bins of
    RunConfig.bin_size / divide steps: the count of bins is kept, so
    that the bins divide the trial for any divide."""
    bin_size = max(1, RunConfig.bin_size // divide)
    return RunConfig(
        total_steps=total_steps // RunConfig.bin_size * bin_size,
        bin_size=bin_size, trials=1, **kwargs,
    )


def shares(seed: int, divide: int) -> list[tuple[str, int, int, float]]:
    """(run, steps, replayed, replay CPU share) for each run, in the
    order played."""
    cfg = AnalysisConfig(
        players=2, match_variant=Variant.BASE, train_steps=100_000 // divide,
        defect_train_steps=20_000 // divide, eval_steps=5_000 // divide,
        match_trials=4, match_steps=12_500 // divide, seed=seed,
    )
    sims = {
        "sim_sovereign_hq": trial(
            40_000, divide, agent_kinds=(AgentKind.HQLEARNER,) * 4,
            variant=Variant.SOVEREIGN, seed=seed,
        ),
        "sim_base_q": trial(
            80_000, divide, agent_kinds=(AgentKind.QLEARNER,) * 4,
            variant=Variant.BASE, seed=seed,
        ),
        "simulate_default": trial(RunConfig.total_steps, divide, seed=seed),
    }
    runs: list[list] = []
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
        for name, sim in sims.items():
            experiment.run_game(sim, trial_seed(seed, 0))
            names.append(name)
    finally:
        restore()
    totals: dict[str, list] = {}
    for name, run in zip(names, runs):
        total = totals.setdefault(name, [0, 0, 0.0, 0.0])
        for j, x in enumerate(run):
            total[j] += x
    return [
        (name, steps, replayed, replay_cpu / cpu if cpu else 0.0)
        for name, (steps, replayed, cpu, replay_cpu) in totals.items()
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--divide", type=int, default=1)
    args = parser.parse_args()
    print("run,steps,replayed,share,replay_cpu")
    for name, steps, replayed, replay_cpu in shares(args.seed, args.divide):
        print(f"{name},{steps},{replayed},{replayed / steps:.3f},"
              f"{replay_cpu:.3f}")


if __name__ == "__main__":
    main()
