"""The benchmark's workloads: a civgame config and the CLI commands it runs.

Every workload is one closed-loop client: one fresh process per sample,
running its commands one after another. The step counts are sized so a
sample takes about nine seconds on a 2-core Xeon VM. The speed of such a
shared machine swings by up to 1.7x over periods of seconds; a sample
that long averages over those swings, where the median of many short
samples jumps with them.
"""

from __future__ import annotations

import csv
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from checks import check_analyze, check_simulate

# The default config shape: 4x4 board, 4 seats, bin=2500, one process.
_SIM_SHAPE = {"board_size": 4, "players": 4, "bin": 2500, "workers": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "simulate" or "analyze"
    config: dict

    def config_text(self) -> str:
        return "".join(f"{key}={value}\n" for key, value in self.config.items())

    def steps(self) -> int:
        """Environment steps one sample completes, from the config."""
        c = self.config
        if self.command == "simulate":
            return c["trials"] * c["total_steps"]
        return (
            c["train_steps"] + c["defect_train_steps"] + 2 * c["eval_steps"]
            + 4 * c["match_trials"] * c["match_steps"]
        )

    def argvs(self, config_path: str, out: str, seed: int) -> list[list[str]]:
        """The CLI commands of one sample, run in order in one process."""
        first = [self.command, "--config", config_path, "--out", out,
                 "--seed", str(seed)]
        if self.command != "simulate":
            return [first]
        return [
            first,
            ["plot", os.path.join(out, "learning_curve.csv"),
             "--out", os.path.join(out, "learning_curve.svg")],
            ["plot", os.path.join(out, "actions.csv"),
             "--out", os.path.join(out, "actions.svg")],
        ]

    def outputs(self) -> list[str]:
        if self.command == "simulate":
            return ["learning_curve.csv", "actions.csv", "run_manifest.txt",
                    "learning_curve.svg", "actions.svg"]
        return ["matrix.csv"]

    def check(self, out_dir: str) -> list[str]:
        """Problems with the outputs of one sample; empty when correct."""
        try:
            if self.command == "simulate":
                return check_simulate(
                    out_dir, self.config, ["learning_curve.svg", "actions.svg"]
                )
            return check_analyze(out_dir, self.config)
        except (OSError, ValueError, IndexError, csv.Error, ET.ParseError) as exc:
            return [f"unreadable output: {exc!r}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_sovereign_hq",
            "paper headline config: 4 hq learners on the sovereign game; the "
            "only workload where broadcast (agents.ola_*) and sovereign.* dominate",
            "simulate",
            {**_SIM_SHAPE, "variant": "sovereign",
             **{f"agent{i}": "hqlearner" for i in range(4)},
             "total_steps": 40_000, "trials": 3},
        ),
        Workload(
            "sim_base_q",
            "same loop, base game and plain Q learners: bypasses broadcast and "
            "votes, so it is the no-change control for agents.ola_* and sovereign.*",
            "simulate",
            {**_SIM_SHAPE, "variant": "base",
             **{f"agent{i}": "qlearner" for i in range(4)},
             "total_steps": 80_000, "trials": 3},
        ),
        Workload(
            "analyze_frozen",
            "analyze with 2 players: training, then frozen matchups (most steps) "
            "with no q_update or broadcast; where a play memo or parallel "
            "matchups act",
            "analyze",
            # 100k hq steps gave cooperative alphas of at most 5.03 over 52
            # seeds and 20k plain-Q steps defecting alphas of at least 29.7
            # over 60; the thresholds 10/20 keep both classes clear of that
            # spread, where the paper's 5/15 need 150k hq steps and about
            # twice the sample time. workers=2 is ignored by analyze today.
            {"board_size": 4, "match_players": 2, "match_variant": "base",
             "workers": 2, "train_steps": 100_000, "defect_train_steps": 20_000,
             "eval_steps": 5_000, "alpha_c": 10.0, "alpha_d": 20.0,
             "match_trials": 4, "match_steps": 12_500},
        ),
    )
}
