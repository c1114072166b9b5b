"""Count how often a seat acts at a key that a broadcast wrote into its table.

Runs 4 hq learners on the 4x4 board, in the base and the sovereign game,
once per seed, and prints for each seat:

- selections: its select_action calls (ballots included);
- at_row: how many of those were at a key with a row in its own table;
- at_bcast: how many of those were at a key that a broadcast had already
  written into the seat's own table;
- bcast_keys: how many keys a broadcast wrote into its table by the end;
- rows: its table's rows at the end.

It wraps civgame.experiment.select_action and ola_broadcast by module
attribute, so run_game plays on the same random draws as it does unwrapped.

    PYTHONPATH=src python tools/broadcast_reads.py --steps 250000 --seeds 1 5 9
"""

from __future__ import annotations

import argparse

from civgame import experiment
from civgame.agents import AgentKind, QTable
from civgame.experiment import RunConfig, Variant, run_game


class _RecordingTable:
    """Stands in for one receiver's table inside ola_broadcast: notes each
    key it writes, then writes it to the real table."""

    def __init__(self, table: QTable, keys: set[bytes]):
        self.table, self.keys = table, keys

    def blend(self, key, action, delta, alpha) -> None:
        self.keys.add(key)
        self.table.blend(key, action, delta, alpha)


def count_reads(cfg: RunConfig, seed: int) -> list[tuple[int, ...]]:
    """(selections, at_row, at_bcast, bcast_keys, rows) per seat of one run."""
    p = cfg.players
    tables = [QTable() for _ in range(p)]
    seat_of = {id(t): i for i, t in enumerate(tables)}
    written = [set() for _ in range(p)]  # keys a broadcast wrote, per seat
    selections, at_row, at_bcast = [0] * p, [0] * p, [0] * p
    select, broadcast = experiment.select_action, experiment.ola_broadcast

    def counting_select(q, key, legal, eps, rng, greedy=None):
        i = seat_of[id(q)]
        selections[i] += 1
        at_row[i] += key in q.rows
        at_bcast[i] += key in written[i]
        return select(q, key, legal, eps, rng, greedy)

    def recording_broadcast(recv, key, cells, action, delta, mover, hp):
        recorders = [
            None if t is None else _RecordingTable(t, written[j])
            for j, t in enumerate(recv)
        ]
        broadcast(recorders, key, cells, action, delta, mover, hp)

    experiment.select_action = counting_select
    experiment.ola_broadcast = recording_broadcast
    try:
        run_game(cfg, seed, tables=tables)
    finally:
        experiment.select_action, experiment.ola_broadcast = select, broadcast
    return [
        (selections[i], at_row[i], at_bcast[i], len(written[i]), len(tables[i]))
        for i in range(p)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=250_000)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 5, 9])
    args = parser.parse_args()
    print("variant,seed,seat,selections,at_row,at_bcast,bcast_keys,rows")
    for variant in (Variant.BASE, Variant.SOVEREIGN):
        for seed in args.seeds:
            cfg = RunConfig(
                total_steps=args.steps, bin_size=args.steps, trials=1,
                agent_kinds=(AgentKind.HQLEARNER,) * 4, variant=variant,
            )
            for seat, counts in enumerate(count_reads(cfg, seed)):
                print(",".join(map(str, (variant.value, seed, seat, *counts))))


if __name__ == "__main__":
    main()
