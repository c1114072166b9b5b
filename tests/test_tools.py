"""The scripts under tools/ still run against the current src.

A smoke check only: each script runs on a tiny input and prints the
table it documents. No measured value is asserted.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_broadcast_reads_runs():
    proc = subprocess.run(
        [sys.executable, "tools/broadcast_reads.py", "--steps", "2000",
         "--seeds", "1"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "variant,seed,seat,selections,at_row,at_bcast,bcast_keys,rows"
    # two variants, one seed, four seats
    assert len(rows) == 8
    assert all(len(row.split(",")) == 8 for row in rows)


def test_replay_share_runs():
    proc = subprocess.run(
        [sys.executable, "tools/replay_share.py", "--seed", "1", "--divide", "50"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "run,steps,replayed,share,replay_cpu"
    # both policies' training and evaluation, four seatings, one trial
    # each of sim_sovereign_hq, sim_base_q and the simulate defaults
    assert [row.split(",")[0] for row in rows] == [
        "hq_train", "hq_eval", "q_train", "q_eval", "cc", "dd", "cd", "dc",
        "sim_sovereign_hq", "sim_base_q", "simulate_default",
    ]
    assert all(len(row.split(",")) == 5 for row in rows)
