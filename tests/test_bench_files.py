"""Every committed BENCH_*.json is a before/after pair that can back a claim.

A performance claim counts only as a committed pair of the parent commit
and the change, measured on a recorded machine, with the same output
bytes on both sides.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
COMMIT = re.compile(r"[0-9a-f]{40}")


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_a_before_after_pair(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    env = bench["environment"]
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1
    assert re.fullmatch(r"3\.\d+\.\d+", env["python"])
    parent, change = bench["commits"]["parent"], bench["commits"]["change"]
    assert COMMIT.fullmatch(parent) and COMMIT.fullmatch(change)
    assert parent != change
    assert bench["workloads"]
    for workload, seeds in bench["workloads"].items():
        assert workload in WORKLOADS
        assert seeds
        for seed, entry in seeds.items():
            where = (workload, seed)
            assert isinstance(entry["pairs"], int) and entry["pairs"] >= 1, where
            metrics = entry["metrics"]
            assert set(metrics) == END_TO_END, where
            for name, metric in metrics.items():
                for side in ("parent", "change"):
                    assert metric[side]["median"] > 0, (where, name, side)
            assert entry["output_sha256"], where
            assert entry["output_sha256_equal"] is True, where
            if "qtable_sha256" in entry:
                assert entry["qtable_sha256_equal"] is True, where
