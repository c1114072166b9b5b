"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repo root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from sites import LAYER_SITES, TABLE_SITES  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def tiny(name: str, **config):
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, config={**wl.config, **config})


TINY_SIM = {"total_steps": 2_500, "trials": 2}
# Thresholds between the alphas that so short a training gives, so that
# the analyze pipeline runs to its matchups instead of exiting with 4.
TINY_ANALYZE = {
    "train_steps": 5_000, "defect_train_steps": 2_000, "eval_steps": 1_000,
    "match_trials": 2, "match_steps": 1_000, "alpha_c": 20.0, "alpha_d": 21.0,
}


def bench(tmp_path, name: str, config: dict, seed: int = 3) -> run.Bench:
    return run.Bench(ROOT, tiny(name, **config), seed, work=str(tmp_path / name))


def ok(sample: dict) -> dict:
    assert sample["problems"] == [], sample["problems"]
    return sample


@pytest.mark.parametrize(
    "name, config",
    [("sim_sovereign_hq", TINY_SIM), ("analyze_frozen", TINY_ANALYZE)],
)
def test_traced_outputs_match_untraced_and_counts_repeat(tmp_path, name, config):
    b = bench(tmp_path, name, config)
    plain = ok(b.sample(traced=False))
    first = ok(b.sample(traced=True))
    second = ok(b.sample(traced=True))
    assert first["sha256"] == plain["sha256"] == second["sha256"]
    counts = [
        {k: v for k, v in s["layers"].items() if not k.endswith("_s")}
        for s in (first, second)
    ]
    assert counts[0] == counts[1]
    assert set(first["layers"]) | {"trace.overhead_s"} == set(run.per_layer_units())
    assert counts[0]["agents.select_action.calls"] > 0
    assert counts[0]["agents.qtable.rows"] > 0
    with gzip.open(os.path.join(b.work, "spans.csv.gz"), "rt") as f:
        rows = list(csv.DictReader(f))
    layers = {metric[: -len(".calls")] for metric in counts[1]
              if metric.endswith(".calls") and ".via_" not in metric
              and not metric.startswith("matchups.")}
    assert len(rows) == sum(counts[1][f"{layer}.calls"] for layer in layers)
    for row in rows:
        assert int(row["parent_id"]) < int(row["id"])
        assert float(row["start_s"]) <= float(row["end_s"])


def test_base_game_never_calls_broadcast_or_sovereign(tmp_path):
    layers = ok(bench(tmp_path, "sim_base_q", TINY_SIM).sample(traced=True))["layers"]
    for name, value in layers.items():
        if name.startswith(("agents.ola_", "sovereign.")) and name.endswith(".calls"):
            assert value == 0, name
    assert layers["game.encode_state.via_agents.calls"] == 0
    assert layers["game.transition.calls"] == 2 * 2_500


def test_frozen_matchups_never_update(tmp_path):
    layers = ok(bench(tmp_path, "analyze_frozen", TINY_ANALYZE).sample(traced=True))[
        "layers"
    ]
    assert layers["matchups.agents.q_update.calls"] == 0
    assert layers["agents.q_update.calls"] > 0  # the trainings do learn
    assert layers["matrix.play_matchup.calls"] == 2 + 4 * 2  # evals, matchups
    assert layers["matchups.agents.select_action.calls"] == 4 * 2 * 1_000


def test_tracer_restores_every_name_even_after_an_error():
    def lookup(site):
        module, _, attr = site.rpartition(".")
        return getattr(importlib.import_module(module), attr)

    sites = list(LAYER_SITES) + list(TABLE_SITES)
    before = {site: lookup(site) for site in sites}
    with pytest.raises(RuntimeError):
        with Tracer(LAYER_SITES, factory_sites=TABLE_SITES):
            assert all(lookup(site) is not before[site] for site in sites)
            raise RuntimeError("boom")
    assert all(lookup(site) is before[site] for site in sites)


def test_missing_site_is_skipped_and_reported():
    with Tracer({"civgame.cli.no_such_function": "cli.none"}) as tracer:
        pass
    assert tracer.missing == ["civgame.cli.no_such_function"]


def _corrupt_csv(path, edit):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(edit(lines))


def _bump_field(line: str, index: int) -> str:
    fields = line.rstrip("\n").split(",")
    fields[index] = repr(float(fields[index]) + 1.0)
    return ",".join(fields) + "\n"


SIM_CORRUPTIONS = {
    "row dropped": ("learning_curve.csv", lambda lines: lines[:-1]),
    "cs_avg off": (
        "learning_curve.csv", lambda lines: [lines[0], _bump_field(lines[1], 3)] + lines[2:]
    ),
    "actions row dropped": ("actions.csv", lambda lines: lines[:-1]),
    "text in a number": (
        "learning_curve.csv", lambda lines: [lines[0], "0,0,x,y,0,0\n"] + lines[2:]
    ),
    "svg truncated": ("actions.svg", lambda lines: lines[: len(lines) // 2]),
}


@pytest.fixture(scope="module")
def sim_outputs(tmp_path_factory):
    b = bench(tmp_path_factory.mktemp("sim"), "sim_base_q", TINY_SIM)
    ok(b.sample(traced=False))
    return b


@pytest.mark.parametrize("case", sorted(SIM_CORRUPTIONS))
def test_corrupted_output_fails_the_check(sim_outputs, tmp_path, case):
    wl = sim_outputs.workload
    out = str(tmp_path / "out")
    shutil.copytree(sim_outputs.out, out)
    assert wl.check(out) == []
    name, edit = SIM_CORRUPTIONS[case]
    _corrupt_csv(os.path.join(out, name), edit)
    assert wl.check(out) != []


def test_corrupted_matrix_fails_the_check(tmp_path):
    b = bench(tmp_path, "analyze_frozen", TINY_ANALYZE)
    ok(b.sample(traced=False))
    path = os.path.join(b.out, "matrix.csv")
    for column in (5, 1):  # fear, then R (so fear and the aggregate disagree)
        shutil.copy(path, path + ".orig")
        _corrupt_csv(path, lambda lines: [lines[0], _bump_field(lines[1], column)]
                     + lines[2:])
        assert b.workload.check(b.out) != []
        shutil.move(path + ".orig", path)
    assert b.workload.check(b.out) == []


def test_a_corrupted_sample_fails_the_run(tmp_path, monkeypatch):
    b = bench(tmp_path, "sim_base_q", TINY_SIM)
    check = Workload.check

    def corrupt_then_check(self, out_dir):
        _corrupt_csv(os.path.join(out_dir, "actions.csv"), lambda lines: lines[:-1])
        return check(self, out_dir)

    monkeypatch.setattr(Workload, "check", corrupt_then_check)
    done, good = run.measure(b, seconds=0, trace=False)
    result = run.report(False, done, good)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 1


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_without_a_source_tree_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_base_q",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
