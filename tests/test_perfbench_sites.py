"""Every name that perfbench's tracer wraps still exists in civgame.

The tracer wraps a name only if its module still has it and reports the
rest as missing, so a renamed or deleted function would quietly drop
its layer from the benchmark. perfbench's own tests run outside this
suite; this check keeps the names in step with every change to `src`.
perfbench's sample process also calls civgame directly (`run_game` with
`keep_tables`, `trial_seed`, `load_config`, `len` and `writes` of a
`QTable`), so it is run here too on a short simulate.
"""

import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from conftest import perfbench_sites

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_perfbench_site_resolves():
    missing = []
    for site in perfbench_sites():
        module_name, _, attr = site.rpartition(".")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(site)
    assert sorted(missing) == []


def run_child(tmp_path, spec):
    """Run perfbench's sample process on `spec`; returns its result."""
    spec["result"] = str(tmp_path / "result.json")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "child.py", str(spec_path), repr(time.monotonic())],
        cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))


def test_perfbench_child_runs(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("total_steps=600\nbin=300\ntrials=1\n", encoding="utf-8")

    result = run_child(tmp_path, {"qtables": {"config": str(config), "seed": 1}})
    assert result["exit_code"] == 0
    digests = result["qtable_sha256"]
    assert len(digests) == 4
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)

    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
    result = run_child(
        tmp_path, {"argv": [argv], "spans": str(tmp_path / "spans.csv.gz")}
    )
    assert result["exit_code"] == 0
    assert result["missing_sites"] == []
    assert result["qtable"]["rows"] > 0
    assert result["qtable"]["writes"] > 0
