"""civgame benchmark: the CLI timed end to end, or traced layer by layer.

Usage, from the root of a civgame source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run is a closed loop with one client. Each sample is a fresh
`python3` process that runs the workload's CLI commands one after the
other (`simulate` then `plot` on both CSVs, or `analyze`), with the
workload's config and `--seed N`. Samples are started until --seconds
have passed (at least three), and every end-to-end metric is the median
over the samples:

    steps_per_s   environment steps / seconds spent stepping (1/s)
    wall_s        process start to exit, output writing included (s)
    setup_s       process start to the return of config.load_config,
                  i.e. interpreter start, `import civgame` and config
                  resolution (s)
    peak_rss_mib  peak resident set size of the sample process (MiB)

With --trace 1, untraced and traced samples alternate (at least two of
each) and the per-layer metrics are reported instead: calls and self
time of every wrapped layer function, Q-table and key counts, and the
tracing overhead. The spans of the last traced sample are written to
.perfbench_work/<workload>/spans.csv.gz.

Every sample's outputs are checked (see checks.py) and must be
byte-identical to the first sample's; a traced sample's counts must
repeat exactly. The SHA-256 of every output file is printed, and for
sim_sovereign_hq also that of each seat's `dump_qtable` text after one
short trial. The last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics. Without a civgame source tree
at ./src the benchmark prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import sha256_files
from sites import LAYER_SITES
from tracer import site_module
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_SAMPLES = 3
MIN_TRACED = 2
SAMPLE_TIMEOUT_S = 120

END_TO_END = {
    "steps_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _layers() -> dict[str, list[str]]:
    """Layer name -> the modules of the sites that call into it."""
    layers: dict[str, list[str]] = {}
    for site, layer in LAYER_SITES.items():
        layers.setdefault(layer, []).append(site_module(site))
    return layers


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer, modules in _layers().items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if len(modules) > 1:
            for module in modules:
                units[f"{layer}.via_{module}.calls"] = "count"
                units[f"{layer}.via_{module}.self_s"] = "s"
    units["agents.select_action.distinct_keys"] = "count"
    units["agents.key_reuse"] = "ratio"
    # the same, counted only below analyze's matrix.run_payoff_trials
    units["matchups.agents.q_update.calls"] = "count"
    units["matchups.agents.select_action.calls"] = "count"
    units["matchups.agents.select_action.self_s"] = "s"
    units["matchups.agents.select_action.distinct_keys"] = "count"
    units["matchups.agents.key_reuse"] = "ratio"
    units["agents.qtable.rows"] = "count"
    units["agents.qtable.writes"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample, all but trace.overhead_s."""
    m: dict[str, float] = {}
    for layer, modules in _layers().items():
        stats = result["layers"][layer]
        m[f"{layer}.calls"] = stats["calls"]
        m[f"{layer}.self_s"] = stats["self_s"]
        if len(modules) > 1:
            for module in modules:
                m[f"{layer}.via_{module}.calls"] = stats["sites"][module]["calls"]
                m[f"{layer}.via_{module}.self_s"] = stats["sites"][module]["self_s"]
    for prefix, (calls, distinct) in (("", result["keys"]),
                                      ("matchups.", result["matchup_keys"])):
        m[f"{prefix}agents.select_action.distinct_keys"] = distinct
        m[f"{prefix}agents.key_reuse"] = 1.0 - distinct / calls if calls else 0.0
    matchups = result["matchups"]
    m["matchups.agents.q_update.calls"] = matchups["agents.q_update"]["calls"]
    m["matchups.agents.select_action.calls"] = matchups["agents.select_action"]["calls"]
    m["matchups.agents.select_action.self_s"] = matchups["agents.select_action"]["self_s"]
    m["agents.qtable.rows"] = result["qtable"]["rows"]
    m["agents.qtable.writes"] = result["qtable"]["writes"]
    return m


def git_commit(root: str) -> str:
    """HEAD's commit read from .git without running git; "unknown" if none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(root),
    }


class Bench:
    """One workload at one seed; files go to `work`, by default in the tree."""

    def __init__(self, root: str, workload: Workload, seed: int,
                 work: str | None = None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work or os.path.join(root, ".perfbench_work", workload.name)
        self.out = os.path.join(self.work, "out")
        self.config_path = os.path.join(self.work, "run.cfg")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        with open(self.config_path, "w", encoding="utf-8") as f:
            f.write(workload.config_text())
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.reference: dict[str, str] | None = None
        self.reference_counts: dict[str, float] | None = None

    def _spawn(self, spec: dict) -> tuple[int | str, float, dict]:
        """Run child.py on `spec`; returns (exit code, wall seconds, result)."""
        spec_path = os.path.join(self.work, "spec.json")
        result_path = spec["result"] = os.path.join(self.work, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        log_path = os.path.join(self.work, "sample.log")
        with open(log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, spec_path, repr(spawned)],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                code: int | str = proc.wait(timeout=SAMPLE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
            wall = time.monotonic() - spawned
        result = {}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as f:
                result = json.load(f)
        return code, wall, result

    def qtable_digests(self) -> list[str]:
        """SHA-256 of each seat's dump_qtable text after one short trial."""
        short = {**self.workload.config, "total_steps": self.workload.config["bin"],
                 "trials": 1}
        path = os.path.join(self.work, "qtables.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(f"{k}={v}\n" for k, v in short.items()))
        code, _, result = self._spawn({"qtables": {"config": path, "seed": self.seed}})
        if code != 0:
            raise RuntimeError(f"Q-table dump exited with {code}; see sample.log")
        return result["qtable_sha256"]

    def sample(self, traced: bool) -> dict:
        """One timed sample; "problems" lists every failed check."""
        wl = self.workload
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        spans = os.path.join(self.work, "spans.csv.gz") if traced else None
        code, wall, result = self._spawn(
            {"argv": wl.argvs(self.config_path, self.out, self.seed), "spans": spans}
        )
        sample = {"traced": traced, "exit_code": code, "wall_s": wall}
        if code != 0 or "work_s" not in result:
            sample["problems"] = [f"exit code {code}; see {self.work}/sample.log"]
            return sample
        problems = wl.check(self.out)
        digests = sample["sha256"] = sha256_files(self.out, wl.outputs())
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            differ = sorted(k for k in digests if digests[k] != self.reference[k])
            problems.append(f"outputs differ from the first sample's: {differ}")
        if result.get("setup_s") is None or result["work_s"] <= 0:
            problems.append(
                f"no load_config or stepping span; missing {result['missing_sites']}"
            )
        else:
            sample["setup_s"] = result["setup_s"]
            sample["steps_per_s"] = wl.steps() / result["work_s"]
        sample["peak_rss_mib"] = result["peak_rss_mib"]
        if traced:
            metrics = layer_metrics(result)
            counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
            if self.reference_counts is None:
                self.reference_counts = counts
            elif counts != self.reference_counts:
                differ = sorted(k for k in counts if counts[k] != self.reference_counts[k])
                problems.append(f"counts differ between traced samples: {differ}")
            sample["layers"] = metrics
        sample["problems"] = problems
        return sample


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Samples until `seconds` have passed; stops at the first failure."""
    done: list[dict] = []
    deadline = time.monotonic() + seconds
    pattern = (False, True) if trace else (False,)
    minimum = MIN_TRACED * len(pattern) if trace else MIN_SAMPLES
    while True:
        for traced in pattern:
            sample = bench.sample(traced)
            done.append(sample)
            print(_describe(len(done), sample), flush=True)
            if sample["problems"]:
                return done, [s for s in done if not s["problems"]]
        round_s = sum(s["wall_s"] for s in done[-len(pattern):])
        if len(done) >= minimum and time.monotonic() + round_s > deadline:
            return done, done


def _describe(index: int, s: dict) -> str:
    kind = "traced" if s["traced"] else "sample"
    if s["problems"]:
        return f"{kind} {index}: FAILED: " + "; ".join(s["problems"])
    return (
        f"{kind} {index}: wall {s['wall_s']:.3f} s, setup {s['setup_s']:.4f} s, "
        f"{s['steps_per_s']:.0f} steps/s, peak rss {s['peak_rss_mib']:.1f} MiB"
    )


def report(trace: bool, done: list[dict], good: list[dict]) -> dict:
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    metrics: dict[str, dict] = {}
    if trace and untraced and traced:
        units = per_layer_units()
        for name, unit in units.items():
            if name == "trace.overhead_s":
                value = _median(traced, "wall_s") - _median(untraced, "wall_s")
            elif name.endswith("_s"):
                value = statistics.median(s["layers"][name] for s in traced)
            else:
                value = traced[0]["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
    elif not trace and untraced:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": _median(untraced, name), "unit": unit}
            if len(untraced) >= 2:
                q1, _, q3 = statistics.quantiles(
                    [s[name] for s in untraced], n=4, method="inclusive"
                )
                print(f"{name}: median {metrics[name]['value']:.6g} {unit}, "
                      f"quartiles {q1:.6g}..{q3:.6g}, {len(untraced)} samples")
    failed = sum(1 for s in done if s["problems"])
    print(f"fail_ratio: {failed / len(done):g} ({failed} of {len(done)} runs failed)")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(done),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "civgame", "cli.py")):
        print("perfbench: no civgame source tree at ./src; run from the repo root",
              file=sys.stderr)
        return 2

    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    env = environment(root)
    print("environment: " + json.dumps(env), flush=True)
    qtables = []
    if args.workload == "sim_sovereign_hq":
        try:
            qtables = bench.qtable_digests()
        except RuntimeError as exc:
            print(f"FAILED: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        for seat, digest in enumerate(qtables):
            print(f"sha256 dump_qtable seat {seat}: {digest}")
    done, good = measure(bench, args.seconds, bool(args.trace))
    for name, digest in (bench.reference or {}).items():
        print(f"sha256 {name}: {digest}")
    result = report(bool(args.trace), done, good)
    with open(os.path.join(bench.work, f"summary-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "output_sha256": bench.reference, "qtable_sha256": qtables,
                   "samples": done, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
