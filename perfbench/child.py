"""One benchmark sample: a fresh process that runs civgame CLI commands.

Usage: python3 child.py SPEC.json SPAWNED

SPAWNED is the parent's `time.monotonic()` reading just before it
started this process. The spec names the CLI argument lists to run in
order ("argv"), the file to write the sample's result to ("result")
and, for a traced sample, the file to write the spans to ("spans"). The process
exits with the first non-zero CLI exit code, or 0. A spec with
"qtables" instead runs trial 0 of a simulate config in the library and
records the SHA-256 of each seat's `dump_qtable` text.

Untraced, only the CLI's calls to load the config and to do the
stepping are timed (a handful of calls per command), which gives the
set-up time and the work phase. Traced, every layer site is wrapped.
"""

import time

_CLOCK_OFFSET = time.monotonic() - time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import civgame.cli  # noqa: E402

from tracer import Tracer  # noqa: E402
from sites import (  # noqa: E402
    CLI_SITES,
    KEY_SITES,
    LAYER_SITES,
    MATCHUPS,
    TABLE_SITES,
    WORK_LAYERS,
)


def qtable_digests(config_path: str, seed: int) -> list[str]:
    from civgame.agents import dump_qtable
    from civgame.config import load_config
    from civgame.experiment import run_game, trial_seed

    cfg = load_config(config_path, seed).run_config()
    tables = run_game(cfg, trial_seed(cfg.seed, 0), keep_tables=True).tables
    return [
        hashlib.sha256(dump_qtable(t).encode()).hexdigest()
        for t in tables if t is not None
    ]


def run(spec: dict) -> int:
    if "qtables" in spec:
        digests = qtable_digests(spec["qtables"]["config"], spec["qtables"]["seed"])
        with open(spec["result"], "w", encoding="utf-8") as f:
            json.dump({"exit_code": 0, "qtable_sha256": digests}, f)
        return 0
    traced = spec.get("spans") is not None
    tracer = (
        Tracer(LAYER_SITES, KEY_SITES, TABLE_SITES) if traced else Tracer(CLI_SITES)
    )
    code = 0
    with tracer:
        for argv in spec["argv"]:
            code = civgame.cli.main(argv)
            if code:
                break
    result = {"exit_code": code}
    loaded = tracer.first_end("config.load_config")
    if loaded is not None:
        result["setup_s"] = loaded + _CLOCK_OFFSET - spec["spawned"]
    result["work_s"] = tracer.top_level_s(WORK_LAYERS)
    result["missing_sites"] = tracer.missing
    if traced:
        tracer.write_spans(spec["spans"])
        result["layers"] = tracer.layer_stats()
        result["matchups"] = tracer.layer_stats(scope=MATCHUPS)
        result["keys"] = tracer.key_counts()
        result["matchup_keys"] = tracer.key_counts(scope=MATCHUPS)
        result["qtable"] = {
            "rows": sum(len(t) for t in tracer.made),
            "writes": sum(t.writes for t in tracer.made),
        }
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mib"] = peak_kib / 1024
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    spec["spawned"] = float(sys.argv[2])
    sys.exit(run(spec))
