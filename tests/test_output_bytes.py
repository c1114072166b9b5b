"""Pinned output bytes: a speedup of the run loop must not change them.

The digests were taken from the loop before its hot path was rewritten.
A change that alters the random streams or the rules on purpose must
update them, and say why.
"""

import hashlib

from civgame.agents import AgentKind, dump_qtable
from civgame.cli import main
from civgame.experiment import (
    RunConfig,
    Variant,
    run_game,
    trial_seed,
    write_actions,
    write_learning_curve,
)

H, Q, R = AgentKind.HQLEARNER, AgentKind.QLEARNER, AgentKind.RANDOM

SOVEREIGN_HQ = {
    "learning_curve.csv": "613626fd7269a75deac53d5e6b95ecf8d6c51366428187bd69edf159d92249f3",
    "actions.csv": "24ddc6583805dba22e319d9b1db0969b628e2f73435f3fa62c10ca4d17d602c3",
    "tables": (
        "b8ddb8343db4af97eb8cdf5bb2419ae8bc0cb23d243751618584d66ff6d20f90",
        "16f02415b42cf31ec5cf6211e47ae2119c34e82ca9cd7b50dfb1c0758d8c95fa",
        "862937192c7de63f8e1c9e6b40c2cde7b898d6f1f05b8417c5793e71fdaf2315",
        "84e34b259eaa5bedd0a6d8d484bd7479bf285e453173fe3c2b9034e1d485a87a",
    ),
}
BASE_Q = {
    "learning_curve.csv": "7873596c0255fe557002dcd1e485390646d2b026715e21eda05f8fe1e6f12b47",
    "actions.csv": "9e85aef86dd08cfad050d1ba36b1010b625e971a916e247ba24c1e0c6c1cdc4b",
    "tables": (
        "fc71178e6de56f30ffd4ab0681aaa3a6b78899691640b454daf346c9615f3350",
        "8bfe9014d38f48f6884d1db3aa136025d3dcd8aab4b7096dff693095da5d8826",
        "31f317a774dccd8c684aa0c5a4e5d482ea64816203f5b1206973134ff3b69c44",
        "99264fd8555a0c2da165cb46b992774a045d6b9deaafd236a66f205bc8e48e93",
    ),
}
SOVEREIGN_MIX = {
    "learning_curve.csv": "f285c55462f547a464b34dd0cd1a5ec6d5f3e55424d3ff1c04a91e814d0e3740",
    "actions.csv": "9b92b41cb3f0f5c8f9bd5972954ca8c76dd73c9808dda39f2e90e0ad7580f047",
    "tables": (
        "512db2f6a057c0e954c49a2d1ec6244ef8e9b5f593792ac60f7314a26663b056",
        None,
        "a8cb860c820cbbad8a1d8ea5bd6b76b3305234eaaa774d21e5a833655dac92d5",
        "7db4c291675d92f2287d09d099364366ecb2b8d3c16cf969ae481451f46a812b",
    ),
}
ANALYZE_MATRIX = "228fe42d87a3bdffec96a77bf95032a5dae23abb47e8d2806aaadca361d5dd62"
ANALYZE_STDOUT = (
    "alpha: cooperative=13.428 defecting=33.800\n"
    "NotSocialDilemma: 1/2\n"
    "StagHunt: 1/2\n"
    "stag_hunt_fraction=0.5\n"
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_digests(tables):
    return tuple(None if t is None else sha(dump_qtable(t).encode()) for t in tables)


def simulate(tmp_path, config_text):
    """Digests of `civgame simulate`'s CSVs and of trial 0's final tables."""
    path = tmp_path / "run.cfg"
    path.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    digests = {
        name: sha((out / name).read_bytes())
        for name in ("learning_curve.csv", "actions.csv")
    }
    return digests


def test_sovereign_hq_bytes(tmp_path):
    digests = simulate(
        tmp_path, "total_steps=4000\nbin=500\ntrials=2\nseed=5\n"
    )
    cfg = RunConfig(total_steps=4000, bin_size=500, trials=2, seed=5)
    res = run_game(cfg, trial_seed(cfg.seed, 0), keep_tables=True)
    digests["tables"] = table_digests(res.tables)
    assert digests == SOVEREIGN_HQ


def test_base_q_bytes(tmp_path):
    digests = simulate(
        tmp_path,
        "total_steps=4000\nbin=1000\ntrials=2\nseed=6\nvariant=base\n"
        + "".join(f"agent{i}=qlearner\n" for i in range(4)),
    )
    cfg = RunConfig(
        total_steps=4000, bin_size=1000, trials=2, seed=6,
        agent_kinds=(Q,) * 4, variant=Variant.BASE,
    )
    res = run_game(cfg, trial_seed(cfg.seed, 0), keep_tables=True)
    digests["tables"] = table_digests(res.tables)
    assert digests == BASE_Q


def test_sovereign_mix_bytes(tmp_path):
    """An hq learner, a random seat, a Q seat frozen at eps 0.2 with a
    trained table, and an hq learner."""
    cfg = RunConfig(
        total_steps=3000, bin_size=750, trials=1, seed=8,
        agent_kinds=(H, R, Q, H),
    )
    trained = run_game(
        RunConfig(total_steps=3000, bin_size=3000, trials=1, seed=9,
                  agent_kinds=(Q,) * 4),
        9, keep_tables=True,
    ).tables[2]
    res = run_game(
        cfg, 8, tables=[None, None, trained, None],
        frozen_eps=[None, None, 0.2, None], keep_tables=True,
    )
    write_learning_curve([res.bins], str(tmp_path / "learning_curve.csv"))
    write_actions([res.bins], str(tmp_path / "actions.csv"))
    digests = {
        name: sha((tmp_path / name).read_bytes())
        for name in ("learning_curve.csv", "actions.csv")
    }
    digests["tables"] = table_digests(res.tables)
    assert digests == SOVEREIGN_MIX


def test_analyze_bytes(tmp_path, capsys):
    """A tiny `civgame analyze`: its matrix.csv and its stdout tally.

    The thresholds are wide so that policies trained this briefly still
    classify; the run takes well under a second.
    """
    path = tmp_path / "analyze.cfg"
    path.write_text(
        "board_size=4\nmatch_players=2\nmatch_variant=base\nworkers=1\n"
        "train_steps=5000\ndefect_train_steps=2000\neval_steps=1000\n"
        "match_trials=2\nmatch_steps=1000\nalpha_c=20.0\nalpha_d=21.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = ["analyze", "--config", str(path), "--out", str(out), "--seed", "3"]
    assert main(argv) == 0
    assert sha((out / "matrix.csv").read_bytes()) == ANALYZE_MATRIX
    assert capsys.readouterr().out == ANALYZE_STDOUT
