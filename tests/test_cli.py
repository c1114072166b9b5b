"""Config parsing, CLI commands, exit codes, file emission, SVG output."""

import xml.etree.ElementTree as ET

import pytest

from civgame.agents import AgentKind
from civgame.charts import ChartError, render_csv
from civgame.cli import main
from civgame.config import ConfigError, load_config, parse_config
from civgame.experiment import RunConfig, Variant
from civgame.matrix import AnalysisConfig


SMALL = """
# desk-scale run
board_size = 4
players = 4
total_steps = 1000
bin = 250
trials = 2
seed = 9
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- config parsing ------------------------------------------------------------


def test_defaults_without_config_file():
    settings = parse_config(None)
    assert settings["board_size"] == 4
    assert settings["total_steps"] == 250_000
    assert settings["bin"] == 2_500
    assert settings["trials"] == 3
    assert settings["variant"] is Variant.SOVEREIGN
    assert settings["invasion_bonus"] == 10
    assert settings["invasion_penalty"] == -25
    assert settings["vote_bonus"] == 15
    assert settings["vote_penalty"] == -10
    assert settings["alpha"] == 0.5 and settings["gamma"] == 0.99
    assert settings["eps0"] == 0.9 and settings["eps_decay"] == 0.9999
    assert settings["alpha_c"] == 5.0 and settings["alpha_d"] == 15.0
    assert load_config(None).run_config() == RunConfig()
    assert load_config(None).analysis_config() == AnalysisConfig()


def test_parse_overrides_comments_blanks(tmp_path):
    path = write(
        tmp_path,
        "run.cfg",
        "seed=42 # inline comment\n\n# whole-line comment\nagent0=random\n",
    )
    settings = parse_config(path)
    assert settings["seed"] == 42
    assert settings["agent0"] is AgentKind.RANDOM


def test_unknown_key_reports_line(tmp_path):
    path = write(tmp_path, "bad.cfg", "seed=1\nspeed=9\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.line_no == 2
    assert "speed" in str(err.value)


def test_bad_value_reports_line(tmp_path):
    path = write(tmp_path, "bad.cfg", "trials=soon\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.line_no == 1


def test_missing_equals_is_error(tmp_path):
    path = write(tmp_path, "bad.cfg", "just a line\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_seed_override_and_manifest(tmp_path):
    path = write(tmp_path, "run.cfg", "seed=5\n")
    resolved = load_config(path, seed_override=77)
    assert resolved.settings["seed"] == 77
    manifest = resolved.manifest()
    assert "seed=77" in manifest.splitlines()
    assert "variant=sovereign" in manifest.splitlines()
    assert manifest.splitlines() == sorted(manifest.splitlines())


def test_run_config_construction(tmp_path):
    path = write(tmp_path, "run.cfg", "players=2\nagent0=qlearner\nagent1=random\n")
    cfg = load_config(path).run_config()
    assert cfg.agent_kinds == (AgentKind.QLEARNER, AgentKind.RANDOM)
    assert cfg.players == 2


# --- simulate -------------------------------------------------------------------


def run_cli(args):
    return main(args)


def test_simulate_writes_outputs(tmp_path):
    cfg = write(tmp_path, "run.cfg", SMALL)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    curve = (out / "learning_curve.csv").read_text()
    lines = curve.splitlines()
    assert lines[0] == "trial,bin_start,cs_sum,cs_avg,invasions,successful_defers"
    assert len(lines) == 1 + 2 * 4  # 2 trials x 4 bins
    actions = (out / "actions.csv").read_text().splitlines()
    assert len(actions) == 1 + 2 * 4 * 4
    manifest = (out / "run_manifest.txt").read_text()
    assert "seed=9" in manifest


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write(tmp_path, "run.cfg", SMALL)
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert run_cli(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert run_cli(
        ["simulate", "--config", cfg, "--out", str(out3), "--seed", "10"]
    ) == 0
    for name in ("learning_curve.csv", "actions.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / name).read_bytes() != (out3 / name).read_bytes()


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", "nonsense=1\n")
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_simulate_invalid_bin_exits_2(tmp_path):
    for text in (
        "total_steps=1000\nbin=300\n",
        "bin=0\n",
        "bin=-5\n",
        "players=5\n",
        "total_steps=-2500\n",
        "total_steps=0\n",
    ):
        cfg = write(tmp_path, "run.cfg", text)
        code = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2, text
    assert not (tmp_path / "learning_curve.csv").exists()


def test_simulate_board_size_over_key_limit_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", "board_size=300\ntotal_steps=10\nbin=10\n")
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "board size" in err and "255" in err


def test_simulate_unwritable_out_exits_3(tmp_path):
    cfg = write(tmp_path, "run.cfg", SMALL)
    assert run_cli(["simulate", "--config", cfg, "--out", "/proc/nope"]) == 3


# --- analyze --------------------------------------------------------------------


def test_analyze_classification_failure_exits_4(tmp_path, capsys):
    # desk-scale training cannot produce a defecting-classified QL policy
    # reliably; with a tiny alpha_d the gate must trip and report alphas
    cfg = write(
        tmp_path,
        "an.cfg",
        "board_size=3\nmatch_players=2\ntrain_steps=2000\nmatch_steps=500\n"
        "match_trials=1\neval_steps=500\nalpha_c=0.000001\nalpha_d=0.000002\n",
    )
    code = run_cli(["analyze", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 4
    assert "alpha=" in err


def test_analyze_zero_match_trials_exits_2_before_training(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained despite an invalid config")

    monkeypatch.setattr("civgame.cli.train_policy", no_training)
    cfg = write(tmp_path, "an.cfg", "match_trials=0\n")
    assert run_cli(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "matrix.csv").exists()


# --- plot ----------------------------------------------------------------------


def simulate_small(tmp_path):
    cfg = write(tmp_path, "run.cfg", SMALL)
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_plot_learning_curve_svg(tmp_path):
    out = simulate_small(tmp_path)
    svg_path = tmp_path / "curve.svg"
    code = run_cli(
        ["plot", str(out / "learning_curve.csv"), "--out", str(svg_path)]
    )
    assert code == 0
    svg = svg_path.read_text()
    root = ET.fromstring(svg)  # well-formed XML
    assert root.tag.endswith("svg")
    assert svg.count("polyline") >= 3  # one median line per panel
    assert "polygon" in svg  # min/max band across 2 trials


def test_plot_actions_svg(tmp_path):
    out = simulate_small(tmp_path)
    svg_path = tmp_path / "actions.svg"
    assert run_cli(["plot", str(out / "actions.csv"), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    ET.fromstring(svg)
    assert svg.count("<polyline") == 4 * 6  # 4 players x 6 actions


def test_plot_single_trial_has_no_band(tmp_path):
    cfg = write(tmp_path, "run.cfg", SMALL.replace("trials = 2", "trials = 1"))
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    svg_path = tmp_path / "curve.svg"
    assert run_cli(
        ["plot", str(out / "learning_curve.csv"), "--out", str(svg_path)]
    ) == 0
    assert "polygon" not in svg_path.read_text()


def test_plot_header_only_csv_exits_2(tmp_path, capsys):
    path = write(
        tmp_path,
        "empty.csv",
        "trial,bin_start,cs_sum,cs_avg,invasions,successful_defers\n",
    )
    assert run_cli(["plot", path, "--out", str(tmp_path / "x.svg")]) == 2
    assert "no data" in capsys.readouterr().err


def test_plot_unknown_schema_exits_2(tmp_path):
    path = write(tmp_path, "odd.csv", "a,b\n1,2\n")
    assert run_cli(["plot", path, "--out", str(tmp_path / "x.svg")]) == 2


def test_plot_malformed_rows_exit_2(tmp_path):
    header = "trial,bin_start,cs_sum,cs_avg,invasions,successful_defers\n"
    for name, text in [
        ("bad.csv", header + "0,x,1,1,1,1\n"),
        # a field past the csv module's field size limit (131072)
        ("huge.csv", header + "0," + "9" * 200_000 + ",1,1,1,1\n"),
    ]:
        path = write(tmp_path, name, text)
        assert run_cli(["plot", path, "--out", str(tmp_path / "x.svg")]) == 2


def test_render_csv_dispatch_errors(tmp_path):
    with pytest.raises(ChartError):
        render_csv(str(tmp_path / "missing.csv"))
