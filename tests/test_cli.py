"""Config parsing, CLI commands, exit codes, file emission, SVG output."""

import math
import os
import re
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from civgame.agents import AgentKind, QTable
from civgame.charts import render_csv
from civgame.cli import main
from civgame.config import SCHEMA, ConfigError, load_config, parse_config
from civgame.experiment import (
    ACTIONS_HEADER,
    LEARNING_CURVE_HEADER,
    RunConfig,
    Variant,
)
from civgame.matrix import AnalysisConfig, TrainedPolicy


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
    with pytest.raises(ConfigError, match=r"^line 2: ") as err:
        parse_config(path)
    assert "speed" in str(err.value)


def test_repeated_key_reports_both_lines(tmp_path):
    path = write(tmp_path, "bad.cfg", "trials=2\nseed=1\ntrials=1\n")
    with pytest.raises(ConfigError, match=r"^line 3: ") as err:
        parse_config(path)
    assert "'trials'" in str(err.value)
    assert "line 1" in str(err.value)
    assert run_cli(["simulate", "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "line, named",
    [
        ("trials=soon", "soon"),
        ("variant=feudal", "base|sovereign"),
        ("agent1=robot", "qlearner|hqlearner|random"),
    ],
    ids=["trials", "variant", "agent1"],
)
def test_bad_value_reports_line(tmp_path, line, named):
    path = write(tmp_path, "bad.cfg", line + "\n")
    with pytest.raises(ConfigError, match=r"^line 1: ") as err:
        parse_config(path)
    assert named in str(err.value)


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


def test_simulate_bad_config_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", "nonsense=1\n")
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "nonsense" in capsys.readouterr().err
    # bytes that are not UTF-8: the error names the file
    (tmp_path / "run.cfg").write_bytes(b"\xff\xfe")
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert cfg in capsys.readouterr().err


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
    assert re.fullmatch(
        r"policy classification failed: cooperative alpha=\d+\.\d{3}, "
        r"defecting alpha=\d+\.\d{3} \(thresholds 1e-06/2e-06\)\n",
        err,
    ), err
    assert not (tmp_path / "matrix.csv").exists()


def test_analyze_prints_alphas_tally_and_stag_fraction(
    tmp_path, monkeypatch, capsys
):
    alphas = {AgentKind.HQLEARNER: 1.0, AgentKind.QLEARNER: 30.0}

    def untrained(cfg, kind):
        return TrainedPolicy([QTable(), QTable()], final_eps=0.5, alpha=alphas[kind])

    monkeypatch.setattr("civgame.cli.train_policy", untrained)
    cfg = write(
        tmp_path, "an.cfg", "match_steps=200\nmatch_trials=3\nseed=3\n"
    )
    out = tmp_path / "out"
    assert run_cli(["analyze", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "alpha: cooperative=1.000 defecting=30.000\n"
        "NotSocialDilemma: 1/3\n"
        "OtherDilemma: 1/3\n"
        "StagHunt: 1/3\n"
        "stag_hunt_fraction=0.3333333333333333\n"
    )
    assert (out / "matrix.csv").read_text().splitlines()[-1].endswith(
        ",0.3333333333333333"
    )


def test_analyze_zero_match_trials_exits_2_before_training(
    tmp_path, monkeypatch, capsys
):
    def no_training(*args, **kwargs):
        raise AssertionError("trained despite an invalid config")

    monkeypatch.setattr("civgame.cli.train_policy", no_training)
    for key in (
        "match_trials", "train_steps", "defect_train_steps",
        "eval_steps", "match_steps",
    ):
        for value in (0, -3):
            cfg = write(tmp_path, "an.cfg", f"{key}={value}\n")
            code = run_cli(["analyze", "--config", cfg, "--out", str(tmp_path)])
            assert code == 2, (key, value)
            assert f"{key} must be >= 1" in capsys.readouterr().err
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


def test_plot_unknown_schema_exits_2(tmp_path, capsys):
    path = write(tmp_path, "odd.csv", "a,b\n1,2\n")
    assert run_cli(["plot", path, "--out", str(tmp_path / "x.svg")]) == 2
    assert path in capsys.readouterr().err


def test_plot_malformed_rows_exit_2(tmp_path, capsys):
    header = "trial,bin_start,cs_sum,cs_avg,invasions,successful_defers\n"
    actions = "trial,bin_start,player,up,down,left,right,stay,defer\n"
    # (file name, contents, number of the bad data row when one is at fault)
    for name, text, bad_row in [
        ("bad.csv", header + "0,0,1,1,1,1\n0,x,1,1,1,1\n", 2),
        ("bad_actions.csv", actions + "0,0,0,1,1,1,1,1,y\n", 1),
        # values that parse as floats but cannot be drawn
        ("nan.csv", header + "0,0,1,1,1,1\n0,100,1,nan,1,1\n", 2),
        ("inf.csv", header + "0,0,1,1,inf,1\n", 1),
        ("neg_inf.csv", header + "0,0,1,1,1,-inf\n", 1),
        # a field past the csv module's field size limit (131072)
        ("huge.csv", header + "0," + "9" * 200_000 + ",1,1,1,1\n", None),
        # UTF-16 with a byte-order mark: not UTF-8
        ("utf16.csv", (header + "0,0,1,1,1,1\n").encode("utf-16"), None),
    ]:
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        assert run_cli(["plot", str(path), "--out", str(tmp_path / "x.svg")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" not in err
        assert str(path) in err
        if bad_row is not None:
            assert f"data row {bad_row}:" in err


def test_render_csv_reads_the_csv_once(tmp_path, monkeypatch):
    import civgame.charts

    out = simulate_small(tmp_path)
    read = civgame.charts._read_rows
    reads = []

    def counting_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(civgame.charts, "_read_rows", counting_read)
    paths = [str(out / "learning_curve.csv"), str(out / "actions.csv")]
    for path in paths:
        render_csv(path)
    assert reads == paths


def test_render_csv_dispatch_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        render_csv(str(tmp_path / "missing.csv"))


def test_plot_unreadable_csv_exits_3(tmp_path, capsys):
    # an I/O failure, as for a missing config file
    for path in (tmp_path / "missing.csv", tmp_path):
        assert run_cli(["plot", str(path), "--out", str(tmp_path / "x.svg")]) == 3
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


_MAX = "1.7976931348623157e+308"
# number text: small counts, the float edge cases, and ints past the
# float range or past int()'s digit limit
_PLOT_COUNT = st.integers(0, 5).map(str)
_PLOT_NUMBER = st.one_of(
    _PLOT_COUNT,
    st.sampled_from([
        "nan", "inf", "-inf", "1e400", "1e17", _MAX, "-" + _MAX,
        "1" + "0" * 400, "9" * 5000,
    ]),
    st.integers().map(str),
    st.floats().map(repr),
)
_PLOT_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)


def _plot_row(width):
    """A row of counts or of any numbers, of the header's width, or a
    ragged row that may hold any text (empty, non-ASCII, NUL, quotes,
    line breaks)."""
    return st.one_of(
        st.lists(_PLOT_COUNT, min_size=width, max_size=width),
        st.lists(_PLOT_NUMBER, min_size=width, max_size=width),
        st.lists(_PLOT_NUMBER | _PLOT_TEXT,
                 min_size=max(0, width - 2), max_size=width + 2),
    )


_PLOT_CSV = st.sampled_from([LEARNING_CURVE_HEADER, ACTIONS_HEADER]).flatmap(
    lambda header: st.tuples(
        st.just(header),
        st.lists(_plot_row(len(header)), max_size=4),
        # a tail that is not UTF-8, or a NUL byte
        st.sampled_from([b"", b"\x00", b"\xff", b"\xc3", b"\x80 tail\n"]),
    )
)
# a number as the SVG writes it, or a non-finite value's name
_SVG_NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|\b(?:nan|inf|infinity)\b", re.I
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(csv_parts=_PLOT_CSV)
# a constant value the axis cannot add 1.0 to, a span past the float
# range, and a bin_start past it
@example(csv_parts=(LEARNING_CURVE_HEADER, [[*"000", "1e17", *"00"]], b""))
@example(csv_parts=(LEARNING_CURVE_HEADER, [
    [*"000", _MAX, *"00"], [*"010", "-" + _MAX, *"00"],
], b""))
@example(csv_parts=(ACTIONS_HEADER, [["0", "1" + "0" * 400, "0", *"111111"]], b""))
def test_plot_exit_codes_hold_for_any_csv_bytes(csv_parts):
    """plot either draws only finite numbers (exit 0) or rejects the CSV
    (exit 2); it never writes a non-finite coordinate or a traceback."""
    header, rows, tail = csv_parts
    text = "".join(",".join(cells) + "\n" for cells in [header, *rows])
    with tempfile.TemporaryDirectory() as tmp:
        path, svg_path = os.path.join(tmp, "in.csv"), os.path.join(tmp, "x.svg")
        with open(path, "wb") as f:
            f.write(text.encode("utf-8") + tail)
        code = main(["plot", path, "--out", svg_path])
        assert code in (0, 2)
        if code == 2:
            assert not os.path.exists(svg_path)
            return
        with open(svg_path, encoding="utf-8") as f:
            svg = f.read()
    ET.fromstring(svg)
    assert all(math.isfinite(float(m)) for m in _SVG_NUMBER.findall(svg))


# --- exit-code contract -----------------------------------------------------------

# Keys whose size sets the work or the process count of a run; every
# example sets each of them, so none falls back to a full-scale default.
_STEP_KEYS = (
    "total_steps", "bin", "train_steps", "defect_train_steps",
    "match_steps", "eval_steps",
)
_BOUNDS = {
    "workers": 2, "trials": 2, "board_size": 6, "match_trials": 2,
    **dict.fromkeys(_STEP_KEYS, 400),
}
# Values each key's parser and range checks accept (the steps and bin
# need not divide each other); everything else comes in as a fault.
_GOOD = {
    **dict.fromkeys(_STEP_KEYS, st.sampled_from([50, 100, 200, 400])),
    "workers": st.integers(1, 2),
    "trials": st.integers(1, 2),
    "match_trials": st.integers(1, 2),
    "board_size": st.integers(2, 6),
    "players": st.integers(1, 4),
    "match_players": st.integers(2, 4),
    "seed": st.integers(0, 1000),
    "invasion_bonus": st.integers(0, 30),
    "invasion_penalty": st.integers(-30, -1),
    "vote_bonus": st.integers(-30, 30),
    "vote_penalty": st.integers(-30, 30),
    **dict.fromkeys(["alpha", "gamma", "eps0", "eps_decay"], st.floats(0, 1)),
    **dict.fromkeys(["alpha_c", "alpha_d"], st.floats(0, 100)),
    **dict.fromkeys(["variant", "match_variant"], st.sampled_from(list(Variant))),
    **{key: st.sampled_from(list(AgentKind)) for key in SCHEMA if key.startswith("agent")},
}
# one line of a config file: no line breaks and no surrogates
_LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=12,
)


def _setting(text: str) -> str:
    """The key or value part that parse_config reads from a line's text."""
    return text.split("#", 1)[0].strip()


def _not_int(text: str) -> bool:
    try:
        int(_setting(text))
    except ValueError:
        return True
    return False


def _text(value) -> str:
    return value.value if isinstance(value, (Variant, AgentKind)) else repr(value)


def _fault(key):
    """A (key, line) pair whose line sets key to any value text, but never
    past its bound."""
    if key in _BOUNDS:
        # junk that parses as an int would escape the bound
        value = st.integers(-2, _BOUNDS[key]).map(str) | _LINE_TEXT.filter(_not_int)
    else:
        value = st.integers(-50, 50).map(str) | st.floats().map(repr) | _LINE_TEXT
    return value.map(lambda v: (key, f"{key}={v}"))


def _lines(good, faults):
    """The good lines, each fault line in place of its key's good line.

    A repeated key is a parse error, so a fault that only added a line
    would never reach the run-time checks."""
    lines = {key: f"{key}={_text(value)}" for key, value in good.items()}
    junk = []
    for key, line in faults:
        if key is None:
            junk.append(line)
        else:
            lines[key] = line
    return list(lines.values()) + junk


_CONFIG_LINES = st.tuples(
    st.fixed_dictionaries(
        {key: _GOOD[key] for key in _BOUNDS},
        optional={key: _GOOD[key] for key in SCHEMA if key not in _BOUNDS},
    ),
    st.lists(
        st.sampled_from(sorted(SCHEMA)).flatmap(_fault)
        # junk lines never set a known key
        | _LINE_TEXT.filter(
            lambda line: _setting(line).partition("=")[0].strip() not in SCHEMA
        ).map(lambda line: (None, line)),
        max_size=2,
    ),
).flatmap(lambda parts: st.permutations(_lines(*parts)))


# configs with invasion_bonus >= |invasion_penalty| warn that the fear
# incentive is absent, which is expected here
@pytest.mark.filterwarnings("ignore:invasion bonus is not outweighed:UserWarning")
@settings(max_examples=150, derandomize=True, deadline=None)
@given(command=st.sampled_from(["simulate", "analyze"]), lines=_CONFIG_LINES)
def test_exit_codes_hold_for_any_config_text(command, lines):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "out")
        assert main([command, "--config", cfg, "--out", out]) in (0, 2, 3, 4)


# --- start-up cost -------------------------------------------------------------


def test_cli_import_loads_no_process_pool():
    """`import civgame.cli` leaves multiprocessing unloaded: only a run
    that makes a pool (workers > 1) pays for importing it."""
    import subprocess
    import sys

    import civgame

    src = os.path.dirname(os.path.dirname(os.path.abspath(civgame.__file__)))
    code = (
        "import sys, civgame.cli;"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env,
    )
    assert out.stdout.strip() == "[]"
