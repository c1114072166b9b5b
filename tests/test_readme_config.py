"""README's config section agrees with config.SCHEMA, key by key."""

import re
from pathlib import Path

from civgame.config import SCHEMA

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)
SECTION = README.split("### Config keys and defaults", 1)[1].split("\n## ", 1)[0]


def _expand(name: str) -> list[str]:
    """`agent0..agent3` names agent0, agent1, agent2 and agent3."""
    m = re.fullmatch(r"([a-z_]+)(\d+)\.\.\1(\d+)", name)
    if m is None:
        return [name]
    stem, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
    return [f"{stem}{i}" for i in range(lo, hi + 1)]


def _documented_defaults() -> list[tuple[str, str]]:
    """(key, default text) pairs from the table and the analysis sentence."""
    pairs = []
    for line in SECTION.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`"):
            continue
        for names, defaults in ((cells[0], cells[1]), (cells[3], cells[4])):
            keys = [
                k for n in re.findall(r"`([^`]+)`", names) for k in _expand(n)
            ]
            values = [v.strip() for v in defaults.split("/")]
            if len(values) == 1:  # a key range shares one default
                values *= len(keys)
            assert len(keys) == len(values), line
            pairs += zip(keys, values)
    pairs += re.findall(r"`(\w+)`\s+\((\S+?)\)", SECTION)
    return pairs


def test_every_schema_key_is_named_in_readme():
    prose = re.sub(r"```.*?```", "", README, flags=re.S)  # no code blocks
    named = {k for n in re.findall(r"`([^`]+)`", prose) for k in _expand(n)}
    assert sorted(set(SCHEMA) - named) == []


def test_readme_defaults_match_schema():
    pairs = _documented_defaults()
    assert sorted({k for k, _ in pairs}) == sorted(SCHEMA)
    for key, text in pairs:
        parser, default = SCHEMA[key]
        assert parser(text) == default, f"README gives {key}={text}"
