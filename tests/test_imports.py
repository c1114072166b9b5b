"""Import hygiene: no module in src/civgame, tests or tools imports a
name that it never reads.

A name that perfbench's tracer looks up in the module as a site
(perfbench/sites.py) is exempt, and so is a name listed in `__all__`.
Such an import is marked `# noqa: F401`; the mark alone exempts nothing.
"""

import ast
from pathlib import Path

from conftest import perfbench_sites

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "civgame").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "tools").glob("*.py")])
SITES = perfbench_sites()


def traced_names(path: Path) -> set[str]:
    """The names perfbench's tracer looks up in the module at `path`
    (civgame.agents for src/civgame/agents.py; none in a test module)."""
    module = f"{path.parent.name}.{path.stem}"
    return {
        site.rpartition(".")[2]
        for site in SITES
        if site.rpartition(".")[0] == module
    }


def unused_imports(
    source: str, traced: set[str] = frozenset()
) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import and never read,
    unless `traced` holds it."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue  # a compiler switch, not a name to read
        for alias in node.names:
            # `import a.b` binds `a`
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported
            if name not in read and name not in traced]


def test_every_imported_name_is_read():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(
            path.read_text(encoding="utf-8"), traced_names(path)
        )
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_finds_an_unused_import():
    source = (
        "import os\n"
        "from sys import argv, path  # path is read below\n"
        "from json import dumps  # noqa: F401\n"
        "from json import loads  # noqa: F401\n"
        "from re import compile as rx\n"
        "__all__ = ['rx']\n"
        "print(path)\n"
    )
    assert unused_imports(source, traced={"dumps"}) == [
        (1, "os"), (2, "argv"), (4, "loads"),
    ]
