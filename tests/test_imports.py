"""Import hygiene: no module in src/civgame or tests imports a name that
it never reads.

A statement marked `# noqa: F401` is skipped (perfbench's tracer looks
those names up as layer sites), and so is a name listed in `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "civgame").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue  # a compiler switch, not a name to read
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
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
    return [(line, name) for line, name in imported if name not in read]


def test_every_imported_name_is_read():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_finds_an_unused_import():
    source = (
        "import os\n"
        "from sys import argv, path  # path is read below\n"
        "from json import dumps  # noqa: F401\n"
        "from re import compile as rx\n"
        "__all__ = ['rx']\n"
        "print(path)\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "argv")]
