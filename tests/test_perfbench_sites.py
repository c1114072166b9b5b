"""Every name that perfbench's tracer wraps still exists in civgame.

The tracer wraps a name only if its module still has it and reports the
rest as missing, so a renamed or deleted function would quietly drop
its layer from the benchmark. perfbench's own tests run outside this
suite; this check keeps the names in step with every change to `src`.
"""

import importlib
import importlib.util
from pathlib import Path

SITES_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "sites.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("perfbench_sites", SITES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_site_resolves():
    sites = load_sites()
    missing = []
    for site in {*sites.LAYER_SITES, *sites.TABLE_SITES, *sites.KEY_SITES}:
        module_name, _, attr = site.rpartition(".")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(site)
    assert sorted(missing) == []
