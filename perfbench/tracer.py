"""Span tracer that times calls into civgame's layers from outside.

A site is the dotted name a caller looks up at call time, such as
`civgame.agents.encode_state` (the `encode_state` that `ola_broadcast`
calls). Entering a `Tracer` replaces each site with a timing wrapper;
leaving it puts every original object back. Spans are kept in memory as
flat arrays (site, parent, start, end) and only written out at the end,
so tracing does no I/O while the program runs.

A span is named after the layer that does the work, the module that
defines the function (`game.encode_state`); the caller gives the name
with each site. A site that the program no longer has is skipped and
listed in `missing`. Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import operator
import time
from array import array
from collections import Counter


def _resolve(site: str):
    module_name, _, attr = site.rpartition(".")
    return importlib.import_module(module_name), attr


def site_module(site: str) -> str:
    """`civgame.agents.encode_state` -> `agents`, the module that looks it up."""
    return site.rsplit(".", 2)[-2]


class Tracer:
    """Wraps `sites` (site -> layer name) for the duration of a `with` block.

    `key_sites` maps a site to the position of the argument whose
    distinct values are counted (the state key of `select_action`).
    `factory_sites` are constructors whose results are kept, so the
    objects can be read when the run ends (the Q-tables a run builds).
    """

    def __init__(
        self,
        sites: dict[str, str],
        key_sites: dict[str, int] | None = None,
        factory_sites: tuple[str, ...] = (),
    ):
        self.sites = sites
        self.key_sites = key_sites or {}
        self.factory_sites = factory_sites
        self.site_names: list[str] = []  # layer name per site id
        self.site_modules: list[str] = []  # short module name per site id
        self.site_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.keys: list[tuple[int, bytes]] = []  # (span id, key)
        self.made: list = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for site, layer in self.sites.items():
                site_id = len(self.site_names)
                self.site_names.append(layer)
                self.site_modules.append(site_module(site))
                self._replace(
                    site, lambda fn: self._wrap(fn, site_id, self.key_sites.get(site))
                )
            for site in self.factory_sites:
                self._replace(site, self._keep)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every wrapped name, last wrapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, site: str, make_wrapper) -> None:
        module, attr = _resolve(site)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(site)
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _wrap(self, fn, site_id: int, key_arg: int | None):
        site_of, parent_of = self.site_of, self.parent_of
        start, end, stack = self.start, self.end, self._stack
        keys = self.keys
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(site_of)
            site_of.append(site_id)
            parent_of.append(stack[-1])
            end.append(0.0)
            if key_arg is not None:
                keys.append((idx, args[key_arg]))
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _keep(self, cls):
        made = self.made

        def make(*args, **kwargs):
            obj = cls(*args, **kwargs)
            made.append(obj)
            return obj

        make.__wrapped__ = cls
        return make

    def first_end(self, layer: str) -> float | None:
        """Clock reading at the end of the first span of `layer`."""
        for i, s in enumerate(self.site_of):
            if self.site_names[s] == layer:
                return self.end[i]
        return None

    def top_level_s(self, layers: tuple[str, ...]) -> float:
        """Summed duration of the parentless spans of `layers`."""
        return sum(
            self.end[i] - self.start[i]
            for i, s in enumerate(self.site_of)
            if self.parent_of[i] < 0 and self.site_names[s] in layers
        )

    def write_spans(self, path: str) -> None:
        """Gzipped CSV, one `id,name,start_s,end_s,parent_id` line per span.

        Times are seconds from the first span's start; -1 is no parent.
        """
        names, site_of, parent_of = self.site_names, self.site_of, self.parent_of
        t0 = self.start[0] if len(self.start) else 0.0
        start, end = self.start, self.end
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id,name,start_s,end_s,parent_id\n")
            for lo in range(0, len(site_of), 1 << 16):
                f.write("".join(
                    f"{i},{names[site_of[i]]},{start[i] - t0:.9f},"
                    f"{end[i] - t0:.9f},{parent_of[i]}\n"
                    for i in range(lo, min(lo + (1 << 16), len(site_of)))
                ))

    def layer_stats(self, scope: str | None = None) -> dict[str, dict]:
        """Calls and self time per layer and per (layer, site module).

        With `scope`, only spans below a span of that layer are counted.
        The result maps a layer name to {"calls", "self_s", "sites"},
        where "sites" maps the site's module to its own calls and self_s.
        """
        site_of, parent_of = self.site_of, self.parent_of
        n = len(site_of)
        child_s = array("d", bytes(8 * n))
        durations = array("d", map(operator.sub, self.end, self.start))
        for i in range(n):
            p = parent_of[i]
            if p >= 0:
                child_s[p] += durations[i]
        inside = bytearray(b"\x01") * n if scope is None else self._inside(scope)
        calls: Counter = Counter()
        self_s: dict[int, float] = {}
        for i in range(n):
            if inside[i]:
                s = site_of[i]
                calls[s] += 1
                self_s[s] = self_s.get(s, 0.0) + durations[i] - child_s[i]
        stats: dict[str, dict] = {}
        for s, name in enumerate(self.site_names):
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "sites": {}})
            entry["calls"] += calls[s]
            entry["self_s"] += self_s.get(s, 0.0)
            entry["sites"][self.site_modules[s]] = {
                "calls": calls[s], "self_s": self_s.get(s, 0.0),
            }
        return stats

    def key_counts(self, scope: str | None = None) -> tuple[int, int]:
        """(calls, distinct keys) over the key sites, optionally scoped."""
        if scope is None:
            keys = [k for _, k in self.keys]
        else:
            inside = self._inside(scope)
            keys = [k for i, k in self.keys if inside[i]]
        return len(keys), len(set(keys))

    def _inside(self, scope: str) -> bytearray:
        """Per span: whether some ancestor span is of layer `scope`.

        A parent is always recorded before its children, so one pass
        in id order sees each parent's answer first.
        """
        site_of, parent_of = self.site_of, self.parent_of
        scoped = {k for k, name in enumerate(self.site_names) if name == scope}
        inside = bytearray(len(site_of))
        for i in range(len(site_of)):
            p = parent_of[i]
            inside[i] = p >= 0 and (inside[p] or site_of[p] in scoped)
        return inside
