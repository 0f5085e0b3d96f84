"""Span recorder and wrapper installer for the traced run.

Every public function of every `popmatch` module is wrapped, and every
module attribute bound to it (the defining module's, re-exports, and
`from .x import f` bindings in other modules) is pointed at the
wrapper, because that is the attribute a caller looks up.  Nothing under
`src/` changes.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from typing import Callable, Dict, List

# A span is [id, parent id or None, name, start, end].
Span = list

COUNTER_SPAN = "trace.counter"


def _pp_count(result) -> int:
    return sum(1 for lab in result.label.values() if lab == (1, 1))


# Counts read off a wrapped call's result: name -> (counter, reducer, fn).
RESULT_COUNTERS: Dict[str, tuple] = {
    "instance.parse_instance": (
        "instance.edges",
        max,
        lambda inst: sum(len(inst.pref[m]) for m in inst.men),
    ),
    "level_graph.build_level_graph": (
        "level_graph.gprime_edges",
        max,
        lambda level: sum(len(level.graph.pref[m]) for m in level.graph.men),
    ),
    "gale_shapley.stable_with_edge": (
        "gale_shapley.stable_with_edge_hits",
        sum,
        lambda got: int(got is not None),
    ),
    "elections.label_edges": ("elections.pp_edges", max, _pp_count),
    "popular_edge.popular_edge": (
        "popular_edge.yes",
        sum,
        lambda got: int(got is not None),
    ),
    "min_cost.stable_matchings": ("min_cost.stable_matchings_count", max, len),
}


class Recorder:
    """Collects spans and result counters while wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    def _open(self, name: str) -> Span:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, result) -> None:
        counter, reduce_, fn = RESULT_COUNTERS[name]
        # Counting is tracing work, so it gets a span of its own that is
        # subtracted from the caller's self time.
        span = self._open(COUNTER_SPAN)
        try:
            value = fn(result)
            old = self.counters.get(counter)
            self.counters[counter] = value if old is None else reduce_((old, value))
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counted = name in RESULT_COUNTERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counted:
                self._count(name, result)
            return result

        return wrapper


def popmatch_modules(package) -> list:
    return [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Installed:
    """Wrappers for every binding of every public function; `apply`
    points the bindings at the wrappers and `remove` restores them."""

    def __init__(self, recorder: Recorder, package) -> None:
        modules = popmatch_modules(package)
        prefix = package.__name__ + "."
        wrappers: Dict[Callable, Callable] = {}
        for mod in modules[1:]:
            short = mod.__name__[len(prefix) :]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = recorder.wrap(f"{short}.{attr}", obj)
        self._patches = [
            (mod, attr, obj, wrappers[obj])
            for mod in modules
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    @property
    def bindings(self) -> List[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._patches)

    def apply(self) -> None:
        for mod, attr, _orig, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, orig, _wrapper in self._patches:
            setattr(mod, attr, orig)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its child spans.  The
    recorder opens and closes children one after another inside their
    parent, so children never overlap each other or their parent's ends."""
    selfs = {sid: end - start for sid, _parent, _name, start, end in spans}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            selfs[parent] -= end - start
    return selfs


def totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive time (outermost spans of that
    name only, so recursion is not counted twice) and self time."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, parent, name, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        anc = parent
        while anc is not None and by_id[anc][2] != name:
            anc = by_id[anc][1]
        if anc is None:
            entry["total_s"] += end - start
    return out


def calls_under(spans: List[Span], name: str, ancestor: str) -> int:
    """Number of `name` spans with an `ancestor` span above them."""
    by_id = {s[0]: s for s in spans}
    count = 0
    for _sid, parent, span_name, _start, _end in spans:
        if span_name != name:
            continue
        anc = parent
        while anc is not None and by_id[anc][2] != ancestor:
            anc = by_id[anc][1]
        count += anc is not None
    return count
