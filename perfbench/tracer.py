"""Spans around calls into pegball's public functions, recorded from outside.

`Tracer.install()` replaces each traced function in every loaded ``pegball``
module that binds it (``basis`` binds ``distance_peg`` by ``from .distance
import``, so patching ``pegball.distance`` alone would miss those calls), and
wraps ``PegPermutation.__init__`` on the class itself.

Every call updates per-layer aggregates (calls, self time, and the
counters named in ``_COUNTERS``) through a stack of open spans; self time is a
span's duration minus the time covered by its traced children.  Every call
of a non-leaf layer is also kept as a span record (name, parent, start, end)
in memory and written out by `write_spans`.  Leaf layers run millions of
times per job (one ``PegPermutation`` per proper pattern), so they are only
aggregated: storing them would take hundreds of megabytes per process.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# layer name -> (module, attribute); "peg.PegPermutation" wraps __init__
LAYERS = {
    "basis.peg_basis": ("pegball.basis", "peg_basis"),
    "basis.is_peg_basis_member": ("pegball.basis", "is_peg_basis_member"),
    "basis.m_set": ("pegball.basis", "m_set"),
    "basis.standard_basis": ("pegball.basis", "standard_basis"),
    "peg.proper_patterns": ("pegball.peg", "proper_patterns"),
    "peg.clean_compact_proper_patterns":
        ("pegball.peg", "clean_compact_proper_patterns"),
    "peg.enumerate_clean_compact": ("pegball.peg", "enumerate_clean_compact"),
    "peg.PegPermutation": ("pegball.peg", "PegPermutation"),
    "distance.distance": ("pegball.distance", "distance"),
    "distance.get_table": ("pegball.distance", "get_table"),
    "distance.distance_peg": ("pegball.distance", "distance_peg"),
    "distance.distance_bounded": ("pegball.distance", "distance_bounded"),
    "distance.ball": ("pegball.distance", "ball"),
    "inflation.grid_enumerate": ("pegball.inflation", "grid_enumerate"),
    "inflation.monotone_inflate": ("pegball.inflation", "monotone_inflate"),
    "inflation.a_set_stream": ("pegball.inflation", "a_set_stream"),
    "inflation.grid_member": ("pegball.inflation", "grid_member"),
    "perm.contains_pattern": ("pegball.perm", "contains_pattern"),
    "perm.avoids_all": ("pegball.perm", "avoids_all"),
    "perm.minimal_elements": ("pegball.perm", "minimal_elements"),
    "perm.check_permutation": ("pegball.perm", "check_permutation"),
    "generators.generating_set": ("pegball.generators", "generating_set"),
    "enumeration.count_ball": ("pegball.enumeration", "count_ball"),
    "cli.run": ("pegball.cli", "run"),
}

LEAVES = {"peg.PegPermutation", "perm.check_permutation",
          "perm.contains_pattern", "inflation.monotone_inflate"}


# counter name -> function(args, result) giving the amount to add per call
def _is_true(args, result):
    return 1 if result else 0


def _size(args, result):
    return len(result)


_COUNTERS = {
    "basis.is_peg_basis_member": ("hits", _is_true),
    "peg.proper_patterns": ("patterns_out", _size),
    "distance.distance_bounded": ("found", lambda a, r: r is not None),
    "distance.ball": ("states_out", _size),
    "inflation.grid_enumerate": ("perms_out", _size),
    "inflation.grid_member": ("hits", _is_true),
    "perm.contains_pattern": ("hits", _is_true),
}


def _rebind(original, replacement) -> None:
    """Replace `original` under every name that binds it in a pegball module."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "pegball"
                                   or name.startswith("pegball.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


class Tracer:
    def __init__(self) -> None:
        self.names = list(LAYERS)
        self._leaf = [name in LEAVES for name in self.names]
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.counters: dict[str, int] = {}
        self.components: set = set()
        self._stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for nid, (layer, (modname, attr)) in enumerate(LAYERS.items()):
            original = getattr(sys.modules[modname], attr)
            if layer == "peg.PegPermutation":
                original.__init__ = self._wrap(nid, original.__init__)
            elif inspect.isgeneratorfunction(original):
                _rebind(original, self._wrap_generator(nid, original))
            else:
                _rebind(original, self._wrap(nid, original))
        traced = sys.modules["pegball.distance"].distance_peg
        components = self.components

        def distance_peg(model, pp, **kwargs):
            components.add((model, len(pp), pp.bullet_values()))
            return traced(model, pp, **kwargs)

        _rebind(traced, distance_peg)

    # -- span bookkeeping -----------------------------------------------------

    def _enter(self, nid: int) -> list:
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        start = time.perf_counter()
        if self._leaf[nid]:
            rec = parent
        else:
            rec = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(0.0)
        frame = [start, 0.0, rec, nid]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        nid = frame[3]
        dur = end - frame[0]
        self.calls[nid] += 1
        self.self_time[nid] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if not self._leaf[nid]:
            self.span_end[frame[2]] = end

    def _wrap(self, nid: int, fn):
        enter, leave = self._enter, self._exit
        counters = self.counters
        key, count = _COUNTERS.get(self.names[nid], (None, None))
        if key is not None:
            key = f"{self.names[nid]}.{key}"
            counters[key] = 0

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if key is not None:
                counters[key] += count(args, result)
            return result

        return wrapper

    def _wrap_generator(self, nid: int, fn):
        """One span per resumption; `calls` counts the items yielded."""
        enter, leave = self._enter, self._exit
        calls = self.calls

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = enter(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    leave(frame)
                    calls[nid] -= 1
                    return
                except BaseException:
                    leave(frame)
                    raise
                leave(frame)
                yield item

        return wrapper

    def reset(self) -> None:
        """Zero calls, self times and counters; spans and components stay."""
        for nid in range(len(self.names)):
            self.calls[nid] = 0
            self.self_time[nid] = 0.0
        for key in self.counters:
            self.counters[key] = 0

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer sums; additive across processes (see `layer_metrics`)."""
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_time[nid]
        out["distance.peg_components_built"] = len(self.components)
        out["trace.spans"] = len(self.span_name)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "start", "end"],
                       "spans": [list(row) for row in zip(
                           self.span_name, self.span_parent,
                           self.span_start, self.span_end)]}, fh)
