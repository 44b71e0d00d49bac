"""Layer spans taken from outside the program.

:func:`installed` swaps wrappers onto the public functions listed in
:data:`TARGETS` for the duration of a ``with`` block.  A module-level
function is replaced wherever a ``repro`` module holds it (``from x import
f`` copies the binding, so patching only the defining module would miss
callers); a method is replaced on its class.  Each wrapped call records a
span ``[layer, start, end, parent]`` in the :class:`Tracer`'s in-memory
list.  Nothing under ``src/`` is edited.

A generator target (``insertion_variants``) gets one span per resume, so
the work of producing each variant is charged to the layer and the time
the caller spends between resumes is not.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List

#: (owner, attribute, layer, kind).  ``owner`` is ``module`` or
#: ``module:Class``; ``kind`` is "call", "gen" (generator resumes) or
#: "hit" (a call whose non-None return counts as a hit).
TARGETS = (
    ("repro.planar.rotation:RotationSystem", "validate", "planar.validate", "call"),
    ("repro.planar.rotation:RotationSystem", "copy", "planar.rotation_copy", "call"),
    ("repro.planar.construct", "embed", "planar.embed", "call"),
    ("repro.planar.construct", "embed_subgraph", "planar.embed", "call"),
    ("repro.planar.checks", "require_planar_connected", "planar.check", "call"),
    ("repro.core.augment", "balanced_insertion", "core.augment", "hit"),
    ("repro.core.augment", "insertion_variants", "core.augment", "gen"),
    ("repro.core.augment", "heavy_nested_insertion", "core.augment", "call"),
    ("repro.core.config:PlanarConfiguration", "__init__", "core.config", "call"),
    ("repro.core.faces", "face_view", "core.faces", "call"),
    ("repro.core.faces:FaceView", "interior", "core.faces", "call"),
    ("repro.core.weights", "weight", "core.faces", "call"),
    ("repro.core.weights", "augmented_weight", "core.faces", "call"),
    ("repro.core.weights", "side_sets", "core.faces", "call"),
    ("repro.core.weights", "face_order", "core.faces", "call"),
    ("repro.core.separator", "cycle_separator", "core.separator", "call"),
    ("repro.core.dfs", "dfs_tree", "core.dfs", "call"),
    ("repro.core.verify", "check_separator", "core.oracles", "call"),
    ("repro.core.verify", "check_dfs_tree", "core.oracles", "call"),
    ("repro.core.certify", "certify_cycle", "core.oracles", "call"),
    ("repro.serve.jobs", "run_job", "serve.run_job", "call"),
    ("repro.dynamic.repair:DynamicPipeline", "apply", "dynamic.apply", "call"),
    ("repro.congest.algorithms", "bfs_run", "congest.bfs", "call"),
    ("repro.congest.algorithms", "broadcast_run", "congest.broadcast", "call"),
    ("repro.congest.algorithms", "convergecast_run", "congest.convergecast", "call"),
    ("repro.congest.awerbuch", "awerbuch_dfs_run", "congest.awerbuch", "call"),
)


class Tracer:
    """In-memory span store plus counters taken at the same boundaries."""

    def __init__(self):
        #: ``[layer, start, end, parent_index]``; parent -1 is a root span.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- summaries ----------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly here (single thread), so children never
        overlap one another.
        """
        child_time = [0.0] * len(self.spans)
        for layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"count": 0, "self_s": 0.0})
        for i, (layer, t0, t1, parent) in enumerate(self.spans):
            row = out[layer]
            row["count"] += 1
            row["self_s"] += (t1 - t0) - child_time[i]
        return dict(out)

    def self_time_under(self, root_layer: str, layers, among=None) -> tuple:
        """(self seconds of ``layers`` inside ``root_layer`` root spans,
        inclusive seconds of those root spans).  ``among``, if given,
        keeps only the root spans whose indices it holds."""
        root_of = [0] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        for i, (layer, t0, t1, parent) in enumerate(self.spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            if parent >= 0:
                child_time[parent] += t1 - t0
        inside = 0.0
        roots = 0.0
        for i, (layer, t0, t1, parent) in enumerate(self.spans):
            if self.spans[root_of[i]][0] != root_layer:
                continue
            if among is not None and root_of[i] not in among:
                continue
            if parent < 0:
                roots += t1 - t0
            if layer in layers:
                inside += (t1 - t0) - child_time[i]
        return inside, roots


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _after(tracer: Tracer, layer: str, result) -> None:
    """Counters read off a layer's return value at its boundary."""
    if layer == "core.dfs":
        tracer.counts["core.dfs_phases"] += result.phases
        tracer.counts["core.join_iterations"] += sum(result.join_iterations)


def _wrap(tracer: Tracer, fn, layer: str, kind: str):
    if kind == "gen":

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.counts[layer + ".gen_calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                span = tracer.open(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                tracer.counts[layer + ".yields"] += 1
                yield item

        return gen_wrapper

    calls = "calls." + fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[calls] += 1
        span = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if kind == "hit":
            tracer.counts[layer + ".hit_calls"] += 1
            if result is not None:
                tracer.counts[layer + ".hits"] += 1
        _after(tracer, layer, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Install wrappers for ``targets`` around the block; always restore."""
    patches = []
    try:
        for owner_name, attr, layer, kind in targets:
            owner = _resolve(owner_name)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrap(tracer, original, layer, kind))
                patches.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, original, layer, kind)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patches.append((module, key, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


#: The layers augmentation work lands in: its own functions plus the
#: rotation copies and re-validations it makes per candidate.
AUGMENT_LAYERS = frozenset({"core.augment", "planar.validate", "planar.rotation_copy"})


def augment_share(tracer: Tracer, among=None) -> float:
    """Augmentation self time as a share of ``dfs_tree`` time (optionally
    only over the root spans whose indices ``among`` holds)."""
    inside, total = tracer.self_time_under("core.dfs", AUGMENT_LAYERS,
                                           None if among is None else set(among))
    return inside / total if total else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """The core/planar/dynamic/congest per-layer metrics, per pass."""
    s = tracer.summary()
    c = tracer.counts
    k = float(max(1, passes))

    def self_s(layer: str) -> float:
        return s.get(layer, {}).get("self_s", 0.0) / k

    def count(layer: str) -> float:
        return s.get(layer, {}).get("count", 0) / k

    hit_calls = c["core.augment.hit_calls"]
    gen_calls = c["core.augment.gen_calls"]
    return {
        "planar.validate_calls": count("planar.validate"),
        "planar.validate_s": self_s("planar.validate"),
        "planar.rotation_copies": count("planar.rotation_copy"),
        "planar.rotation_copy_s": self_s("planar.rotation_copy"),
        "planar.embed_s": self_s("planar.embed"),
        "planar.check_s": self_s("planar.check"),
        "core.augment_s": self_s("core.augment"),
        "core.augment_share": augment_share(tracer),
        "core.balanced_calls": hit_calls / k,
        "core.balanced_hit_ratio": c["core.augment.hits"] / hit_calls if hit_calls else 0.0,
        "core.variants_per_call": c["core.augment.yields"] / gen_calls if gen_calls else 0.0,
        "core.config_builds": count("core.config"),
        "core.config_s": self_s("core.config"),
        "core.face_views": c["calls.face_view"] / k,
        "core.faces_s": self_s("core.faces"),
        "core.separator_self_s": self_s("core.separator"),
        "core.dfs_self_s": self_s("core.dfs"),
        "core.dfs_phases": c["core.dfs_phases"] / k,
        "core.join_iterations": c["core.join_iterations"] / k,
        "core.oracles_s": self_s("core.oracles"),
        "dynamic.apply_s": self_s("dynamic.apply"),
        "congest.bfs_s": self_s("congest.bfs"),
        "congest.broadcast_s": self_s("congest.broadcast"),
        "congest.convergecast_s": self_s("congest.convergecast"),
        "congest.awerbuch_s": self_s("congest.awerbuch"),
    }
