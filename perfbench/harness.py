"""Shared plumbing for the benchmark workloads.

Every workload returns a :class:`Outcome`; :func:`emit` turns it into the
result line.  The metric tables below are the benchmark's contract with
``BENCHMARK.json`` (``tests/test_perfbench.py`` holds them equal).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, Iterable, List, Sequence

#: End-to-end metrics (untraced run): name -> unit.  Every workload
#: reports every one of them; README.md gives each workload's meaning.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "primary_s": "s",
    "secondary_s": "s",
    "tail_s": "s",
}

#: Per-layer metrics (traced run): name -> unit.  A layer a workload does
#: not reach reports 0.
PER_LAYER = {
    "planar.validate_calls": "count",
    "planar.validate_s": "s",
    "planar.rotation_copies": "count",
    "planar.rotation_copy_s": "s",
    "planar.embed_s": "s",
    "planar.check_s": "s",
    "core.augment_s": "s",
    "core.augment_share": "ratio",
    "core.balanced_calls": "count",
    "core.balanced_hit_ratio": "ratio",
    "core.variants_per_call": "ratio",
    "core.config_builds": "count",
    "core.config_s": "s",
    "core.face_views": "count",
    "core.faces_s": "s",
    "core.separator_self_s": "s",
    "core.dfs_self_s": "s",
    "core.dfs_phases": "count",
    "core.join_iterations": "count",
    "core.scale_exp": "slope",
    "core.oracles_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "serve.hit_latency_s": "s",
    "serve.shed": "count",
    "serve.retries": "count",
    "serve.lag_s": "s",
    "serve.service_s.read": "s",
    "serve.service_s.write": "s",
    "serve.wait_s": "s",
    "dynamic.apply_s": "s",
    "dynamic.fallback_ratio": "ratio",
    "dynamic.full_recomputes": "count",
    "congest.rounds": "count",
    "congest.messages": "count",
    "congest.retransmits": "count",
    "congest.fast_path_ratio": "ratio",
    "congest.bfs_s": "s",
    "congest.broadcast_s": "s",
    "congest.convergecast_s": "s",
    "congest.awerbuch_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: What the host-speed reference takes on a host the timings are scaled
#: to (see :class:`HostClock`).
REF_NOMINAL_S = 0.02


class HostClock:
    """Times a fixed reference computation to scale timings by host speed.

    The reference is networkx code only (a planarity test, a BFS and a DFS
    over a fixed triangular lattice of 336 nodes), so no change to this
    repository can speed it up or slow it down; it exercises the same kind
    of dict-of-sets graph code as the program.  A timing is scaled by
    ``REF_NOMINAL_S / reference``, with the reference timed just before
    and just after it (the mean of the two).  That removes most of a
    shared host's speed swings: over ten ten-second windows of alternating
    reference and ``dfs_tree`` calls on a 20x20 grid, the per-window
    median of the scaled time spread (IQR / median) by 0.07 while the
    fastest raw call per window spread by 0.27.  Raw times stay on the
    detail line.
    """

    def __init__(self):
        import networkx as nx

        self._nx = nx
        self._graph = nx.convert_node_labels_to_integers(nx.triangular_lattice_graph(20, 30))
        self.samples: List[float] = []
        self.sample()  # warm-up, not kept
        self.samples.clear()

    def sample(self) -> float:
        """Time the reference once; returns (and keeps) its seconds.  The
        garbage left by what ran before is collected first, outside the
        timing: collecting it inside would charge the reference for it."""
        nx, graph = self._nx, self._graph
        gc.collect()
        t0 = time.perf_counter()
        nx.check_planarity(graph)
        nx.single_source_shortest_path_length(graph, 0)
        for _ in nx.dfs_edges(graph, 0):
            pass
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def sample_each_cpu(self) -> None:
        """Time the reference once on each CPU this process may use (for
        work that runs in other processes, on any of them)."""
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                self.sample()
        finally:
            os.sched_setaffinity(0, cpus)

    @staticmethod
    def scale(seconds: float, *references: float) -> float:
        """``seconds`` on the nominal host, given the reference's times
        around it."""
        return seconds * REF_NOMINAL_S * len(references) / sum(references)


class Outcome:
    """What one workload run attempted, found and measured."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        #: Workload-specific figures under their own names (dfs_nps,
        #: read_p95_s, ...); printed on the detail line.
        self.named: Dict[str, float] = {}
        self._outputs: Dict[str, str] = {}

    # -- operations ---------------------------------------------------
    def ok(self) -> None:
        """Count one operation that succeeded."""
        self.attempted += 1

    def fail(self, what: str, exc: BaseException) -> None:
        """Count one failed operation and keep its first few messages."""
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def wrong(self, what: str) -> None:
        """Record an output that failed its oracle (the run is incorrect)."""
        if len(self.problems) < 8:
            self.problems.append(what)
        else:
            self.problems[-1] = f"... and more ({what})"

    @property
    def correct(self) -> bool:
        return not self.problems

    # -- output digest ------------------------------------------------
    def digest_add(self, label: str, value) -> None:
        """Record one output (canonical JSON) under a label unique in the run."""
        self._outputs[label] = json.dumps(value, sort_keys=True, default=repr)

    @property
    def digest(self) -> str:
        """Hash of every recorded output, independent of the order solved."""
        h = hashlib.sha256()
        for label in sorted(self._outputs):
            h.update(f"{label}\0{self._outputs[label]}\0".encode())
        return h.hexdigest()[:16]


def canon_parent(parent: Dict) -> List:
    """A parent map as a sorted list of pairs (stable across dict order)."""
    return sorted(([v, p] for v, p in parent.items()), key=repr)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean without the highest and the lowest value (of three or more):
    robust to one outlier on each side, and less swayed by the draw than
    a median of a few."""
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return mean(ordered)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (``q`` in [0, 100]); 0 for none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1] if 1 <= q <= 99 else (min(values) if q < 1 else max(values))


def loglog_slope(points: Iterable[tuple]) -> float:
    """Least-squares slope of log(t) against log(n) over ``(n, t)`` pairs."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _git_sha(root: str) -> str:
    """HEAD's commit id read from ``.git`` without running git; a source
    checkout without ``.git`` reports ``"none"``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(src: str) -> str:
    """Digest of every ``.py`` file under ``src/repro`` (identifies the code
    measured when the checkout carries no git metadata)."""
    h = hashlib.sha256()
    base = os.path.join(src, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: str) -> Dict[str, object]:
    """The fingerprint results are compared within."""
    import networkx
    import numpy

    return {
        "git_sha": _git_sha(root),
        "source": source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def emit(outcome: Outcome, trace: bool, root: str, stream=None) -> Dict:
    """Print the detail line and then the result line (the last line)."""
    stream = stream or sys.stdout
    table = PER_LAYER if trace else END_TO_END
    missing = sorted(set(table) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload {outcome.workload} did not measure {missing}")
    detail = {
        "workload": outcome.workload,
        "seed": outcome.seed,
        "trace": int(trace),
        "digest": outcome.digest,
        "named": outcome.named,
        "errors": outcome.errors,
        "problems": outcome.problems,
        "env": environment(root),
    }
    result = {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in table.items()
        },
    }
    print(json.dumps(detail, sort_keys=True), file=stream)
    print(json.dumps(result), file=stream, flush=True)
    return result
