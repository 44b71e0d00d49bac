"""``static``: separator and DFS solves over two size ladders.

One *solve* is two operations on one instance: ``PlanarConfiguration.build``
+ ``cycle_separator`` (the separator operation) and ``dfs_tree`` (the DFS
operation).  The instances form two classes, reported apart: ``lattice``
(where augmentation carries the time) and ``irregular`` (its no-change
control).  A run repeats the whole ladder until its time is spent; each
instance's figure is the median of its repeats, each scaled to the
nominal host (``harness.HostClock``), so a run's totals always cover the
same instances whatever the time box cut.
"""

from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

import harness
import spans

#: instance class -> (family, size) ladder.  ``lattice``: 4-faces force
#: virtual-edge insertions, so augmentation carries most of the time.
#: ``irregular``: Delaunay triangulations need almost no insertions; face
#: sweeps and embedding/planarity checks dominate (the no-change control
#: for augmentation work).  Five seeded instances per size, counted by
#: their trimmed mean, keep the instance-to-instance spread of a run small.
#:
#: The ladders stop at n=400 and n=600: a pass must be short enough for
#: every instance to repeat a few times in a run.  ``tri-grid``
#: n=900 takes 6-8 s in ``dfs_tree`` and Delaunay n=2500 3-4 s (minutes
#: for some instances), which left one or two repeats and a run-to-run
#: spread beyond the regression bound.  Delaunay ``dfs_tree`` time also
#: spreads more across instances as n grows: over twenty instances it
#: took 0.6-1.1 s at n=800 and, over twelve, 0.67-1.25 s at n=1000 with
#: one at 4.7 s, against 0.46-0.64 s over sixteen at n=600.
#:
#: ``random-planar`` is left out of ``irregular``: its solve time is
#: heavy-tailed, so one instance can outlast a run.  From root 0: at the
#: service's density 0.5, n=1000 instance seeds 11 and 12 take ~13 s in
#: ``cycle_separator`` against ~0.2 s for seeds 13-15, and n=2500 seed 11
#: takes over 40 s; at density 0.85, n=2500 seed 1922529827 takes 94 s in
#: ``dfs_tree`` against 2.3-3.6 s for six other seeds.
LADDERS = {
    "lattice": [(f, side * side) for f in ("grid", "tri-grid") for side in (10, 15, 20)],
    "irregular": [("delaunay", n) for n in (150, 300, 600)] * 5,
}


#: An operation still running after this many nominal-host seconds (see
#: ``harness.HostClock``) is abandoned and counted as failed; later passes
#: skip it.  Scaling the deadline keeps a slow host from failing an
#: operation a fast one completes.  Typical operations take under a second,
#: but solve time is heavy-tailed across random instances, and the
#: deadline sits far from the slow cases known, so that they fail or pass
#: the same way on every run: ``cycle_separator`` takes about 4.6 nominal
#: seconds on the Delaunay n=300 instance seed 1971766097, 6-12 on the
#: n=600 instance seed 1180301728 (at a 10-second deadline it failed in one
#: run of ``static`` seed 2 and passed in the next), and 50 on the n=600
#: instance seed 1203904382; ``dfs_tree`` on the n=2500 instance seed
#: 1149539797 runs for minutes.
OP_DEADLINE_S = 25.0

#: After the first pass, an instance whose solve took more than this many
#: times the median of its (family, size) group is not repeated.  Such an
#: instance is the first one the group's trimmed mean drops, so repeats
#: would not move the figures, only take the passes other instances need: the
#: Delaunay n=300 instance seed 1971766097 takes 5.6 s against 0.25-0.34 s
#: for its siblings.  The detail line names these instances.
OUTLIER_FACTOR = 3.0


class OpDeadline(BaseException):
    """Raised into an operation that outlived :data:`OP_DEADLINE_S`.  A
    BaseException, so no ``except Exception`` inside the solver catches it."""


@contextmanager
def _deadline(seconds: float):
    def fire(signum, frame):
        raise OpDeadline(f"still running after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Instance:
    __slots__ = ("cls", "family", "n", "graph", "root", "seed")

    def __init__(self, cls: str, family: str, n: int, graph, root, seed: int):
        self.cls, self.family, self.n = cls, family, n
        self.graph, self.root, self.seed = graph, root, seed

    @property
    def label(self) -> str:
        return f"{self.family}-{self.n}-s{self.seed}"


def make_instances(seed: int) -> List[Instance]:
    """The run's instances.  ``grid``/``tri-grid`` are deterministic
    families; the random families draw their instance seeds from ``seed``.
    Every solve is rooted at node 0, the service's default root."""
    from repro.planar import generators as gen

    rng = random.Random(f"static:{seed}")
    out = []
    for cls, ladder in LADDERS.items():
        for family, n in ladder:
            side = round(n ** 0.5)
            if family == "grid":
                out.append(Instance(cls, family, n, gen.grid(side, side), 0, 0))
            elif family == "tri-grid":
                out.append(Instance(cls, family, n, gen.triangulated_grid(side, side), 0, 0))
            elif family == "delaunay":
                inst_seed = rng.randrange(2**31)
                graph = gen.delaunay(n, seed=inst_seed)
                out.append(Instance(cls, family, len(graph), graph, 0, inst_seed))
            else:
                raise ValueError(f"no generator for family {family!r}")
    return out


def solve_order(instances: List[Instance], seed: int, pass_no: int) -> List[Instance]:
    """Seeded per-pass order, so no instance always runs first (cold)."""
    order = list(instances)
    random.Random(f"order:{seed}:{pass_no}").shuffle(order)
    return order


class Solver:
    """Runs and times solves; verifies each instance's first outputs."""

    def __init__(self, outcome: harness.Outcome):
        import repro.core as core
        import repro.core.certify as certify

        self.core = core
        self.certify = certify
        self.outcome = outcome
        self.clock = harness.HostClock()
        #: label -> {"sep": [s...], "dfs": [s...]} successful timings scaled
        #: to the nominal host, and "raw_sep"/"raw_dfs" as measured
        self.times: Dict[str, Dict[str, List[float]]] = {}
        #: (instance label, operation) pairs that overran their deadline
        self.abandoned = set()
        self._first: Dict[str, Tuple] = {}

    def solve(self, inst: Instance, record: bool = True) -> float:
        """One solve; returns its wall seconds.  With ``record`` its
        operations are counted and timed and its outputs checked.  Typed
        algorithm errors and overruns are failed operations, not crashes."""
        core = self.core
        errors = []
        # Sampling the reference first collects the previous solve's
        # garbage, so it is charged to neither this solve's time nor the
        # peak RSS.
        ref = self.clock.sample()
        deadline = OP_DEADLINE_S * ref / harness.REF_NOMINAL_S
        t0 = time.perf_counter()
        sep = cfg = None
        if (inst.label, "separator") not in self.abandoned:
            try:
                with _deadline(deadline):
                    cfg = core.PlanarConfiguration.build(inst.graph, root=inst.root)
                    sep = core.cycle_separator(cfg)
            except core.SeparatorError as exc:
                errors.append(("separator", exc))
            except OpDeadline as exc:
                errors.append(("separator", exc))
                self.abandoned.add((inst.label, "separator"))
        t1 = time.perf_counter()
        dfs = None
        if (inst.label, "dfs_tree") not in self.abandoned:
            try:
                with _deadline(deadline):
                    dfs = core.dfs_tree(inst.graph, inst.root)
            except (core.SeparatorError, core.DFSError) as exc:
                errors.append(("dfs_tree", exc))
            except OpDeadline as exc:
                errors.append(("dfs_tree", exc))
                self.abandoned.add((inst.label, "dfs_tree"))
        t2 = time.perf_counter()
        if record:
            after = self.clock.sample()
            out = self.outcome
            for what, exc in errors:
                out.fail(f"{what} {inst.label}", exc)
            row = self.times.setdefault(inst.label, {
                "cls": inst.cls, "n": inst.n, "family": inst.family,
                "sep": [], "dfs": [], "raw_sep": [], "raw_dfs": [],
            })
            if sep is not None:
                out.ok()
                row["sep"].append(self.clock.scale(t1 - t0, ref, after))
                row["raw_sep"].append(t1 - t0)
            if dfs is not None:
                out.ok()
                row["dfs"].append(self.clock.scale(t2 - t1, ref, after))
                row["raw_dfs"].append(t2 - t1)
            self._check(inst, cfg, sep, dfs)
        return t2 - t0

    def _check(self, inst: Instance, cfg, sep, dfs) -> None:
        """Oracles on the first outputs of an instance; later repeats must
        reproduce them exactly (the algorithms are deterministic)."""
        core = self.core
        out = self.outcome
        key = (
            list(sep.path) if sep is not None else None,
            harness.canon_parent(dfs.parent) if dfs is not None else None,
        )
        first = self._first.get(inst.label)
        if first is not None:
            if first != key:
                out.wrong(f"{inst.label}: repeated solve gave different outputs")
            return
        self._first[inst.label] = key
        try:
            if sep is not None:
                core.check_separator(inst.graph, sep.path, cfg.tree)
            if dfs is not None:
                core.check_dfs_tree(inst.graph, dfs.parent, inst.root)
        except core.VerificationError as exc:
            out.wrong(f"{inst.label}: {exc}")
        certificate = self.certify.certify_cycle(cfg, sep.path) if sep is not None else None
        out.digest_add(inst.label, [key[0], certificate, key[1]])


def _setup(seed: int, clock: harness.HostClock) -> Tuple[List[Instance], float]:
    """Instance generation + a warm-up solve, repeated; median seconds.
    Each repeat is preceded by a reference sample on ``clock``."""
    import repro.core as core
    from repro.planar import generators as gen

    times = []
    instances: List[Instance] = []
    for _ in range(harness.SETUP_REPEATS):
        instances = []
        clock.sample()
        t0 = time.perf_counter()
        instances = make_instances(seed)
        warm = gen.grid(6, 6)
        core.dfs_tree(warm, 0)
        core.cycle_separator(core.PlanarConfiguration.build(warm, root=0))
        times.append(time.perf_counter() - t0)
    return instances, harness.median(times)


def _totals(solver: Solver, raw: bool = False) -> Dict[str, float]:
    """Per instance class, rates over its ladder; and the slowest solve.
    Scaled to the nominal host, or as measured with ``raw``.

    Each (family, size) counts once, with the trimmed mean over its
    instances of each instance's median repeat.  ``dfs_tree`` time is
    heavy-tailed across random instances (one Delaunay n=1000 instance in
    a dozen takes five times its siblings), so a sum over instances would
    follow the seed; the per-instance figures are on the detail line.  A
    solve is build + separator + DFS.
    """
    groups: Dict[Tuple[str, str, int], Dict[str, List[float]]] = {}
    for row in solver.times.values():
        group = groups.setdefault(
            (row["cls"], row["family"], row["n"]), {"sep": [], "dfs": [], "solve": []}
        )
        seps, dfss = (row["raw_sep"], row["raw_dfs"]) if raw else (row["sep"], row["dfs"])
        sep, dfs = harness.median(seps), harness.median(dfss)
        if seps:
            group["sep"].append(sep)
        if dfss:
            group["dfs"].append(dfs)
        if seps and dfss:
            group["solve"].append(sep + dfs)
    out = {}
    for cls in LADDERS:
        for name, key in (("separator_nps", "sep"), ("dfs_nps", "dfs"), ("solve_nps", "solve")):
            done = [(n, harness.trimmed_mean(g[key])) for (c, _, n), g in groups.items()
                    if c == cls and g[key]]
            seconds = sum(t for _, t in done)
            out[f"{cls}_{name}"] = sum(n for n, _ in done) / seconds if seconds else 0.0
    out["tail_s"] = max(
        (harness.trimmed_mean(g["solve"]) for g in groups.values() if g["solve"]), default=0.0
    )
    return out


def _outliers(instances: List[Instance], first: Dict[str, float]) -> List[str]:
    """Labels of the instances whose first solve took more than
    :data:`OUTLIER_FACTOR` times their group's median."""
    groups: Dict[Tuple[str, int], List[float]] = {}
    for inst in instances:
        groups.setdefault((inst.family, inst.n), []).append(first[inst.label])
    return sorted(
        inst.label for inst in instances
        if first[inst.label] > OUTLIER_FACTOR * harness.median(groups[(inst.family, inst.n)])
    )


def run(seed: int, seconds: float, trace: bool, import_s: float) -> harness.Outcome:
    outcome = harness.Outcome("static", seed)
    solver = Solver(outcome)
    instances, setup_s = _setup(seed, solver.clock)
    setup_ref = harness.median(solver.clock.samples)
    if trace:
        _traced(solver, instances, seed, seconds, outcome)
        return outcome
    last: Dict[str, float] = {}
    start = time.perf_counter()
    pass_no = 0
    outliers: List[str] = []
    while True:
        # A solve starts only if its previous duration still fits the time
        # box; the first pass always completes.
        for inst in solve_order(instances, seed, pass_no):
            elapsed = time.perf_counter() - start
            if pass_no and (inst.label in outliers
                            or elapsed + last.get(inst.label, 0.0) > seconds):
                continue
            last[inst.label] = solver.solve(inst)
        if not pass_no:
            outliers = _outliers(instances, last)
        pass_no += 1
        if time.perf_counter() - start + min(last.values()) > seconds:
            break
    totals = _totals(solver)
    raw = _totals(solver, raw=True)
    outcome.named.update(
        {k: v for k, v in raw.items() if k.endswith("_nps")},
        raw_tail_s=raw["tail_s"],
        raw_setup_s=import_s + setup_s,
        reference_s=harness.median(solver.clock.samples),
        error_ratio=outcome.failed / max(1, outcome.attempted),
        passes=pass_no,
        outliers=outliers,
        instances={  # raw median separator and DFS seconds, repeats
            label: [harness.median(row["raw_sep"]), harness.median(row["raw_dfs"]),
                    len(row["raw_dfs"])]
            for label, row in sorted(solver.times.items())
        },
    )

    def per_1000(nps: float) -> float:
        return 1000.0 / nps if nps else 0.0

    outcome.metrics.update(
        setup_s=solver.clock.scale(import_s + setup_s, setup_ref),
        peak_rss_mb=harness.peak_rss_mb(),
        ok_ratio=1.0 - outcome.failed / max(1, outcome.attempted),
        primary_s=per_1000(totals["lattice_solve_nps"]),
        secondary_s=per_1000(totals["irregular_solve_nps"]),
        tail_s=totals["tail_s"],
    )
    return outcome


def _traced(solver: Solver, instances, seed: int, seconds: float, outcome) -> None:
    """Per instance, one untraced and one traced solve, alternating which
    goes first; ladder passes repeat while time remains (at least one)."""
    tracer = spans.Tracer()
    #: instance class -> root-span index ranges of its traced solves
    ranges: Dict[str, List[range]] = {cls: [] for cls in LADDERS}
    plain = traced = 0.0
    start = time.perf_counter()
    passes = 0
    while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for i, inst in enumerate(solve_order(instances, seed, passes)):
            for traced_now in ((False, True) if (i + passes) % 2 == 0 else (True, False)):
                if traced_now:
                    first = len(tracer.spans)
                    with spans.installed(tracer):
                        traced += solver.solve(inst, record=False)
                    ranges[inst.cls].append(range(first, len(tracer.spans)))
                else:
                    plain += solver.solve(inst)
        passes += 1
    points: Dict[str, list] = {}
    for row in solver.times.values():
        if row["dfs"]:
            points.setdefault(row["family"], []).append((row["n"], harness.median(row["dfs"])))
    slopes = [harness.loglog_slope(p) for p in points.values()]
    m = outcome.metrics
    m.update(spans.layer_metrics(tracer, passes))
    m.update({name: 0.0 for name in harness.PER_LAYER if name.startswith(("serve.", "congest."))})
    m["dynamic.fallback_ratio"] = 0.0
    m["dynamic.full_recomputes"] = 0.0
    m["core.scale_exp"] = sum(slopes) / len(slopes) if slopes else 0.0
    m["trace.overhead_ratio"] = traced / plain
    outcome.named.update(
        passes=passes,
        scale_exp_by_family={f: harness.loglog_slope(p) for f, p in points.items()},
        augment_share_by_class={
            cls: spans.augment_share(tracer, [i for r in rs for i in r])
            for cls, rs in ranges.items()
        },
    )
