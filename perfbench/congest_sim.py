"""``congest-sim``: the message-level CONGEST simulator.

The other workloads never run the simulator (the charged layer accounts
rounds on a ledger), so this is where its engines are measured: BFS on a
200x200 grid under the ``active`` and the ``vectorized`` scheduler,
vectorized broadcast and convergecast over the BFS tree, Awerbuch's DFS
on a Delaunay triangulation of 10^4 points, and BFS through
``ReliableTransport`` on a 60x60 grid whose links drop messages.

A pass runs every program once; a run repeats passes until its time is
spent and reports each program's median over the passes, each scaled to
the nominal host (``harness.HostClock``).  The grids are sized so that a
pass takes about 3-5 s and a run holds six or more: with a 316x316 BFS
grid and a 100x100 lossy grid a pass took 6-9 s and a run held three.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Dict, List, Tuple

import harness
import spans

BIG_SIDE = 200
DELAUNAY_N = 10_000
LOSSY_SIDE = 60
DROP_RATE = 0.05


class Program:
    """One simulator run: what it is, how to run it, how to check it."""

    __slots__ = ("name", "scheduler", "call", "check")

    def __init__(self, name: str, scheduler: str, call: Callable, check: Callable):
        self.name, self.scheduler, self.call, self.check = name, scheduler, call, check


def make_instances(seed: int) -> Dict:
    """BFS runs from node 0 (a corner), as the service roots its jobs; the
    seed draws the Delaunay instance and the fault coins.  A seeded BFS root
    would move the round count (the eccentricity spans 200 to 398), and
    with it the per-round cost, more than a code change would."""
    import networkx as nx
    from repro.planar import generators as gen

    rng = random.Random(f"congest-sim:{seed}")
    big = gen.grid(BIG_SIDE, BIG_SIDE)
    tree = dict(nx.bfs_predecessors(big, 0))
    tree[0] = None
    return {
        "big": big,
        "big_root": 0,
        "big_tree": tree,
        "delaunay": gen.delaunay(DELAUNAY_N, seed=rng.randrange(2**31)),
        "lossy": gen.grid(LOSSY_SIDE, LOSSY_SIDE),
        "lossy_root": 0,
        "fault_seed": rng.randrange(2**31),
    }


def _bfs_check(graph, root, exact: bool = True):
    """On a clean network BFS must return networkx's distances and a parent
    one layer up.  Through a lossy network recovered by the transport,
    arrival order legitimately shifts parents and a parent may improve its
    own distance after a child adopted it; there every distance must be at
    least the true one and strictly above its parent's (so the parent links
    form a spanning tree), with nothing left unrecovered."""
    import networkx as nx

    truth = nx.single_source_shortest_path_length(graph, root)

    def check(result) -> str:
        if len(result.outputs) != len(truth):
            return "not every node answered"
        if result.transport is not None and result.transport.unrecovered:
            return "the transport left deliveries unrecovered"
        outputs = result.outputs
        for v, (dist, parent) in outputs.items():
            if v == root:
                if dist != 0:
                    return "root distance is not 0"
                continue
            if dist != truth[v] if exact else dist < truth[v]:
                return f"node {v}: distance {dist}, true distance {truth[v]}"
            up = outputs[parent][0] if parent in outputs else None
            if not graph.has_edge(v, parent) or up is None or (
                up != dist - 1 if exact else up >= dist
            ):
                return f"node {v}: parent {parent} is not a layer up"
        return ""

    return check


def programs(inst: Dict, congest) -> List[Program]:
    """The pass, in order.  Broadcast and convergecast run over a BFS tree
    of the big grid."""
    from repro.core import VerificationError, check_dfs_tree

    big, root, tree = inst["big"], inst["big_root"], inst["big_tree"]
    n_big = len(big)

    def awerbuch_check(result) -> str:
        parent = {v: out[0] for v, out in result.outputs.items()}
        try:
            check_dfs_tree(inst["delaunay"], parent, 0)
        except VerificationError as exc:
            return str(exc)
        return ""

    bfs_big = _bfs_check(big, root)
    plan = congest.FaultPlan(seed=inst["fault_seed"], drop_rate=DROP_RATE)
    return [
        Program("bfs", "active", lambda: congest.bfs_run(big, root, scheduler="active"), bfs_big),
        Program("bfs", "vectorized",
                lambda: congest.bfs_run(big, root, scheduler="vectorized"), bfs_big),
        Program("broadcast", "vectorized",
                lambda: congest.broadcast_run(big, root, 7, tree, scheduler="vectorized"),
                lambda r: "" if all(o == 7 for o in r.outputs.values())
                and len(r.outputs) == n_big else "broadcast missed a node"),
        Program("convergecast", "vectorized",
                lambda: congest.convergecast_run(big, root, {v: 1 for v in big}, tree,
                                                 scheduler="vectorized"),
                lambda r: "" if r.outputs[root] == n_big else "convergecast sum is wrong"),
        Program("awerbuch", "active",
                lambda: congest.awerbuch_dfs_run(inst["delaunay"], 0), awerbuch_check),
        Program("bfs-reliable", "active",
                lambda: congest.bfs_run(inst["lossy"], inst["lossy_root"], faults=plan,
                                        transport=congest.ReliableTransport()),
                _bfs_check(inst["lossy"], inst["lossy_root"], exact=False)),
    ]


def delivered(result) -> int:
    return result.messages_sent - result.dropped_messages - result.lost_messages


class Pass:
    """Timings and counts of one pass."""

    def __init__(self):
        #: seconds scaled to the nominal host, and as measured
        self.seconds: Dict[Tuple[str, str], float] = {}
        self.raw: Dict[Tuple[str, str], float] = {}
        self.results: Dict[Tuple[str, str], object] = {}


def run_pass(progs: List[Program], clock: harness.HostClock) -> Pass:
    out = Pass()
    for prog in progs:
        key = (prog.name, prog.scheduler)
        # The reference collects the previous run's garbage first, so it
        # stays out of this timing.
        before = clock.sample()
        t0 = time.perf_counter()
        result = prog.call()
        out.raw[key] = time.perf_counter() - t0
        out.seconds[key] = clock.scale(out.raw[key], before, clock.sample())
        out.results[key] = result
    return out


def _check_first(progs: List[Program], first: Pass, outcome: harness.Outcome) -> None:
    import repro.congest as congest

    fingerprints = {}
    for prog in progs:
        key = (prog.name, prog.scheduler)
        result = first.results[key]
        if result.stop_reason not in ("halted", "quiet"):
            outcome.fail(f"{prog.name}/{prog.scheduler}", RuntimeError(result.stop_reason))
            continue
        outcome.ok()
        problem = prog.check(result)
        if problem:
            outcome.wrong(f"{prog.name}/{prog.scheduler}: {problem}")
        transport = result.transport if prog.name == "bfs-reliable" else None
        fingerprints[key] = congest.run_fingerprint(result, transport=transport)
        outcome.digest_add(f"{prog.name}/{prog.scheduler}", [result.rounds, fingerprints[key]])
    if fingerprints.get(("bfs", "active")) != fingerprints.get(("bfs", "vectorized")):
        outcome.wrong("bfs: active and vectorized schedulers disagree")


def _same(progs: List[Program], first: Pass, later: Pass, outcome: harness.Outcome) -> None:
    """Repeated passes must deliver the same messages in the same rounds."""
    for prog in progs:
        key = (prog.name, prog.scheduler)
        a, b = first.results[key], later.results[key]
        if (a.rounds, a.messages_sent, a.outputs) != (b.rounds, b.messages_sent, b.outputs):
            outcome.wrong(f"{prog.name}/{prog.scheduler}: repeated run differs")
        elif b.stop_reason in ("halted", "quiet"):
            outcome.ok()
        else:
            outcome.fail(f"{prog.name}/{prog.scheduler}", RuntimeError(b.stop_reason))


def _setup(seed: int, clock: harness.HostClock):
    import repro.congest as congest
    from repro.planar import generators as gen

    times = []
    for _ in range(harness.SETUP_REPEATS):
        inst = None
        clock.sample()
        t0 = time.perf_counter()
        inst = make_instances(seed)
        warm = gen.grid(8, 8)
        congest.bfs_run(warm, 0, scheduler="vectorized")
        congest.bfs_run(warm, 0, scheduler="active")
        times.append(time.perf_counter() - t0)
    return inst, harness.median(times)


def _rates(passes: List[Pass], raw: bool = False) -> Dict[str, float]:
    """Messages delivered per second, per scheduler, from per-program
    medians over the passes; scaled to the nominal host, or as measured
    with ``raw``."""
    first = passes[0]
    out = {}
    slowest = 0.0
    for scheduler in ("active", "vectorized"):
        msgs = secs = 0.0
        for key, result in first.results.items():
            if key[1] != scheduler:
                continue
            med = harness.median([(p.raw if raw else p.seconds)[key] for p in passes])
            msgs += delivered(result)
            secs += med
            slowest = max(slowest, med)
        out[scheduler] = msgs / secs if secs else 0.0
    out["slowest_s"] = slowest
    return out


def run(seed: int, seconds: float, trace: bool, import_s: float) -> harness.Outcome:
    import repro.congest as congest

    outcome = harness.Outcome("congest-sim", seed)
    clock = harness.HostClock()
    inst, setup_s = _setup(seed, clock)
    setup_ref = harness.median(clock.samples)
    progs = programs(inst, congest)
    if trace:
        _traced(progs, seconds, outcome)
        return outcome
    start = time.perf_counter()
    passes = [run_pass(progs, clock)]
    _check_first(progs, passes[0], outcome)
    pass_s = time.perf_counter() - start
    while time.perf_counter() - start + pass_s <= seconds:
        passes.append(run_pass(progs, clock))
        _same(progs, passes[0], passes[-1], outcome)
        passes[-1].results.clear()  # so peak RSS does not grow with the pass count
    rates = _rates(passes)
    raw = _rates(passes, raw=True)
    outcome.named.update(
        sim_active_mps=raw["active"],
        sim_vector_mps=raw["vectorized"],
        raw_slowest_s=raw["slowest_s"],
        raw_setup_s=import_s + setup_s,
        reference_s=harness.median(clock.samples),
        error_ratio=outcome.failed / max(1, outcome.attempted),
        passes=len(passes),
    )
    outcome.metrics.update(
        setup_s=clock.scale(import_s + setup_s, setup_ref),
        peak_rss_mb=harness.peak_rss_mb(),
        ok_ratio=1.0 - outcome.failed / max(1, outcome.attempted),
        primary_s=1e6 / rates["active"],
        secondary_s=1e6 / rates["vectorized"],
        tail_s=rates["slowest_s"],
    )
    return outcome


def _traced(progs: List[Program], seconds: float, outcome: harness.Outcome) -> None:
    """Per program, one untraced and one traced run, alternating which goes
    first; passes repeat while time remains (at least one)."""
    tracer = spans.Tracer()
    plain = traced = 0.0
    first = Pass()
    start = time.perf_counter()
    passes = 0
    while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for i, prog in enumerate(progs):
            for traced_now in ((False, True) if (i + passes) % 2 == 0 else (True, False)):
                gc.collect()
                t0 = time.perf_counter()
                if traced_now:
                    with spans.installed(tracer):
                        prog.call()
                    traced += time.perf_counter() - t0
                else:
                    result = prog.call()
                    plain += time.perf_counter() - t0
                    first.results.setdefault((prog.name, prog.scheduler), result)
        passes += 1
    _check_first(progs, first, outcome)
    results = list(first.results.values())
    requested = [r for k, r in first.results.items() if k[1] == "vectorized"]
    m = outcome.metrics
    m.update(spans.layer_metrics(tracer, passes))
    m.update({name: 0.0 for name in harness.PER_LAYER if name.startswith(("serve.", "dynamic."))})
    m["core.scale_exp"] = 0.0
    m.update({
        "congest.rounds": float(sum(r.rounds for r in results)),
        "congest.messages": float(sum(r.messages_sent for r in results)),
        "congest.retransmits": float(sum(r.transport.retransmits for r in results
                                         if r.transport is not None)),
        "congest.fast_path_ratio": sum(1 for r in requested if r.fast_path) / len(requested),
        "trace.overhead_ratio": traced / plain,
    })
    outcome.named["passes"] = passes
