"""``serve-rw``: open-loop read/write traffic into an in-process ServeEngine.

One pool worker serves everything (the load generator has the other core).
Requests fall due at :data:`RATE` per second; each is a read (a static job
drawn from a zipf catalog, so popular jobs hit the result cache and a real
share stays cold) or, for :data:`WRITE_SHARE` of them, a write (an
update-mode job carrying a ``flap_updates`` prefix).  Writes run mutation
and repair on the same worker as cold reads, so a change that trades one
for the other shows in both latencies.

Every latency is measured from the request's *due* time, so a stalled
generator or a queue in front of the worker is charged to the requests
that waited; the generator's own lateness is reported separately.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

import harness
import spans

#: Open-loop arrival rate (requests/s).  The traced run reports how busy
#: the worker was (``worker_busy_ratio`` on the detail line).
RATE = 8.0
WRITE_SHARE = 0.15
#: Latency limit for ``ok_ratio``: a request counts only if answered 200
#: within this many seconds of its due time.
SLO_S = 2.0
READ_FAMILIES = ("grid", "tri-grid", "delaunay", "random-planar")
READ_SIZES = (25, 36, 49, 64)
CATALOG_SIZE = 192
ZIPF_S = 1.4
WRITE_FAMILIES = ("grid", "tri-grid")
WRITE_SIZES = (81,)
WRITE_PREFIXES = (1, 8, 32)
#: In-window reference samples (see :func:`_drive`): the idle gap one
#: needs before the next request is due, and the least time between two.
#: A sample (garbage collection + reference, once on each CPU) takes
#: 50-120 ms.
REF_GAP_S = 0.15
REF_EVERY_S = 1.0
#: Warm-up jobs: outside the catalog, so the timed window starts cold.
WARMUP = (
    {"family": "grid", "n": 16, "seed": 0, "root": 0},
    {"family": "delaunay", "n": 20, "seed": 0, "root": 0},
)


class Request:
    __slots__ = ("at", "kind", "payload")

    def __init__(self, at: float, kind: str, payload: Dict):
        self.at, self.kind, self.payload = at, kind, payload


def read_catalog(seed: int) -> List[Dict]:
    """Read jobs by zipf rank (rank 0 is the most popular).  Family and
    size cycle with rank, so every run's popular set has the same mix;
    the seed picks the instances."""
    rng = random.Random(f"serve-rw:catalog:{seed}")
    return [
        {
            "family": READ_FAMILIES[rank % len(READ_FAMILIES)],
            "n": READ_SIZES[(rank // len(READ_FAMILIES)) % len(READ_SIZES)],
            "seed": rng.randrange(10**6),
            "root": 0,
        }
        for rank in range(CATALOG_SIZE)
    ]


def zipf_counts(total: int) -> List[int]:
    """``total`` reads spread over the catalog ranks in zipf proportion,
    rounded by largest remainder (so every run has the same hot/cold mix)."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(CATALOG_SIZE)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(CATALOG_SIZE), key=lambda r: counts[r] - exact[r])
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


def write_job(rng: random.Random, family: str, n: int, k: int) -> Dict:
    """An update-mode job: a seeded flap_updates prefix of ``k`` updates."""
    from repro.dynamic import flap_updates
    from repro.planar import generators as gen

    side = max(2, round(n ** 0.5))  # the service's own lattice sizing
    graph = (gen.grid if family == "grid" else gen.triangulated_grid)(side, side)
    batches = flap_updates(graph, seed=rng.randrange(10**6), rate=0.05, rounds=12)
    updates = [list(u) for batch in batches for u in batch][:k]
    return {"family": family, "n": n, "seed": 0, "root": 0, "updates": updates}


def make_schedule(seed: int, seconds: float) -> List[Request]:
    """Arrival times and payloads for one run (a pure function of seed).

    Requests are due every ``1/RATE`` seconds with jitter.  One write falls
    in each block of ``1/WRITE_SHARE`` requests, and the writes cycle
    through every (family, size, prefix length).  The reads follow the zipf
    frequencies.  This shape -- times, order, which slot is a write and
    which catalog rank a read asks for -- is the same on every seed: with
    ~300 requests a run, a seeded shape moves the queueing (which cold read
    lands behind a long write) far more than any code change would.  The
    writes, too, are the same on every seed: a write's cost varies about
    twofold with which edges its updates flap, and a run holds only ~45.
    The seed picks the instances behind the catalog ranks.
    """
    shape = random.Random("serve-rw:shape")
    total = max(1, round(RATE * seconds))
    block = round(1 / WRITE_SHARE)
    write_slots = {b + shape.randrange(min(block, total - b)) for b in range(0, total, block)}
    kinds: List[Tuple[str, int, int]] = []
    while len(kinds) < len(write_slots):
        cycle = [(f, n, k) for f in WRITE_FAMILIES for n in WRITE_SIZES for k in WRITE_PREFIXES]
        shape.shuffle(cycle)
        kinds.extend(cycle)
    catalog = read_catalog(seed)
    reads = [rank for rank, c in enumerate(zipf_counts(total - len(write_slots)))
             for _ in range(c)]
    shape.shuffle(reads)
    out = []
    writes = 0
    for slot in range(total):
        at = (slot + shape.uniform(0.0, 0.8)) / RATE
        if slot in write_slots:
            family, n, k = kinds[writes]
            writes += 1
            out.append(Request(at, "write", write_job(shape, family, n, k)))
        else:
            out.append(Request(at, "read", dict(catalog[reads.pop()])))
    return out


class Record:
    __slots__ = ("req", "lag", "latency", "status", "body")

    def __init__(self, req, lag, latency, status, body):
        self.req, self.lag, self.latency, self.status, self.body = req, lag, latency, status, body


def _engine(cache_dir: str):
    from repro.serve import ServeConfig, ServeEngine

    return ServeEngine(ServeConfig(
        workers=1, max_inflight=64, deadline_s=60.0, cache_dir=cache_dir,
    ))


async def _warm(engine) -> None:
    for payload in WARMUP:
        await engine.submit(dict(payload))


async def _drive(engine, schedule: List[Request], clock=None) -> List[Record]:
    """Send ``schedule`` open-loop.  With a ``clock``, sample the host-speed
    reference inside the window, but only while no request is in flight
    and the next is due at least :data:`REF_GAP_S` later, so that no
    request waits for it; at most once per :data:`REF_EVERY_S`."""
    records: List[Record] = []
    loop = asyncio.get_running_loop()
    t0 = loop.time() + 0.05
    inflight = 0

    async def one(req: Request, lag: float) -> None:
        nonlocal inflight
        due = t0 + req.at
        try:
            resp = await engine.submit(req.payload)
            status, body = resp.status, resp.body
        except Exception as exc:  # noqa: BLE001 - any escape from submit is a failed request
            status, body = "exception", {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            inflight -= 1
        records.append(Record(req, lag, loop.time() - due, status, body))

    tasks = []
    last_ref = float("-inf")
    for req in schedule:
        due = t0 + req.at
        if clock is not None and loop.time() - last_ref >= REF_EVERY_S:
            # Wait until REF_GAP_S before the request is due, then sample
            # if nothing is in flight.
            early = due - REF_GAP_S - loop.time()
            if early > 0:
                await asyncio.sleep(early)
                if not inflight:
                    clock.sample_each_cpu()
                    last_ref = loop.time()
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        inflight += 1
        tasks.append(asyncio.create_task(one(req, max(0.0, loop.time() - due))))
    await asyncio.gather(*tasks)
    return records


async def _session(seed: int, seconds: float, tmp_root: str, clock: harness.HostClock):
    """Set up (repeated; median timed), drive the window, shut down.  The
    reference is sampled before each set-up, in the window's idle gaps
    and, with the worker idle, after the window; each time on every CPU,
    since the worker may run on either.  Also returns the median
    reference during set-up."""
    setup_times = []
    engine = None
    cache_dir = None
    try:
        for _ in range(harness.SETUP_REPEATS):
            if engine is not None:
                engine.close()
                shutil.rmtree(cache_dir, ignore_errors=True)
            clock.sample_each_cpu()
            t0 = time.perf_counter()
            schedule = make_schedule(seed, seconds)
            cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=tmp_root)
            engine = _engine(cache_dir)
            await _warm(engine)
            setup_times.append(time.perf_counter() - t0)
        setup_samples = list(clock.samples)
        records = await _drive(engine, schedule, clock)
        stats = engine.stats()
        for _ in range(harness.SETUP_REPEATS):
            clock.sample_each_cpu()
    finally:
        if engine is not None:
            await engine.drain(timeout_s=60.0)
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return records, stats, harness.median(setup_times), harness.median(setup_samples)


def _check(records: List[Record], outcome: harness.Outcome) -> None:
    """Re-check every 200 with verify_result (each distinct job once) and
    fold the answers into the digest."""
    from repro.core import VerificationError
    from repro.serve import verify_result

    seen: Dict[str, Tuple] = {}
    for rec in records:
        if rec.status != "ok":
            continue
        body = rec.body
        answer = (body["separator"]["path"], body["dfs"]["parent"])
        key = body["key"]
        if key in seen:
            if seen[key] != answer:
                outcome.wrong(f"job {key}: two different answers")
            continue
        seen[key] = answer
        try:
            verify_result(body)
        except VerificationError as exc:
            outcome.wrong(f"job {key}: {exc}")
    for key in sorted(seen):
        outcome.digest_add(key, seen[key])


def run(seed: int, seconds: float, trace: bool, import_s: float, root: str) -> harness.Outcome:
    outcome = harness.Outcome("serve-rw", seed)
    tmp_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    clock = harness.HostClock()
    records, stats, setup_s, setup_ref = asyncio.run(_session(seed, seconds, tmp_root, clock))
    run_ref = harness.median(clock.samples)
    _check(records, outcome)
    for rec in records:
        if rec.status == "ok":
            outcome.ok()
        else:
            outcome.fail(f"{rec.req.kind} {rec.status}", RuntimeError(rec.body.get("error", "")))
    reads = [r for r in records if r.req.kind == "read"]
    writes = [r for r in records if r.req.kind == "write"]
    read_ok = [r.latency for r in reads if r.status == "ok"]
    write_ok = [r.latency for r in writes if r.status == "ok"]
    slo_ok = sum(1 for r in records if r.status == "ok" and r.latency <= SLO_S)
    outcome.named.update(
        read_p50_s=harness.percentile(read_ok, 50),
        read_p90_s=harness.percentile(read_ok, 90),
        read_p95_s=harness.percentile(read_ok, 95),
        write_p50_s=harness.percentile(write_ok, 50),
        write_mean_s=harness.mean(write_ok),
        request_p90_s=harness.percentile(read_ok + write_ok, 90),
        slo_ok_ratio=slo_ok / max(1, len(records)),
        error_ratio=outcome.failed / max(1, outcome.attempted),
        requests=len(records),
        reads=len(reads),
        writes=len(writes),
        cache_hits=stats["cache_hits"],
        slo_s=SLO_S,
        rate=RATE,
        raw_setup_s=import_s + setup_s,
        reference_s=run_ref,
        reference_samples=len(clock.samples),
    )
    if trace:
        _traced(records, stats, seconds, outcome)
        return outcome
    # Latencies are scaled by the median reference of the run (the SLO
    # share stays on real latencies).
    outcome.metrics.update(
        setup_s=clock.scale(import_s + setup_s, setup_ref),
        peak_rss_mb=harness.peak_rss_mb(),
        ok_ratio=slo_ok / max(1, len(records)),
        # A run holds ~45 writes whose costs form three modes (prefix 1, 8,
        # 32): their median jumps between modes from run to run, their mean
        # over the fixed mix does not.  The tail is the p90 over all ~300
        # requests (thirty beyond it).  A read-only p90 sits where cold
        # reads start to queue behind writes and swings with host speed.
        primary_s=clock.scale(outcome.named["read_p50_s"], run_ref),
        secondary_s=clock.scale(outcome.named["write_mean_s"], run_ref),
        tail_s=clock.scale(outcome.named["request_p90_s"], run_ref),
    )
    return outcome


def _replay(jobs: List[Dict], tracer: "spans.Tracer") -> Tuple[Dict[str, float], float, float]:
    """Run each distinct job in-process once untraced and once traced,
    alternating which goes first.  Returns (job key -> untraced service
    seconds, untraced total, traced total)."""
    from repro.core import SeparatorError
    from repro.serve import jobs as serve_jobs

    service: Dict[str, float] = {}
    plain = traced = 0.0
    for i, canonical in enumerate(jobs):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            try:
                if traced_now:
                    with spans.installed(tracer):
                        serve_jobs.run_job(canonical)
                else:
                    serve_jobs.run_job(canonical)
            except SeparatorError:
                break  # the same failure the window already counted
            elapsed = time.perf_counter() - t0
            if traced_now:
                traced += elapsed
            else:
                plain += elapsed
                service[serve_jobs.parse_job(canonical).key()] = elapsed
    return service, plain, traced


def _traced(records: List[Record], stats: Dict, seconds: float, outcome: harness.Outcome) -> None:
    """Serve-layer figures from the window; worker-side layers from an
    in-process replay of every distinct job (see :func:`_replay`)."""
    from repro.serve import parse_job

    distinct: Dict[str, Tuple[str, Dict]] = {}
    for rec in records:
        spec = parse_job(rec.req.payload)
        distinct.setdefault(spec.key(), (rec.req.kind, spec.canonical()))
    tracer = spans.Tracer()
    plain, plain_s, traced_s = _replay([c for _, c in distinct.values()], tracer)

    reads = [r for r in records if r.req.kind == "read"]
    hits = [r.latency for r in reads if r.status == "ok" and r.body.get("cached")]
    waits = [
        rec.latency - plain[rec.body["key"]]
        for rec in records
        if rec.status == "ok" and not rec.body.get("cached") and rec.body["key"] in plain
    ]
    service: Dict[str, List[float]] = {"read": [], "write": []}
    for key, (kind, _) in distinct.items():
        if key in plain:
            service[kind].append(plain[key])
    outcome.named["worker_busy_ratio"] = sum(
        plain[r.body["key"]] for r in records
        if r.status == "ok" and not r.body.get("cached") and r.body["key"] in plain
    ) / seconds
    dyn = [r.body["dynamic"] for r in records if r.status == "ok" and "dynamic" in r.body]
    repairs = sum(d["region_repairs"] + d["fallbacks"] for d in dyn)
    writes = max(1, len(service["write"]))

    m = outcome.metrics
    m.update(spans.layer_metrics(tracer, 1))
    m.update({name: 0.0 for name in harness.PER_LAYER if name.startswith("congest.")})
    m["core.scale_exp"] = 0.0
    m["dynamic.apply_s"] = m["dynamic.apply_s"] / writes
    m.update({
        "serve.cache_hit_ratio": stats["cache_hits"] / max(1, len(reads)),
        "serve.hit_latency_s": harness.median(hits),
        "serve.shed": float(stats["shed"]),
        "serve.retries": float(stats["retries"]),
        "serve.lag_s": harness.percentile([r.lag for r in records], 95),
        "serve.service_s.read": harness.median(service["read"]),
        "serve.service_s.write": harness.median(service["write"]),
        "serve.wait_s": harness.median(waits),
        "dynamic.fallback_ratio": sum(d["fallbacks"] for d in dyn) / repairs if repairs else 0.0,
        "dynamic.full_recomputes": float(sum(d["full_recomputes"] for d in dyn)),
        "trace.overhead_ratio": traced_s / plain_s if plain_s else 0.0,
    })
