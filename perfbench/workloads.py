"""The benchmark's three workloads and their outside-in layer ledger.

Each workload builds its data from the seed, builds the serving stack
(timed as ``setup_s``), runs a timed phase through the program's public
API, and checks every answer off the clock.  With ``trace=True`` the
timed phase is followed by a replay that calls each layer's public
function in pipeline order with a timer around each call, and reads the
layers' public ``stats()`` counters; nothing inside the program is
instrumented.  See ``perfbench/README.md`` for why each workload exists
and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

import checks
from repro.core.bounds import bennett_permutations
from repro.core.kernels import RankPlan, get_kernel, truncation_rank
from repro.core.mcserve import mc_values_from_distances
from repro.engine import (
    MutationRequest,
    ShardRouter,
    ValuationEngine,
    ValuationRequest,
    ValuationService,
)
from repro.knn.distance import get_metric
from repro.knn.search import stable_argsort_rows

now = time.perf_counter

#: wall-time cap of a closed loop still short of ``MIN_REQUESTS``
MAX_LOOP_S = 120.0
#: threads for the off-the-clock checks (never more than the CPUs the
#: process may run on)
CHECK_THREADS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
)

#: end-to-end metrics (untraced runs) and their units
E2E_UNITS = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "write_p50_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs) and their units
LAYER_UNITS = {
    "distance.p50_s": "s",
    "distance.over_ref_gemm": "ratio",
    "rank.p50_s": "s",
    "rank.over_ref_sort": "ratio",
    "plan.p50_s": "s",
    "kernel.p50_s": "s",
    "reduce.p50_s": "s",
    "engine.unattributed_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.invalidations": "count",
    "merge.seconds_per_request": "s",
    "retrieve.p50_s": "s",
    "retrieve_topk.p50_s": "s",
    "router.retries": "count",
    "router.hedges": "count",
    "router.shard_errors": "count",
    "queue.wait_p50_s": "s",
    "queue.wait_p90_s": "s",
    "service.compute_p50_s": "s",
    "gen.lag_p90_s": "s",
    "gen.backlog_growing": "flag",
    "write.compute_p50_s": "s",
    "bounds.solve_s": "s",
    "mc.permutations": "count",
    "mckernel.p50_s": "s",
    "ref.sort_s": "s",
    "ref.gemm_s": "s",
    "trace.untraced_p50_s": "s",
    "trace.traced_p50_s": "s",
    "trace.overhead_s": "s",
    "samples.exact": "count",
    "samples.truncated": "count",
    "samples.mc": "count",
    "samples.writes": "count",
    "env.nproc": "count",
}


#: the data: class means on a sphere of this radius, unit noise
N_CLASSES = 10
K = 5
SEPARATION = 2.0
NOISE = 1.0
#: exact_cold: points per request (two chunks at the default chunk size),
#: run on one worker: with two, any other load on a 2-vCPU machine
#: stalls one chunk thread and the p90 swings between runs
COLD_BATCH = 40
#: sharded_churn: points per read or write, and the open loop's mix
CHURN_BATCH = 4
CHURN_WRITE_FRAC = 0.1
CHURN_EXACT_FRAC = 0.2
CHURN_REPEAT_FRAC = 0.3
CHURN_HISTORY = 8
#: add/remove pairs timed on the router after the open loop: the loop's
#: own ~12 writes alone leave write_p50_s swinging by 40%
CHURN_WRITE_PAIRS = 20
DUPLICATE_FRAC = 0.01
TRUNCATED_EPSILON = 0.1
#: mc_rung: points per request and the ladder's MC rung target
MC_BATCH = 4
MC_EPSILON = 0.5
MC_DELTA = 0.05
#: untraced runs value at least this many requests (p90 needs 10
#: samples beyond it)
MIN_REQUESTS = 100
#: engine workloads: one add/remove pair after every this many requests
WRITE_EVERY = 8


@dataclass(frozen=True)
class Config:
    """The sizes a smoke run shrinks; the defaults are the committed benchmark."""

    n_train: int = 100_000
    n_features: int = 64
    setup_repeats: int = 9
    ref_repeats: int = 7
    #: sharded_churn: operations per second
    churn_rate: float = 2.5


@dataclass
class Outcome:
    """What one workload run measured."""

    e2e: dict
    layers: dict
    samples: dict
    context: dict
    attempted: int
    passed: int
    valid: bool = True
    note: str = ""


# ----------------------------------------------------------------------
# data, set-up and shared measurements
def make_blobs(cfg: Config, rng: np.random.Generator):
    """Class-conditional Gaussian training set: means on a sphere plus noise."""
    means = rng.standard_normal((N_CLASSES, cfg.n_features))
    means *= SEPARATION / np.linalg.norm(means, axis=1, keepdims=True)
    x, y = draw_points(rng, means, cfg.n_train)
    return x, y, means


def draw_points(rng: np.random.Generator, means: np.ndarray, n: int):
    """``n`` fresh points from the same class mixture as the training set."""
    y = rng.integers(0, means.shape[0], size=n)
    x = means[y] + NOISE * rng.standard_normal((n, means.shape[1]))
    return x, y


def streams(seed: int, n: int) -> list[np.random.Generator]:
    """Independent generators derived from the workload seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def timed_setup(build, teardown, repeats: int):
    """Build the stack ``repeats`` times; keep the last, return the median time."""
    times = []
    stack = None
    for _ in range(repeats):
        if stack is not None:
            teardown(stack)
            stack = None
        t0 = now()
        stack = build()
        times.append(now() - t0)
    return stack, float(np.median(times))


def reference_costs(rng: np.random.Generator, q: int, n: int, d: int, repeats: int):
    """Same-process reference ops at one layer call's shape: (sort, gemm) p50."""
    a = rng.standard_normal((q, d))
    b = rng.standard_normal((n, d))
    m = rng.random((q, n))
    sort_t, gemm_t = [], []
    for _ in range(repeats):
        t0 = now()
        np.argsort(m, axis=1)
        sort_t.append(now() - t0)
        t0 = now()
        a @ b.T
        gemm_t.append(now() - t0)
    return float(np.median(sort_t)), float(np.median(gemm_t))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50(values) -> float:
    """Median, or 0.0 for a layer the workload does not run."""
    return float(np.median(values)) if len(values) else 0.0


def p90_or_none(values):
    """90th percentile when at least ten samples lie beyond it."""
    if len(values) * 0.1 < 10:
        return None
    return float(np.percentile(values, 90))


def write_p50(adds, removes) -> float:
    """Mean of the add p50 and the remove p50.

    Adds and removes cost different amounts, so a plain median of an
    even mix sits on the boundary between the two modes.
    """
    return 0.5 * (p50(adds) + p50(removes))


class WriteProbe:
    """Writes on an engine workload: add a fresh 4-point batch, remove it.

    The closed loops run one pair after every ``WRITE_EVERY``-th request,
    off the request clock, so the samples spread over the whole run and
    every request sees the original training set.  The add must return
    the next indices and both mutations the expected training-set size.
    """

    def __init__(self, target, rng, means) -> None:
        self.target = target
        self.rng = rng
        self.means = means
        self.adds: list = []
        self.removes: list = []
        self.passed = 0

    @property
    def attempted(self) -> int:
        return len(self.adds) + len(self.removes)

    def after_request(self, n_done: int) -> None:
        if (n_done - 1) % WRITE_EVERY == 0:
            self.pair()

    def pair(self) -> None:
        x4, y4 = draw_points(self.rng, self.means, CHURN_BATCH)
        n0 = self.target.n_train
        t0 = now()
        idx = self.target.add_points(x4, y4)
        self.adds.append(now() - t0)
        expected = np.arange(n0, n0 + x4.shape[0])
        self.passed += bool(
            np.array_equal(idx, expected) and self.target.n_train == n0 + x4.shape[0]
        )
        t0 = now()
        self.target.remove_points(idx)
        self.removes.append(now() - t0)
        self.passed += self.target.n_train == n0

    def p50(self) -> float:
        return write_p50(self.adds, self.removes)


def closed_loop(
    call, next_batch, seconds: float, min_requests: int, probe: WriteProbe, after=None
):
    """One client: fresh batch, request, repeat.

    Runs until ``seconds`` of wall time have passed and at least
    ``min_requests`` requests were made (capped at ``MAX_LOOP_S``).
    ``after(record)`` and the write probe run with the request timer
    stopped.  Returns one record per request.
    """
    records = []
    start = now()
    while True:
        elapsed = now() - start
        if elapsed >= max(seconds, MAX_LOOP_S):
            break
        if elapsed >= seconds and len(records) >= min_requests:
            break
        xb, yb = next_batch()
        t0 = now()
        try:
            result = call(xb, yb, len(records))
        except Exception:
            # a failed request counts against ok_frac; the loop goes on
            traceback.print_exc(file=sys.stderr)
            result = None
        rec = {"x": xb, "y": yb, "latency": now() - t0, "result": result}
        if after is not None and result is not None:
            after(rec)
        records.append(rec)
        probe.after_request(len(records))
    return records


def closed_loop_e2e(records, points: int) -> dict:
    """Throughput and latency of a closed loop's records."""
    lat = [r["latency"] for r in records]
    done = sum(r["result"] is not None for r in records)
    return {
        "points_per_s": points * done / sum(lat),
        "latency_p50_s": p50(lat),
        "latency_p90_s": p90_or_none(lat),
    }


def empty_layers() -> dict:
    """Every per-layer metric at 0: the value of a layer a workload bypasses."""
    return {name: 0.0 for name in LAYER_UNITS}


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# ----------------------------------------------------------------------
# exact_cold
def run_exact_cold(cfg: Config, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop of fresh 40-point exact requests on one engine."""
    data_rng, req_rng, warm_rng, ref_rng, write_rng = streams(seed, 5)
    x, y, means = make_blobs(cfg, data_rng)
    engine, setup_s = timed_setup(
        lambda: ValuationEngine(x, y, K, backend="brute", n_workers=1),
        lambda _e: None,
        cfg.setup_repeats,
    )
    warm = engine.value(*draw_points(warm_rng, means, COLD_BATCH))
    # the references take the shape of one of the engine's own chunks
    chunk = -(-COLD_BATCH // warm.extra["n_chunks"])
    ref_sort, ref_gemm = reference_costs(
        ref_rng, chunk, cfg.n_train, cfg.n_features, cfg.ref_repeats
    )

    def call(xb, yb, _i):
        res = engine.value(xb, yb, method="exact")
        return {"sum": float(res.values.sum()), "n_chunks": res.extra["n_chunks"]}

    phase = seconds / 2 if trace else seconds
    probe = WriteProbe(engine, write_rng, means)
    records = closed_loop(
        call,
        lambda: draw_points(req_rng, means, COLD_BATCH),
        phase,
        0 if trace else MIN_REQUESTS,
        probe,
    )
    rss = peak_rss_mb()
    cache = engine.stats()["cache"]["counters"]

    checker = checks.EfficiencyChecker(x, y, K)
    with ThreadPoolExecutor(max_workers=CHECK_THREADS) as pool:
        passed = sum(
            pool.map(
                lambda r: r["result"] is not None
                and checker.ok(r["x"], r["y"], r["result"]["sum"]),
                records,
            )
        )
    attempted = len(records) + probe.attempted
    passed += probe.passed
    e2e = {
        "setup_s": setup_s,
        **closed_loop_e2e(records, COLD_BATCH),
        "write_p50_s": probe.p50(),
        "ok_frac": checks.ok_fraction(passed, attempted),
        "peak_rss_mb": rss,
    }
    samples = {"exact": len(records), "truncated": 0, "mc": 0, "writes": probe.attempted}
    context = {"ref.sort_s": ref_sort, "ref.gemm_s": ref_gemm, "ref_shape": [chunk, cfg.n_train]}
    layers = empty_layers()
    if trace:
        layers.update(
            _replay_exact_cold(engine, records, phase, ref_sort, ref_gemm)
        )
        layers.update(_engine_cache_and_writes(cache, probe))
    return Outcome(e2e, layers, samples, context, attempted, passed)


def _engine_cache_and_writes(cache: dict, probe: WriteProbe) -> dict:
    """Ledger rows of an engine workload's rank cache and write probe."""
    return {
        "cache.hit_ratio": ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "cache.invalidations": float(cache["invalidations"]),
        "write.compute_p50_s": probe.p50(),
    }


def _replay_exact_cold(engine, records, seconds, ref_sort, ref_gemm) -> dict:
    """Replay the requests layer by layer, one chunk after the other."""
    metric = get_metric(engine.metric)
    kernel = get_kernel("exact")
    data, y_train, k = engine.backend.data, engine.y_train, engine.k
    done = [r for r in records if r["result"] is not None]
    layer_t = {name: [] for name in ("distance", "rank", "plan", "kernel", "reduce")}
    paths, walls = [], []
    n_chunks = done[0]["result"]["n_chunks"]
    start = now()
    i = 0
    while now() - start < seconds or not walls:
        rec = done[i % len(done)]
        i += 1
        t_req = now()
        path = 0.0
        for xc, yc in zip(
            np.array_split(rec["x"], n_chunks), np.array_split(rec["y"], n_chunks)
        ):
            t0 = now()
            dist = metric(xc, data)
            t1 = now()
            order = stable_argsort_rows(dist)
            t2 = now()
            plan = RankPlan.from_order(order, y_train, yc)
            t3 = now()
            per_test = kernel.values_from_plan(plan, k)
            t4 = now()
            per_test.sum(axis=0)
            t5 = now()
            for name, dt in zip(layer_t, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                layer_t[name].append(dt)
            # the engine's one worker runs the chunks one after the other
            path += t5 - t0
        walls.append(now() - t_req)
        paths.append(path)
    untraced = p50([r["latency"] for r in done])
    out = {f"{name}.p50_s": p50(v) for name, v in layer_t.items()}
    out["distance.over_ref_gemm"] = ratio(out["distance.p50_s"], ref_gemm)
    out["rank.over_ref_sort"] = ratio(out["rank.p50_s"], ref_sort)
    out["engine.unattributed_s"] = untraced - p50(paths)
    out.update(_trace_summary(untraced, walls, ref_sort, ref_gemm))
    return out


def _trace_summary(untraced: float, walls, ref_sort: float, ref_gemm: float) -> dict:
    traced = p50(walls)
    return {
        "trace.untraced_p50_s": untraced,
        "trace.traced_p50_s": traced,
        "trace.overhead_s": traced - untraced,
        "ref.sort_s": ref_sort,
        "ref.gemm_s": ref_gemm,
    }


# ----------------------------------------------------------------------
# sharded_churn
@dataclass
class Op:
    """One scheduled operation of the open loop."""

    t: float
    kind: str  # "exact" | "truncated" | "add" | "remove"
    request: object
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    idx: np.ndarray | None = None
    #: a read of one of the last eight batches, which the rank cache may hold
    repeat: bool = False


def churn_training_set(cfg: Config, rng: np.random.Generator):
    """Blobs where 1% of rows copy a row from the other shard's half.

    The router splits the training set into contiguous halves, so each
    copied row is a cross-shard distance tie; labels are left alone,
    which makes the tie-break decide the values.
    """
    x, y, means = make_blobs(cfg, rng)
    half = cfg.n_train // 2
    m = max(1, int(DUPLICATE_FRAC * cfg.n_train) // 2)
    lo = rng.choice(half, size=2 * m, replace=False)
    hi = half + rng.choice(cfg.n_train - half, size=2 * m, replace=False)
    x[hi[:m]] = x[lo[:m]]
    x[lo[m:]] = x[hi[m:]]
    return x, y, means


def churn_schedule(rng, means, n_ops: int, seconds: float, n0: int):
    """Seeded open-loop schedule: Poisson arrivals given their count.

    Given ``n_ops`` arrivals in ``[0, seconds)``, Poisson arrival times
    are sorted uniform draws.  The mix is fixed per run (writes, exact
    reads, truncated reads in set proportions, shuffled), and so is the
    number of reads that repeat one of the last eight fresh batches.
    """
    n_writes = 2 * int(round(CHURN_WRITE_FRAC * n_ops / 2))
    n_exact = int(round(CHURN_EXACT_FRAC * n_ops))
    kinds = np.array(
        ["w"] * n_writes + ["exact"] * n_exact
        + ["truncated"] * (n_ops - n_writes - n_exact)
    )
    rng.shuffle(kinds)
    times = np.sort(rng.uniform(0.0, seconds, size=n_ops))
    reads = np.flatnonzero(kinds != "w")
    n_repeat = int(round(CHURN_REPEAT_FRAC * reads.size))
    repeats = set(rng.choice(reads[1:], size=n_repeat, replace=False).tolist())
    history: deque = deque(maxlen=CHURN_HISTORY)
    ops: list[Op] = []
    n_cur = n0
    pending = None
    for i, kind in enumerate(kinds):
        t = float(times[i])
        if kind == "w":
            if pending is None:
                x4, y4 = draw_points(rng, means, CHURN_BATCH)
                pending = np.arange(n_cur, n_cur + CHURN_BATCH)
                n_cur += CHURN_BATCH
                req = MutationRequest(kind="add", x=x4, y=y4)
                ops.append(Op(t, "add", req, x=x4, y=y4, idx=pending))
            else:
                req = MutationRequest(kind="remove", idx=pending)
                ops.append(Op(t, "remove", req, idx=pending))
                n_cur -= CHURN_BATCH
                pending = None
            continue
        if i in repeats:
            xb, yb = history[int(rng.integers(len(history)))]
        else:
            xb, yb = draw_points(rng, means, CHURN_BATCH)
            history.append((xb, yb))
        req = ValuationRequest(xb, yb, method=str(kind), epsilon=TRUNCATED_EPSILON)
        ops.append(Op(t, str(kind), req, x=xb, y=yb, repeat=i in repeats))
    return ops


def backlog_grows(depths, lags) -> bool:
    """Whether queue depth or generator lag rose through the run."""
    q = max(1, len(depths) // 4)
    first_d, last_d = np.mean(depths[:q]), np.mean(depths[-q:])
    first_l, last_l = np.median(lags[:q]), np.median(lags[-q:])
    return bool(last_d > first_d + 3.0 or last_l > first_l + 0.1)


def run_sharded_churn(cfg: Config, seed: int, seconds: float, trace: bool) -> Outcome:
    """Open loop of mixed reads and writes on a service over a 2-shard router."""
    data_rng, sched_rng, warm_rng, ref_rng, write_rng = streams(seed, 5)
    x, y, means = churn_training_set(cfg, data_rng)

    def build():
        router = ShardRouter(
            x, y, K, n_shards=2, engine_options={"n_workers": 1}
        )
        return router, ValuationService(router, n_workers=1)

    def teardown(stack):
        stack[1].shutdown(wait=True)
        stack[0].close()

    (router, service), setup_s = timed_setup(build, teardown, cfg.setup_repeats)
    try:
        return _sharded_churn_phases(
            cfg, seconds, trace, x, y, means, router, service, setup_s,
            sched_rng, warm_rng, ref_rng, write_rng,
        )
    finally:
        teardown((router, service))


def _sharded_churn_phases(
    cfg, seconds, trace, x, y, means, router, service, setup_s,
    sched_rng, warm_rng, ref_rng, write_rng,
) -> Outcome:
    shard_n = max(s.engine.n_train for s in router.shards)
    ref_sort, ref_gemm = reference_costs(
        ref_rng, CHURN_BATCH, shard_n, cfg.n_features, cfg.ref_repeats
    )
    for method in ("exact", "truncated"):
        xb, yb = draw_points(warm_rng, means, CHURN_BATCH)
        router.value(xb, yb, method=method, epsilon=TRUNCATED_EPSILON)

    # the rate is fixed; the window stretches until the schedule holds
    # MIN_REQUESTS reads, so a traced run's untraced side has the samples
    # of an untraced run
    phase = seconds / 2 if trace else seconds
    reads_per_op = 1.0 - CHURN_WRITE_FRAC
    n_ops = max(
        int(round(cfg.churn_rate * phase)),
        int(np.ceil(MIN_REQUESTS / reads_per_op)) + 2,
    )
    window = n_ops / cfg.churn_rate
    ops = churn_schedule(sched_rng, means, n_ops, window, router.n_train)

    before = router.stats()
    cache_before = _shard_cache(router)
    jobs, lags = [], []
    start = now() + 0.05
    for op in ops:
        due = start + op.t
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        lags.append(now() - due)
        jobs.append(service.submit(op.request))
    service.wait_all(timeout=120.0)
    rss = peak_rss_mb()
    after = router.stats()
    cache_after = _shard_cache(router)
    # every pair restores the training set, so the replay check below
    # still sees the open loop's final state
    probe = WriteProbe(router, write_rng, means)
    for _ in range(CHURN_WRITE_PAIRS):
        probe.pair()

    depths = [
        sum(
            1 for j in jobs[:i]
            if j.started_at is None or j.started_at > jobs[i].submitted_at
        )
        for i in range(len(jobs))
    ]
    growing = backlog_grows(depths, lags)
    lat: dict = {"exact": [], "truncated": [], "add": [], "remove": []}
    by_kind: dict = {kind: [] for kind in lat}
    for op, job in zip(ops, jobs):
        by_kind[op.kind].append(job)
        if job.finished_at is not None:
            lat[op.kind].append(job.finished_at - (start + op.t))
    read_lat = lat["exact"] + lat["truncated"]
    # a write is timed from job start: with six writes of each kind, the
    # queue waits of two or three of them would decide the p50
    write_compute = {
        kind: [j.compute_seconds for j in by_kind[kind] if j.compute_seconds is not None]
        for kind in ("add", "remove")
    }
    write_all = write_p50(
        write_compute["add"] + probe.adds, write_compute["remove"] + probe.removes
    )
    read_jobs = by_kind["exact"] + by_kind["truncated"]
    reads_done = sum(job.status == "done" for job in read_jobs)
    read_compute = [j.compute_seconds for j in read_jobs if j.compute_seconds is not None]
    finished = [j.finished_at for j in jobs if j.finished_at is not None]
    span = max(finished) - start if finished else float("inf")
    passed = _replay_check(x, y, ops, jobs)
    e2e = {
        "setup_s": setup_s,
        # the open loop's arrival rate is fixed, so points per second of
        # wall time is the offered load; the service's capacity on this
        # mix is points per second of its own compute
        "points_per_s": CHURN_BATCH * reads_done / sum(read_compute),
        "latency_p50_s": p50(read_lat),
        "latency_p90_s": p90_or_none(read_lat),
        "write_p50_s": write_all,
        "ok_frac": checks.ok_fraction(passed + probe.passed, len(ops) + probe.attempted),
        "peak_rss_mb": rss,
    }
    samples = {
        "exact": len(by_kind["exact"]),
        "truncated": len(by_kind["truncated"]),
        "mc": 0,
        "writes": len(by_kind["add"]) + len(by_kind["remove"]) + probe.attempted,
    }
    context = {
        "ref.sort_s": ref_sort,
        "ref.gemm_s": ref_gemm,
        "ref_shape": [CHURN_BATCH, shard_n],
        "gen.lag_p90_s": float(np.percentile(lags, 90)),
        "backlog_growing": growing,
        "max_queue_depth": int(max(depths)),
        "busy_frac": sum(j.compute_seconds or 0.0 for j in jobs) / span,
    }
    layers = empty_layers()
    if trace:
        queue_w = [j.queue_seconds for j in jobs if j.queue_seconds is not None]
        # the replay times the cache-miss path, so its untraced side
        # leaves out the repeated batches the cache may have served
        fresh_exact = [
            job.compute_seconds
            for op, job in zip(ops, jobs)
            if op.kind == "exact" and not op.repeat and job.compute_seconds is not None
        ]
        delta = {
            key: after["counters"][key] - before["counters"][key]
            for key in ("requests", "retries", "hedges", "shard_errors")
        }
        merge_per_req = ratio(
            after["timings"]["merge_seconds"] - before["timings"]["merge_seconds"],
            delta["requests"],
        )
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        layers.update(
            {
                "cache.hit_ratio": ratio(hits, hits + misses),
                "cache.invalidations": float(
                    cache_after["invalidations"] - cache_before["invalidations"]
                ),
                "merge.seconds_per_request": merge_per_req,
                "router.retries": float(delta["retries"]),
                "router.hedges": float(delta["hedges"]),
                "router.shard_errors": float(delta["shard_errors"]),
                "queue.wait_p50_s": p50(queue_w),
                "queue.wait_p90_s": float(np.percentile(queue_w, 90)),
                "service.compute_p50_s": p50(read_compute),
                "gen.lag_p90_s": float(np.percentile(lags, 90)),
                "gen.backlog_growing": float(growing),
                "write.compute_p50_s": write_all,
            }
        )
        layers.update(
            _replay_sharded(router, ops, phase, p50(fresh_exact), ref_sort, ref_gemm)
        )
    note = "" if not growing else "backlog grew through the run; latencies invalid"
    return Outcome(
        e2e, layers, samples, context, len(ops) + probe.attempted,
        passed + probe.passed, valid=not growing, note=note,
    )


def _shard_cache(router) -> dict:
    """Rank-cache counters summed over the router's shard engines."""
    total = {"hits": 0, "misses": 0, "invalidations": 0}
    for stats in router.stats()["shards"].values():
        counters = stats["cache"]["counters"]
        for key in total:
            total[key] += counters[key]
    return total


def _replay_check(x, y, ops, jobs) -> int:
    """Replay the operation log on one engine; count answers that agree.

    A single-worker service runs jobs in submission order, so the log
    order is the execution order.  Reads must match the single engine
    within ``checks.ROUTER_TOL``; writes must report the indices and
    training-set size the single engine has.
    """
    ref = ValuationEngine(x, y, K, cache=False, n_workers=1)

    def read_ok(pair) -> bool:
        op, job = pair
        if job.status != "done":
            return False
        expected = ref.value(op.x, op.y, method=op.kind, epsilon=TRUNCATED_EPSILON)
        return checks.router_ok(job.result(timeout=0).values, expected.values)

    passed = 0
    reads: list = []
    with ThreadPoolExecutor(max_workers=CHECK_THREADS) as pool:
        for op, job in zip(ops, jobs):
            if op.kind in ("exact", "truncated"):
                reads.append((op, job))
                continue
            # reads between two writes see the same training set
            passed += sum(pool.map(read_ok, reads))
            reads = []
            if job.status != "done":
                continue
            answer = job.result(timeout=0)
            if op.kind == "add":
                idx = ref.add_points(op.x, op.y)
                passed += bool(
                    np.array_equal(answer.indices, idx)
                    and answer.n_train == ref.n_train
                )
            else:
                ref.remove_points(op.idx)
                passed += answer.n_train == ref.n_train
        passed += sum(pool.map(read_ok, reads))
    return passed


def _replay_sharded(router, ops, seconds, untraced, ref_sort, ref_gemm) -> dict:
    """Replay the reads layer by layer against the stack's final state.

    Shard legs run on a two-thread pool, as the router runs them.  The
    merge is the router's documented exact merge (lexsort on row,
    distance, global index) over the contiguous shard layout, which is
    the layout after an even number of add/remove writes.  An exact
    read's critical path is the slower leg, the merge, plan, kernel and
    reduce.
    """
    metric = get_metric(router.metric)
    kernel = get_kernel("exact")
    shards = [s.engine for s in router.shards]
    offsets = np.cumsum([0] + [e.n_train for e in shards[:-1]])
    y_all = np.concatenate([e.y_train for e in shards])
    k_eff = min(truncation_rank(router.k, TRUNCATED_EPSILON), min(e.n_train for e in shards))
    reads = [op for op in ops if op.kind in ("exact", "truncated")]
    layers = ("distance", "rank", "retrieve", "retrieve_topk", "plan", "kernel", "reduce")
    t = {name: [] for name in layers}
    paths, walls = [], []

    def timed(fn, *args, **kwargs):
        t0 = now()
        out = fn(*args, **kwargs)
        return out, now() - t0

    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        start = now()
        i = 0
        while now() - start < seconds or not walls:
            op = reads[i % len(reads)]
            i += 1
            for eng in shards:
                dist, dt = timed(metric, op.x, eng.backend.data)
                t["distance"].append(dt)
                if op.kind == "exact":
                    t["rank"].append(timed(stable_argsort_rows, dist)[1])
            if op.kind == "truncated":
                legs = list(pool.map(lambda e: timed(e.retrieve, op.x, k=k_eff), shards))
                t["retrieve_topk"].extend(dt for _, dt in legs)
                continue
            for eng in shards:
                # time the miss path; the cache's effect is cache.hit_ratio
                eng.cache.clear()
            t0 = now()
            legs = list(pool.map(lambda e: timed(e.retrieve, op.x), shards))
            t_merge = now()
            gidx = np.concatenate(
                [res[0] + off for (res, _), off in zip(legs, offsets)], axis=1
            )
            dist = np.concatenate([res[1] for res, _ in legs], axis=1)
            q, m = dist.shape
            flat = np.lexsort((gidx.ravel(), dist.ravel(), np.repeat(np.arange(q), m)))
            order = gidx.ravel()[flat].reshape(q, m)
            sdist = dist.ravel()[flat].reshape(q, m)
            dt_merge = now() - t_merge
            plan, dt_plan = timed(RankPlan.from_order, order, y_all, op.y, distances=sdist)
            per_test, dt_kernel = timed(kernel.values_from_plan, plan, router.k)
            _, dt_reduce = timed(per_test.sum, axis=0)
            walls.append(now() - t0)
            leg_t = [dt for _, dt in legs]
            t["retrieve"].extend(leg_t)
            t["plan"].append(dt_plan)
            t["kernel"].append(dt_kernel)
            t["reduce"].append(dt_reduce)
            paths.append(max(leg_t) + dt_merge + dt_plan + dt_kernel + dt_reduce)
    out = {f"{name}.p50_s": p50(v) for name, v in t.items()}
    out["distance.over_ref_gemm"] = ratio(out["distance.p50_s"], ref_gemm)
    out["rank.over_ref_sort"] = ratio(out["rank.p50_s"], ref_sort)
    out["engine.unattributed_s"] = untraced - p50(paths) if paths else 0.0
    out.update(_trace_summary(untraced, walls, ref_sort, ref_gemm))
    return out


# ----------------------------------------------------------------------
# mc_rung
def run_mc_rung(cfg: Config, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop of fresh 4-point Monte Carlo requests on one engine."""
    data_rng, req_rng, warm_rng, ref_rng, write_rng = streams(seed, 5)
    x, y, means = make_blobs(cfg, data_rng)
    engine, setup_s = timed_setup(
        lambda: ValuationEngine(x, y, K, backend="brute"),
        lambda _e: None,
        cfg.setup_repeats,
    )
    ref_sort, ref_gemm = reference_costs(
        ref_rng, MC_BATCH, cfg.n_train, cfg.n_features, cfg.ref_repeats
    )
    exact_ref = ValuationEngine(x, y, K, cache=False, n_workers=1)

    def mc_seed(i: int) -> int:
        return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])

    xw, yw = draw_points(warm_rng, means, MC_BATCH)
    engine.value(xw, yw, method="mc", epsilon=MC_EPSILON, delta=MC_DELTA, seed=0)

    def call(xb, yb, i):
        res = engine.value(
            xb, yb, method="mc", epsilon=MC_EPSILON, delta=MC_DELTA,
            seed=mc_seed(i),
        )
        return {"values": res.values, "certificate": res.extra["certificate"]}

    def check(rec):
        exact = exact_ref.value(rec["x"], rec["y"], method="exact").values
        rec["ok"] = checks.mc_ok(rec["result"]["values"], exact, rec["result"]["certificate"])
        rec["result"]["values"] = None  # 800 KB per request; only the verdict is kept

    phase = seconds / 2 if trace else seconds
    probe = WriteProbe(engine, write_rng, means)
    records = closed_loop(
        call,
        lambda: draw_points(req_rng, means, MC_BATCH),
        phase,
        0 if trace else MIN_REQUESTS,
        probe,
        after=check,
    )
    rss = peak_rss_mb()
    cache = engine.stats()["cache"]["counters"]
    passed = sum(bool(r.get("ok")) for r in records)
    attempted = len(records) + probe.attempted
    passed += probe.passed
    e2e = {
        "setup_s": setup_s,
        **closed_loop_e2e(records, MC_BATCH),
        "write_p50_s": probe.p50(),
        "ok_frac": checks.ok_fraction(passed, attempted),
        "peak_rss_mb": rss,
    }
    samples = {"exact": 0, "truncated": 0, "mc": len(records), "writes": probe.attempted}
    context = {
        "ref.sort_s": ref_sort, "ref.gemm_s": ref_gemm,
        "ref_shape": [MC_BATCH, cfg.n_train],
    }
    layers = empty_layers()
    if trace:
        layers.update(_replay_mc(engine, records, phase, mc_seed, ref_sort, ref_gemm))
        layers.update(_engine_cache_and_writes(cache, probe))
    return Outcome(e2e, layers, samples, context, attempted, passed)


def _replay_mc(engine, records, seconds, mc_seed, ref_sort, ref_gemm) -> dict:
    """Replay the MC requests: distances, Bennett budget, MC scan, reduce."""
    done = [r for r in records if r["result"] is not None]
    k, n = engine.k, engine.n_train
    t = {n_: [] for n_ in ("distance", "bounds", "mckernel", "reduce")}
    paths, walls = [], []
    budget = 0
    start = now()
    i = 0
    while now() - start < seconds or not walls:
        j = i % len(done)
        rec = done[j]
        i += 1
        t0 = now()
        t1 = now()
        dist = engine.distances(rec["x"])
        t["distance"].append(now() - t1)
        t1 = now()
        budget = bennett_permutations(MC_EPSILON, MC_DELTA, n, k, 1.0 / k)
        t["bounds"].append(now() - t1)
        match = (engine.y_train[None, :] == rec["y"][:, None]).astype(np.float64)
        rng = np.random.default_rng(np.random.SeedSequence(mc_seed(j)).spawn(1)[0])
        t1 = now()
        per_test = mc_values_from_distances(dist, match, k, budget, rng)
        t["mckernel"].append(now() - t1)
        t1 = now()
        per_test.sum(axis=0)
        t["reduce"].append(now() - t1)
        walls.append(now() - t0)
        paths.append(sum(v[-1] for v in t.values()))
    untraced = p50([r["latency"] for r in done])
    out = {
        "distance.p50_s": p50(t["distance"]),
        "bounds.solve_s": p50(t["bounds"]),
        "mckernel.p50_s": p50(t["mckernel"]),
        "reduce.p50_s": p50(t["reduce"]),
        "mc.permutations": float(budget),
        "engine.unattributed_s": untraced - p50(paths),
    }
    out["distance.over_ref_gemm"] = ratio(out["distance.p50_s"], ref_gemm)
    out.update(_trace_summary(untraced, walls, ref_sort, ref_gemm))
    return out


WORKLOADS = {
    "exact_cold": run_exact_cold,
    "sharded_churn": run_sharded_churn,
    "mc_rung": run_mc_rung,
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, cfg: Config | None = None
) -> Outcome:
    """Run one workload; per-layer sample counts ride along in ``layers``."""
    cfg = cfg or Config()
    out = WORKLOADS[name](cfg, seed, seconds, trace)
    if trace:
        for key, value in out.samples.items():
            out.layers[f"samples.{key}"] = float(value)
        out.layers["env.nproc"] = float(os.cpu_count() or 1)
    return out
