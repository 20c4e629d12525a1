"""The benchmark's own tests: its checks bite, and every metric prints.

Run from the repository root::

    python3 -m pytest perfbench -q -s
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.engine import ShardRouter, ValuationEngine  # noqa: E402

TINY = workloads.Config(
    n_train=2000,
    n_features=16,
    setup_repeats=2,
    ref_repeats=3,
    churn_rate=60.0,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    x, y, means = workloads.make_blobs(TINY, rng)
    batches = [workloads.draw_points(rng, means, 4) for _ in range(3)]
    return x, y, batches


def test_efficiency_check_bites(data):
    x, y, batches = data
    engine = ValuationEngine(x, y, workloads.K, n_workers=1)
    checker = checks.EfficiencyChecker(x, y, workloads.K)
    sums = [float(engine.value(xb, yb).values.sum()) for xb, yb in batches]
    verdicts = [checker.ok(xb, yb, s) for (xb, yb), s in zip(batches, sums)]
    assert checks.ok_fraction(sum(verdicts), len(verdicts)) == 1.0
    sums[1] += 1e-6
    verdicts = [checker.ok(xb, yb, s) for (xb, yb), s in zip(batches, sums)]
    assert checks.ok_fraction(sum(verdicts), len(verdicts)) < 1.0


def test_router_check_bites(data):
    x, y, batches = data
    engine = ValuationEngine(x, y, workloads.K, cache=False, n_workers=1)
    with ShardRouter(x, y, workloads.K, n_shards=2) as router:
        answers = [router.value(xb, yb).values for xb, yb in batches]
    replay = [engine.value(xb, yb).values for xb, yb in batches]
    verdicts = [checks.router_ok(a, r) for a, r in zip(answers, replay)]
    assert checks.ok_fraction(sum(verdicts), len(verdicts)) == 1.0
    answers[2] = answers[2].copy()
    answers[2][0] += 1e-9
    verdicts = [checks.router_ok(a, r) for a, r in zip(answers, replay)]
    assert checks.ok_fraction(sum(verdicts), len(verdicts)) < 1.0


def test_mc_check_bites(data):
    x, y, batches = data
    engine = ValuationEngine(x, y, workloads.K, n_workers=1)
    answers, exact = [], []
    for i, (xb, yb) in enumerate(batches):
        res = engine.value(
            xb, yb, method="mc", epsilon=workloads.MC_EPSILON, delta=workloads.MC_DELTA, seed=i
        )
        answers.append((res.values.copy(), res.extra["certificate"]))
        exact.append(engine.value(xb, yb, method="exact").values)
    verdicts = [checks.mc_ok(v, e, c) for (v, c), e in zip(answers, exact)]
    assert checks.ok_fraction(sum(verdicts), len(verdicts)) == 1.0
    values, cert = answers[0]
    values[3] += 2 * cert["epsilon"]
    verdicts = [checks.mc_ok(v, e, c) for (v, c), e in zip(answers, exact)]
    assert checks.ok_fraction(sum(verdicts), len(verdicts)) < 1.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_prints_every_metric(name, trace):
    out = workloads.run_workload(name, seed=3, seconds=2.0, trace=trace, cfg=TINY)
    assert out.passed == out.attempted
    values = out.layers if trace else out.e2e
    units = workloads.LAYER_UNITS if trace else workloads.E2E_UNITS
    assert set(values) == set(units)
    for metric, unit in units.items():
        assert values[metric] is not None and np.isfinite(values[metric]), metric
        print(f"{name:14s} {metric:28s} {values[metric]:.6g} {unit}")
