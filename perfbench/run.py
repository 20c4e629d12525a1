"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact_cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with the same seed, then replays its requests layer by layer
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine context (CPU count,
numpy and BLAS versions, thread settings, same-process reference costs)
and each metric's sample count.

The library is imported from ``src/`` of the current directory; without
it the benchmark exits with code 2 and prints no result.
"""

import os
import time

# one BLAS/OpenMP thread: the program's own threads are the only ones
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def pin_to_fastest_cpu(probe_s: float = 0.2):
    """Run the whole process on one CPU: the one that spins fastest now.

    On a shared 2-vCPU VM the speed-up of two compute threads comes and
    goes for minutes at a time, with no matching steal time: a 2-shard
    router's truncated read took 0.019 s or 0.032 s by period, while one
    shard's leg alone held at 0.014 s.  On one CPU the router's legs
    always run one after the other, and a read took 0.034 s in every
    period.  The host also steals time from one vCPU at a time (23% of
    one and 1% of the other, for minutes), so the CPU is picked by a
    short spin on each.  Returns the CPU and the spin counts, or None
    where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    spins = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        n, end = 0, time.perf_counter() + probe_s
        while time.perf_counter() < end:
            n += 1
        spins[cpu] = n
    best = max(spins, key=spins.get)
    os.sched_setaffinity(0, {best})
    return {"cpu": best, "spins": spins}


CPU = pin_to_fastest_cpu()


def fix_malloc_thresholds():
    """Fix glibc malloc's mmap and trim thresholds; None off glibc.

    glibc raises its mmap threshold when a large mapped block is freed,
    so whether a 25 MB shard copy is reused from the heap or mapped and
    page-faulted afresh depends on the run's allocation history: a
    router write took 0.034 s or 0.058 s by run.  With the threshold at
    its 32 MiB cap and the heap never trimmed, every run reuses.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return None
    m_trim_threshold, m_mmap_threshold = -1, -3
    settings = {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}
    ok = mallopt(m_mmap_threshold, settings["mmap_threshold"]) == 1
    ok = ok and mallopt(m_trim_threshold, settings["trim_threshold"]) == 1
    return settings if ok else None


MALLOC = fix_malloc_thresholds()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def import_library(root: str) -> None:
    """Put ``<root>/src`` first on the path and import the library from it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise ImportError(f"no src/repro package under {root}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src)):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")


def machine_context() -> dict:
    """CPU count, numpy/BLAS versions and thread settings of this process."""
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned": CPU,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc": MALLOC,
    }


def metric_entries(values: dict, units: dict) -> dict:
    return {
        name: {"value": float(values[name]), "unit": units[name]} for name in units
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library(os.getcwd())
    except ImportError as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        metrics = metric_entries(out.layers, workloads.LAYER_UNITS)
    else:
        missing = [k for k, v in out.e2e.items() if v is None]
        if missing:
            print(f"too few samples for {missing}", file=sys.stderr)
            return 1
        metrics = metric_entries(out.e2e, workloads.E2E_UNITS)
    if out.note:
        print(out.note, file=sys.stderr)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "machine": machine_context(),
                "context": out.context,
                "samples": out.samples,
            }
        )
    )
    ok = out.valid and out.passed == out.attempted
    print(
        json.dumps(
            {
                "correct": bool(ok),
                "attempted": int(out.attempted),
                "failed": int(out.attempted - out.passed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
