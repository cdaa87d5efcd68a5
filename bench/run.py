"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload serve-sphere --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer spans and counts with ``--trace 1``. Lines
before it give every figure with its unit and sample count, the gates and
the environment. The exit code is 1 when a gate fails, 2 when the library
sources are missing.
"""

import os

# One BLAS thread, pinned before numpy loads: a second thread gave no gain
# on the fit and makes timings depend on what else the machine runs.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-sphere", "validate-random"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads_pin": BLAS_PIN,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
    }


def quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if values else float("nan")


def end_to_end(tracer, outcome) -> dict:
    """name -> (value, unit, samples) for every end-to-end metric."""
    fits = tracer.durations("harness.fit_pipeline")
    predicts = tracer.of("harness.predict", "timed")
    latencies = [s.duration for s in predicts]
    points = sum(s.items for s in predicts)
    busy = sum(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (quantile(outcome.setup_s, 0.5), "s", len(outcome.setup_s)),
        "fit_s": (quantile(fits, 0.5), "s", len(fits)),
        "predict_pts_per_s": (points / busy if busy > 0 else float("nan"), "1/s", points),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }


def per_layer(tracer, layers) -> dict:
    """name -> (value, unit, samples) for every span and count."""
    summary = tracer.summary()
    out = {}
    for name in layers.SPANS:
        agg = summary.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        out[f"{name}.s"] = (agg["s"], "s", agg["calls"])
        out[f"{name}.self_s"] = (agg["self_s"], "s", agg["calls"])
        out[f"{name}.calls"] = (agg["calls"], "count", agg["calls"])
    counts = dict(tracer.counts)
    counts["harness.fit_pipeline.child_share"] = tracer.child_share("harness.fit_pipeline")
    counts["trace.overhead_s"] = len(tracer.spans) * layers.wrapper_cost_s()
    for name, unit in layers.COUNTS.items():
        value = counts.get(name, 0)
        if isinstance(value, list):  # one observation per call: report the mean
            out[name] = (float(np.mean(value)), unit, len(value))
        else:
            out[name] = (value, unit, 1)
    return out


def show(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:48s} {value!r:>24} {unit:14s} n={samples}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohortmetric" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    from tracing import Tracer

    workloads.quiet_library()
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    kwargs = {"scratch": OUT} if args.workload == "serve-sphere" else {}
    with Tracer() as tracer:
        layers.install(tracer, full=bool(args.trace))
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, **kwargs)

    e2e = end_to_end(tracer, outcome)
    show(f"{args.workload} seed {args.seed}: end-to-end", e2e)
    # per predict call: a batch of 50 on serve-sphere, a fold's held-out
    # patients on validate-random (see bench/README.md for why unbounded)
    latencies = tracer.durations("harness.predict", "timed")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    show("workload figures", {
        "predict_batch_p50_s": (quantile(latencies, 0.5), "s", len(latencies)),
        "predict_batch_p90_s": (quantile(latencies, 0.9), "s", len(latencies)),
        **outcome.report,
        "error_rate": (error_rate, "ratio", outcome.attempted)})
    print("# gates")
    for gate, ok in outcome.gates.items():
        print(f"{'PASS' if ok else 'FAIL'} {gate}")
    print("# environment " + json.dumps(env))
    metrics = e2e
    if args.trace:
        metrics = per_layer(tracer, layers)
        show("per-layer", metrics)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"environment": env, "spans": tracer.to_json(), "counts": tracer.counts}))
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    correct = outcome.failed == 0 and all(outcome.gates.values())
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
