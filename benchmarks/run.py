"""Benchmark entry point: one workload, one seed, one single-threaded process.

    python3 benchmarks/run.py --workload point-queries --seed 1 --seconds 24 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Lines before it give the same numbers with their units, the
sample counts, the failure breakdown and the provenance.  The exit code is
1 when an output fails its correctness check, 2 when the program cannot be
found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Thread pools are sized when numpy loads, so this precedes every import of it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / "_out"
SETUP_PROBES = 11  # about half before the timed loop, the rest after it
WORKLOAD_NAMES = ("verify-sweep", "field-grid", "point-queries")

# Start a fresh interpreter, import the package and build its lazy tables.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import twospinors as ts; "
    "ts.world_basis(); [ts.gamma(mu) for mu in range(4)]; print('ready', flush=True)"
)


def setup_seconds(probes: int) -> list[float]:
    """Wall times from process launch to a warm, imported package."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
    return times


def provenance() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "twospinors").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own .git only (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile_us(latencies: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(latencies, q)) * 1e6 if latencies else 0.0


def end_to_end(m, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (m.items_done / m.busy_s if m.busy_s else 0.0, "1/s"),
        "op_p50_us": (percentile_us(m.latencies_s, 50), "us"),
        "op_p99_us": (percentile_us(m.latencies_s, 99), "us"),
        "peak_rss_mb": (rss_mb, "MB"),
        "failed_frac": (m.failed / m.attempted if m.attempted else 0.0, "1"),
    }


def print_metrics(metrics: dict, notes: dict | None = None) -> None:
    notes = notes or {}
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>16.6g} {unit}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "twospinors" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {SRC / 'twospinors'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = setup_seconds(SETUP_PROBES // 2 + 1) if not args.trace else []
    import resource

    import workloads
    from tracer import Tracer

    WORKDIR.mkdir(exist_ok=True)
    gammas = workloads.captured_gammas()
    w = workloads.WORKLOADS[args.workload](args.seed, gammas, WORKDIR)
    w.warm_up()

    print(f"# twospinors benchmark: workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        # Half the time untraced, half traced, over the same operation list
        # and so about as many passes; the ratio of their best costs per
        # item is the tracing overhead.
        plain = workloads.measure(w, args.seconds / 2)
        with Tracer() as tracer:
            traced = workloads.measure(w, args.seconds / 2)
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        metrics = tracer.metrics()
        per_item = [m.busy_s / max(m.items_done, 1) for m in (plain, traced)]
        metrics["trace.overhead_frac"] = (per_item[1] / per_item[0] - 1.0, "1")
        metrics["trace.coverage_frac"] = (tracer.top_s / traced.total_s, "1")
        metrics["trace.uncovered_s"] = (traced.total_s - tracer.top_s, "s")
        print(f"# traced {traced.items_done} {w.items} in {traced.busy_s:.3f} s of best times "
              f"({traced.total_s:.3f} s timed in all); untraced {plain.items_done} in {plain.busy_s:.3f} s")
        print_metrics(metrics)
        measured = metrics
    else:
        m = workloads.measure(w, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += setup_seconds(SETUP_PROBES - len(setup))
        attempted, failed = m.attempted, m.failed
        measured = end_to_end(m, statistics.median(setup), rss_mb)
        print_metrics(measured, {
            "setup_s": f"median of {len(setup)} launches: "
                       + " ".join(f"{t:.4f}" for t in setup),
            "items_per_s": f"{m.items_done} {w.items} in {m.busy_s:.3f} s, best of {m.passes} passes and tail re-runs",
            "op_p50_us": f"n={len(m.latencies_s)} successful operations, best of {m.passes} passes and tail re-runs",
            "op_p99_us": f"n={len(m.latencies_s)} successful operations, best of {m.passes} passes and tail re-runs",
            "failed_frac": f"{m.failed} failed / {m.attempted} attempted {w.items}",
        })

    w.finish()
    control_problems = w.controls()
    for (entry, raiser, exc_type, kind), count in w.failures.most_common():
        print(f"# failure {count:>7}  {entry} <- {raiser}: {exc_type} ({kind})")
    if w.digest:
        print(f"# output sha256 {w.digest}; each call timed in {w.segment_count} segments")
    print("# negative controls: " + ("all rejected" if not control_problems else "; ".join(control_problems)))
    for p in w.problems[:20]:
        print(f"# incorrect: {p}")
    print("# provenance " + json.dumps(provenance(), sort_keys=True))

    # The result line carries only the metrics the benchmark declares.
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    correct = not w.problems and not control_problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": measured[d["name"]][0], "unit": measured[d["name"]][1]}
                    for d in declared},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
