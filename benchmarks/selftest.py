"""Quick self-test of the benchmark harness; never checks a timing.

    python3 benchmarks/selftest.py

Runs every workload at tiny sizes, untraced and traced, through the same
entry point the benchmark uses, and checks the result line's schema and
metric names against BENCHMARK.json.  It also checks that the oracles
reject corrupted outputs and that the entry point refuses to run without
the program's source.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_result(line: str, declared: list[dict]) -> list[str]:
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("result is not correct")
    if not (type(result.get("attempted")) is int and result["attempted"] >= 1):
        problems.append("attempted is not a positive whole number")
    if type(result.get("failed")) is not int:
        problems.append("failed is not a whole number")
    metrics = result.get("metrics", {})
    if list(metrics) != [d["name"] for d in declared]:
        problems.append("metric names differ from BENCHMARK.json")
    for d in declared:
        got = metrics.get(d["name"], {})
        if set(got) != {"value", "unit"} or got.get("unit") != d["unit"]:
            problems.append(f"metric {d['name']} is {got}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"metric {d['name']} has a non-numeric value")
    return problems


def run_tiny(workload: str, trace: int) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.3",
                         "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    problems = [] if code == 0 else [f"exit code {code}"]
    problems += check_result(lines[-1], SPEC["per_layer" if trace else "end_to_end"])
    if workload != "point-queries" and json.loads(lines[-1])["failed"] != 0:
        problems.append("a verify or field operation failed")
    return problems


def oracle_controls() -> list[str]:
    import oracle
    import workloads

    G = workloads.captured_gammas()
    problems = []
    path = run.WORKDIR / "selftest.ndjson"
    _, code, _ = workloads._run_cli(["sample-field", "-m", "0.7", "--grid", "3:-2:1",
                                     "--out", str(path), "--format", "json"])
    lines = path.read_text(encoding="utf-8").splitlines()
    path.unlink()
    if code != 0 or oracle.field_problems(lines, G, 3):
        problems.append("field oracle rejected a good grid")
    for k in (1, 2, len(lines) - 1):
        bad = list(lines)
        bad[k] = oracle.corrupt_one_digit(bad[k])
        if not oracle.field_problems(bad, G, 3):
            problems.append(f"field oracle accepted corrupted record {k}")
    if not oracle.field_problems(lines[:-1], G, 3):
        problems.append("field oracle accepted a truncated file")
    _, code, text = workloads._run_cli(["verify", "--samples", "3", "--seed", "1", "--format", "json"])
    if oracle.verify_problems(code, text, 1, 3):
        problems.append("verify oracle rejected a good run")
    if not oracle.verify_problems(code, text, 1, 4):
        problems.append("verify oracle accepted the wrong sample count")
    if not oracle.verify_problems(code, text.replace('"passed": true}', '"passed": false}'), 1, 3):
        problems.append("verify oracle accepted a failed report")
    return problems


def refuses_without_source() -> list[str]:
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "verify-sweep",
                           "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark ran or printed a result without the program's source"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    # Tiny sizes: a two-sample verify and a 2^3 grid.
    run.WORKDIR.mkdir(exist_ok=True)
    workloads.VerifySweep.samples = 2
    workloads.FieldGrid.nodes = 2
    failures = []
    for name in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            failures += [f"{name} trace={trace}: {p}" for p in run_tiny(name, trace)]
    failures += oracle_controls()
    failures += refuses_without_source()
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
