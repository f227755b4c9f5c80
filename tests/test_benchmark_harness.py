"""The benchmark harness still reaches every name it traces in the package."""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import tracer  # noqa: E402

from twospinors import verify  # noqa: E402


def test_traced_names_resolve():
    for modname, attr in tracer.TRACED:
        obj = importlib.import_module("twospinors." + modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"


def test_verify_has_twenty_checks():
    checks = [name for name, value in vars(verify).items()
              if name.startswith(tracer.CHECK_PREFIX) and callable(value)]
    assert len(checks) == 20


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
