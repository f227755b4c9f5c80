"""The three benchmark workloads, their seeded inputs and their timed loops.

Every workload is a closed loop: one client, one thread, and each call
starts after the previous one returns.  Inputs come only from the seed, as
a stream that can be replayed from its start.  Only the call into the
program is timed; the oracle checks that follow each call run outside the
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import twospinors as ts
from twospinors import cli, errors

TAIL_SHARE = 1 / 3  # time re-running the slowest operations, per unit of time in whole passes


@dataclass
class Measurement:
    """Per-operation times of a loop: latencies of successful operations and
    item counts."""

    # 8 bytes per operation, so peak memory barely depends on how many
    # operations a run completes.
    latencies_s: array = field(default_factory=lambda: array("d"))
    busy_s: float = 0.0
    items_done: int = 0
    attempted: int = 0
    failed: int = 0
    passes: int = 0  # passes begun over the operation list
    total_s: float = 0.0  # timed seconds of every run of every operation

    def record(self, seconds: float, items: int, ok: bool) -> None:
        self.busy_s += seconds
        self.attempted += items
        if ok:
            self.latencies_s.append(seconds)
            self.items_done += items
        else:
            self.failed += items


class _StampedFile:
    """A file opened by the program, recording the time of each write."""

    def __init__(self, f, stamps: array):
        self._f, self._stamps = f, stamps

    def write(self, text: str) -> int:
        self._stamps.append(time.perf_counter())
        return self._f.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._f.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._f, name)


def _run_cli(argv: list[str]) -> tuple[float, int, str]:
    """Time one in-process CLI call, capturing what it prints."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return time.perf_counter() - t0, code, buf.getvalue()


class Workload:
    """Base: a seeded stream of operations with an oracle for each."""

    name = ""
    items = ""

    per_op = 1  # items per operation
    op_rate = 0.0  # operations per second of wall time, oracle included; sizes the list
    passes = 24  # passes over the list that fit in a run

    def __init__(self, seed: int, gammas: np.ndarray, workdir: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)  # fixed parameters and controls
        self.stream = None  # operation inputs; see rewind()
        self.G = gammas
        self.workdir = workdir
        self.problems: list[str] = []
        self.failures: Counter = Counter()  # (entry, raiser, type, kind) -> count
        self.digest = ""  # sha256 of the output file, where there is one

    def warm_up(self) -> None:
        raise NotImplementedError

    def rewind(self) -> None:
        """Restart the input stream, so a measurement starts from the same operations."""
        self.stream = np.random.default_rng([self.seed, 1])

    def next_input(self):
        return None

    def operations(self, seconds: float) -> int:
        """Length of the operation list: about self.passes passes fit in seconds."""
        return max(1, round(seconds * self.op_rate / self.passes))

    def run(self, x) -> tuple[float | np.ndarray, bool, tuple | None]:
        """Time one operation and check its output.

        Returns (seconds, ok, failure), where failure classifies an
        operation the program refused (point-queries only).  seconds is
        either the operation's time or the times of its consecutive
        segments, which add up to it.
        """
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; called after memory is sampled."""

    def controls(self) -> list[str]:
        """Negative controls: each must be rejected by the oracle."""
        return _common_controls(self)


class VerifySweep(Workload):
    """`verify --samples N` with a fresh verification seed for each call."""

    name = "verify-sweep"
    items = "samples"
    samples = 10  # about 30 ms per call, so each pass holds a score of calls
    op_rate = 30.0
    # A 30 ms call rarely runs whole in a quiet moment, so each needs more
    # tries than a 0.5 ms query before its best time settles.
    passes = 48

    def warm_up(self) -> None:
        _run_cli(["verify", "--samples", "1", "--seed", "0", "--format", "json"])

    @property
    def per_op(self) -> int:
        return self.samples

    def next_input(self) -> int:
        return int(self.stream.integers(0, 2**31))

    def run(self, vseed: int):
        argv = ["verify", "--samples", str(self.samples), "--seed", str(vseed), "--format", "json"]
        dt, code, text = _run_cli(argv)
        problems = oracle.verify_problems(code, text, vseed, self.samples)
        self.problems += problems
        return dt, not problems, None


class FieldGrid(Workload):
    """`sample-field` on an n^3 Cartesian grid whose mass and range come from
    the seed; the same grid is written on every call, so every output of one
    seed must hash the same.  The operation list is that one call, repeated
    for the whole run.

    A 2.5 s call seldom runs whole in a quiet moment of a shared host, so
    each call is timed in segments: from its start to the first write of
    the output file, between consecutive writes (one record each: building
    it and serializing it), and from the last write to its return.  Every
    call writes the same bytes in the same writes, so segment k does the
    same work in every call, and its best time can come from a quiet moment
    even when no whole call does.
    """

    name = "field-grid"
    items = "records"
    nodes = 21  # 18,522 records, about 6.6 MB per call

    def __init__(self, seed, gammas, workdir):
        super().__init__(seed, gammas, workdir)
        self.mass = float(10 ** self.rng.uniform(math.log10(0.5), math.log10(2.0)))
        self.lo = -self.mass * float(self.rng.uniform(1.0, 3.0))
        self.hi = self.mass * float(self.rng.uniform(1.0, 3.0))
        self.out = workdir / f"field-{os.getpid()}.ndjson"
        self.segment_count = 0  # segments of the last timed call; 1 if no write was seen

    def argv(self, nodes: int, out: Path) -> list[str]:
        return [
            "sample-field", "-m", repr(self.mass),
            "--grid", f"{nodes}:{self.lo!r}:{self.hi!r}",
            "--out", str(out), "--format", "json",
        ]

    def warm_up(self) -> None:
        _run_cli(self.argv(2, self.out))

    @property
    def per_op(self) -> int:
        return 2 * self.nodes**3

    def run(self, _):
        stamps = array("d")
        cli.open = lambda *a, **kw: _StampedFile(open(*a, **kw), stamps)
        try:
            t0 = time.perf_counter()
            dt, code, text = _run_cli(self.argv(self.nodes, self.out))
        finally:
            del cli.open
        segments = np.diff(np.array([t0, *stamps, t0 + dt]))
        self.segment_count = len(segments)
        summary = json.loads(text) if code == 0 else {}
        if summary.get("records") != self.per_op or summary.get("flagged") != 0:
            self.problems.append(f"sample-field exited {code} with summary {text.strip()!r}")
            return segments, False, None
        sha = hashlib.sha256()
        with open(self.out, "rb") as f:  # in blocks, to keep the file out of peak memory
            for block in iter(lambda: f.read(1 << 16), b""):
                sha.update(block)
        digest = sha.hexdigest()
        if self.digest and digest != self.digest:
            self.problems.append("two calls with the same inputs wrote different bytes")
        self.digest = digest
        return segments, True, None

    def finish(self) -> None:
        if self.out.exists():
            lines = self.out.read_text(encoding="utf-8").splitlines()
            self.problems += oracle.field_problems(lines, self.G, self.nodes)
            self.out.unlink()


@dataclass(frozen=True)
class Query:
    m: float
    p: tuple[float, float, float]
    c1: complex
    c2: complex
    x: tuple[float, float, float, float]
    h: float


class PointQueries(Workload):
    """Independent scalar requests through the public API.

    Mass is log-uniform in [0.1, 10] and |p|/m log-uniform in [1e-3, 1e4],
    so the stream includes the extreme boosts at which the library fails
    today; failures are kept, counted and classified, not filtered out.
    """

    name = "point-queries"
    items = "queries"
    op_rate = 1300.0

    def __init__(self, seed, gammas, workdir):
        super().__init__(seed, gammas, workdir)
        self.sample_output = None

    def next_input(self) -> Query:
        r = self.stream
        m = float(10 ** r.uniform(-1.0, 1.0))
        k = m * float(10 ** r.uniform(-3.0, 4.0))
        d = r.normal(size=3)
        d /= np.linalg.norm(d)
        p0 = math.sqrt(m * m + k * k)
        c = r.normal(size=4)
        return Query(
            m=m,
            p=tuple(float(v) for v in k * d),
            c1=complex(c[0], c[1]),
            c2=complex(c[2], c[3]),
            x=tuple(float(v) for v in r.uniform(-1.0, 1.0, 4) / p0),
            h=1e-3 / p0,
        )

    def warm_up(self) -> None:
        self.run_query(Query(1.0, (0.3, -0.2, 0.1), 1 + 0j, 1j, (0.1, 0.2, 0.3, 0.4), 1e-3))

    @staticmethod
    def run_query(q: Query) -> dict:
        pt = ts.shell_point(q.m, *q.p)
        b1, b2 = ts.fiber_basis(pt)
        r1, r2 = ts.fiber_residual(pt, b1), ts.fiber_residual(pt, b2)
        lam = ts.lorentz_of(ts.boost_rep(pt))
        psi = ts.FourSpinor.from_vec(q.c1 * b1.vec + q.c2 * b2.vec)
        back = ts.beta(ts.beta_inv(ts.FiberElement(pt, psi)))
        pw = ts.planewave_residual(pt, psi, q.x, q.h)
        return {
            "p": pt.p.coords, "basis": (b1.vec, b2.vec), "basis_residuals": (r1, r2),
            "lorentz": lam.mat, "psi": psi.vec,
            "round_trip_p": back.q.p.coords, "round_trip_psi": back.psi.vec,
            "planewave": pw,
        }

    def run(self, q: Query):
        t0 = time.perf_counter()
        try:
            out = self.run_query(q)
        except Exception as exc:  # classified below; anything unexpected fails the run
            dt = time.perf_counter() - t0
            key = classify(exc)
            if key[3] == "unexpected":
                self.problems.append(f"unexpected {type(exc).__name__}: {exc}")
            return dt, False, key
        dt = time.perf_counter() - t0
        problems = oracle.query_problems(q, out, self.G)
        self.problems += [f"query {q}: {p}" for p in problems]
        if not problems and self.sample_output is None:
            self.sample_output = (q, out)
        return dt, not problems, None

    def controls(self) -> list[str]:
        found = _common_controls(self)
        if self.sample_output is None:
            return found + ["no successful query to corrupt"]
        q, out = self.sample_output
        bad = dict(out, round_trip_psi=out["round_trip_psi"] * (1 + 1e-6))
        if not oracle.query_problems(q, bad, self.G):
            found.append("query oracle accepted a perturbed round trip")
        return found


TYPED_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, ValueError)
)


def classify(exc: BaseException) -> tuple[str, str, str, str]:
    """(API entry, raising function, exception type, kind) of a failed query.

    The entry is the outermost frame inside the twospinors package and the
    raising function the innermost; kind is "typed" for the errors defined
    in twospinors.errors, "bare" for a plain ValueError, and "unexpected"
    for anything else.
    """
    frames = []
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("twospinors."):
            code = tb.tb_frame.f_code
            frames.append(mod[len("twospinors."):] + "." + getattr(code, "co_qualname", code.co_name))
        tb = tb.tb_next
    if not frames or not isinstance(exc, ValueError):
        kind = "unexpected"
    elif type(exc) is ValueError:
        kind = "bare"
    elif isinstance(exc, TYPED_ERRORS):
        kind = "typed"
    else:
        kind = "unexpected"
    entry, raiser = (frames[0], frames[-1]) if frames else ("?", "?")
    return entry, raiser, type(exc).__name__, kind


def _common_controls(w: Workload) -> list[str]:
    """Run verify with a corrupted gamma entry and feed the field oracle a
    record with one digit changed; both must be rejected."""
    found = []
    mu, i, j = (int(v) for v in w.rng.integers(0, 4, 3))
    _, code, text = _run_cli([
        "verify", "--samples", "1", "--seed", str(w.seed),
        "--corrupt-gamma", f"{mu},{i},{j}", "--format", "json",
    ])
    if code != 1 or json.loads(text).get("passed") is not False:
        found.append(f"verify with a corrupted gamma table exited {code}")
    path = w.workdir / f"control-{os.getpid()}.ndjson"
    try:
        _, code, _ = _run_cli(["sample-field", "-m", "1.5", "--grid", "2:-1:2", "--out", str(path), "--format", "json"])
        lines = path.read_text(encoding="utf-8").splitlines()
    finally:
        path.unlink(missing_ok=True)
    if code != 0 or oracle.field_problems(lines, w.G, 2):
        found.append("field oracle rejected an untouched grid")
    lines[1] = oracle.corrupt_one_digit(lines[1])
    if not oracle.field_problems(lines, w.G, 2):
        found.append("field oracle accepted a record with one digit changed")
    return found


WORKLOADS = {w.name: w for w in (VerifySweep, FieldGrid, PointQueries)}


def measure(w: Workload, seconds: float) -> Measurement:
    """Closed loop over a fixed list of seeded operations, keeping each one's
    best time.

    The list holds w.operations(seconds) operations, a number that depends
    only on the workload and on seconds, so a seed always gives the same
    operations and the same refusals.  The first pass runs the list in
    order; each later pass runs it in a fresh seeded shuffle, until seconds
    of wall time have passed.  After each pass, for TAIL_SHARE of that
    pass's time, rounds re-run the slowest twentieth of the successful
    operations, re-chosen each round, so that an operation unlucky in every
    pass gets more chances, spread over the whole run.  Where
    w.run times an operation in segments (field-grid), each segment keeps
    its own best time and the operation's time is their sum.

    On a shared host, interference slows every call by up to 2x, in bursts
    from a second to minutes long.  The best time over passes seconds apart
    keeps those bursts from deciding the median, the shuffle keeps a
    periodic disturbance (another tenant's job, a garbage collection) from
    landing on the same operations in every pass, and the tail rounds keep
    them from deciding the 99th percentile.  Refusals are counted once,
    from the first pass, and every run of an operation is checked by the
    oracle.
    """
    w.rewind()
    inputs = [w.next_input() for _ in range(w.operations(seconds))]
    order = np.random.default_rng([w.seed, 2])
    best, ok = [], bytearray()
    m = Measurement()
    start = time.perf_counter()

    def rerun(indices: list[int], until: float) -> None:
        for k, i in enumerate(order.permutation(indices).tolist()):
            if k and time.perf_counter() - start >= until:
                return
            dt, good, _ = w.run(inputs[i])
            m.total_s += float(np.sum(dt))
            if np.shape(dt) != np.shape(best[i]):
                w.problems.append(f"operation {i} was split into a different number of segments")
            else:
                best[i] = np.minimum(best[i], dt)
            if good != ok[i]:
                w.problems.append(f"operation {i} changed outcome between passes")

    for x in inputs:
        dt, good, failure = w.run(x)
        m.total_s += float(np.sum(dt))
        best.append(dt)
        ok.append(good)
        if failure is not None:
            w.failures[failure] += 1
    m.passes = 1
    succeeded = [i for i in range(len(inputs)) if ok[i]]
    pass_start = start
    while True:
        now = time.perf_counter()
        tail_until = min(seconds, now - start + TAIL_SHARE * (now - pass_start))
        while succeeded and now - start < tail_until:
            succeeded.sort(key=lambda i: float(np.sum(best[i])))
            rerun(succeeded[-max(1, len(succeeded) // 20):], tail_until)
            now = time.perf_counter()
        if now - start >= seconds:
            break
        m.passes += 1
        pass_start = now
        rerun(list(range(len(inputs))), seconds)
    for dt, good in zip(best, ok):
        m.record(float(np.sum(dt)), w.per_op, bool(good))
    return m


def captured_gammas() -> np.ndarray:
    """Warm the lazy tables and capture the gamma matrices for the oracle."""
    ts.world_basis()
    G = np.array([ts.gamma(mu) for mu in range(4)])
    problems = oracle.gamma_table_problems(G)
    if problems:
        sys.exit("; ".join(problems))
    return G
