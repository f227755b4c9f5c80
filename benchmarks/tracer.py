"""Per-layer tracing from outside the program.

Each traced callable of ``twospinors`` is replaced, in every module namespace
that binds it (so both ``bitensor.lorentz_of`` and the ``from .bitensor
import lorentz_of`` copy in ``verify`` are seen), by a wrapper that opens a
span around the call.  Spans nest through a stack of child-time
accumulators; a span's self time is its duration minus the time covered by
the spans it opened.  Only per-name aggregates are kept in memory, so the
cost of a run does not grow with its length.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute) of every traced callable; the metric prefix is
# "<module>.<attribute>".  Classes are traced through their constructor.
TRACED = (
    ("bitensor", "lorentz_of"),
    ("bitensor", "to_minkowski"),
    ("bitensor", "pi_act"),
    ("bitensor", "from_minkowski"),
    ("bitensor", "h_form"),
    ("momentum", "shell_point"),
    ("momentum", "boost_rep"),
    ("momentum", "act_momentum"),
    ("clifford", "tau"),
    ("clifford", "slash"),
    ("clifford", "phi"),
    ("clifford", "FourSpinor.from_vec"),
    ("bundle", "fiber_residual"),
    ("bundle", "fiber_basis"),
    ("bundle", "beta"),
    ("bundle", "beta_inv"),
    ("bundle", "split_conjugate_pair"),
    ("spinor", "SL2Element"),
    ("spinor", "eps"),
    ("sampling", "random_sl2"),
    ("sampling", "random_su2"),
    ("sampling", "random_fiber_element"),
    ("planewave", "planewave_residual"),
    ("cli", "main"),
    ("cli", "_jdump"),
    ("cli", "field_records"),
)

# Layers whose raised exceptions are counted as "<name>.failed".
FAILURE_COUNTED = ("momentum.shell_point", "bundle.fiber_basis", "bitensor.lorentz_of")

CHECK_PREFIX = "_check_"


class _Stat:
    __slots__ = ("calls", "total_s", "child_s", "failed", "bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        self.failed = 0
        self.bytes = 0


class Tracer:
    """Installs span wrappers into the loaded ``twospinors`` modules.

    Use as a context manager; leaving it restores every original binding.
    """

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.top_s = 0.0  # time covered by spans with no traced parent
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _close(self, stat: _Stat, t0: float) -> None:
        dt = time.perf_counter() - t0
        stat.calls += 1
        stat.total_s += dt
        stat.child_s += self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        else:
            self.top_s += dt

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack, close, clock = self._stack, self._close, time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.failed += 1
                raise
            finally:
                close(stat, t0)

        return span

    def _wrap_jdump(self, name: str, fn):
        # _jdump recurses through its module global; only the outermost call
        # is a span, and it also counts the bytes it produced.
        stat = self.stats.setdefault(name, _Stat())
        timed = self._wrap(name, fn)
        inside = [False]

        def span(obj):
            if inside[0]:
                return fn(obj)
            inside[0] = True
            try:
                out = timed(obj)
            finally:
                inside[0] = False
            stat.bytes += len(out)
            return out

        return span

    def _wrap_records(self, name: str, fn):
        # field_records returns (header, generator); the records are built
        # lazily, so each generator step is one span.
        stat = self.stats.setdefault(name, _Stat())
        stack, close, clock = self._stack, self._close, time.perf_counter

        def steps(records):
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    rec = next(records)
                except StopIteration:
                    stack.pop()
                    return
                except Exception:
                    stat.failed += 1
                    close(stat, t0)
                    raise
                close(stat, t0)
                yield rec

        def call(*args, **kwargs):
            header, records = fn(*args, **kwargs)
            return header, steps(records)

        return call

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` wherever a twospinors module binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "twospinors" or modname.startswith("twospinors.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        for modname, attr in TRACED:
            mod = importlib.import_module("twospinors." + modname)
            name = f"{modname}.{attr}"
            if "." in attr:  # classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, classmethod(self._wrap(name, original.__func__)))
            elif isinstance(getattr(mod, attr), type):  # constructor
                cls = getattr(mod, attr)
                original = cls.__dict__["__init__"]
                self._undo.append((cls, "__init__", original))
                cls.__init__ = self._wrap(name, original)
            elif attr == "_jdump":
                self._rebind(getattr(mod, attr), self._wrap_jdump(name, getattr(mod, attr)))
            elif attr == "field_records":
                self._rebind(getattr(mod, attr), self._wrap_records(name, getattr(mod, attr)))
            else:
                self._rebind(getattr(mod, attr), self._wrap(name, getattr(mod, attr)))
        verify = sys.modules["twospinors.verify"]
        for attr, value in list(vars(verify).items()):
            if attr.startswith(CHECK_PREFIX) and callable(value):
                name = "verify.check." + attr[len(CHECK_PREFIX):]
                self._undo.append((verify, attr, value))
                setattr(verify, attr, self._wrap(name, value))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-name and per-module metrics as {name: (value, unit)}.

        ``us_per_call`` is the inclusive span time per call; ``self_s`` is
        the total span time not covered by traced children.
        """
        out: dict[str, tuple[float, str]] = {}
        modules: dict[str, float] = {}
        for name, st in sorted(self.stats.items()):
            self_s = st.total_s - st.child_s
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.us_per_call"] = (1e6 * st.total_s / st.calls if st.calls else 0.0, "us")
            if name in FAILURE_COUNTED:
                out[f"{name}.failed"] = (st.failed, "count")
            if name == "cli._jdump":
                out[f"{name}.bytes"] = (st.bytes, "bytes")
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + self_s
        for module, self_s in sorted(modules.items()):
            out[f"{module}.self_s"] = (self_s, "s")
        return out
