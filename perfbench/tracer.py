"""Per-layer tracing for the benchmark, applied from outside the package.

`Tracer.install()` wraps every public function of the traced modules, at
every module that imported it by name, plus the few methods that carry the
modular-symbols work (space build, trace, P^1 lookup) and the Atkin-Lehner
subgroup constructor.  `Tracer.uninstall()` puts the originals back.

Each wrapped call pushes a frame; when it returns, its duration minus the
time its wrapped children covered is its self time.  Calls are kept as spans
(id, name, start, end, parent id) in memory, except for the high-frequency
leaf functions in AGGREGATE_ONLY, which only add to their per-name counts and
times.  Counters that need the arguments or the result (trace-cache misses,
OrderViolation rule ids, rule verdicts, record statuses) are taken in hooks.
Garbage-collector pauses come from `gc.callbacks`.  `overhead_s()` estimates
the time the wrappers themselves added, from the number of wrapped calls and
the measured cost of wrapping a no-op.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
from collections import Counter

PACKAGE = "bielliptic"
TRACED_MODULES = (
    "ntheory", "x0invariants", "modsym", "involutions", "screening", "atlas", "cli",
)

# Leaf calls made hundreds of thousands of times per pass: counted and timed,
# but not kept as one span each.
AGGREGATE_ONLY = frozenset({
    "ntheory.egcd", "ntheory.hall_product", "ntheory.factor", "ntheory.euler_phi",
    "ntheory.kronecker", "ntheory.psi", "ntheory.hall_divisors", "ntheory.alsubgroup",
    "modsym.p1_index", "modsym.cusp_equiv", "modsym.symbols_from_infinity",
    "modsym.path_vector", "involutions.compose", "x0invariants.cusp_count",
    "x0invariants.nu2", "x0invariants.nu3",
})

# no-op calls per batch when timing the wrapper itself
CALIBRATION_CALLS = 20000

# verdicts with which a screening rule rules a pair out
EXCLUDING = frozenset({"excludes", "must-factor"})


class Tracer:
    def __init__(self):
        self._stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, depth]
        self.events: Counter = Counter()
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.levels: dict[int, dict] = {}  # level -> builds, build_s, trace_s
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack: list[list] = []  # [child seconds, span id of nearest kept span]
        self._next_id = 1
        self._t0 = 0.0
        self._gc_start = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED_MODULES}
        sites = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{m}")
            for m in ("errors", "_data") + TRACED_MODULES
        ]
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for site in sites:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, site_attr, wrapped)
        space = modules["modsym"].ModSymSpace
        self._patch(space, "__init__", self._wrap("modsym.build", space.__init__))
        self._patch(space, "al_trace_cuspidal",
                    self._wrap("modsym.trace", space.al_trace_cuspidal))
        self._patch(space, "p1_index", self._wrap("modsym.p1_index", space.p1_index))
        subgroup = modules["ntheory"].ALSubgroup
        self._patch(subgroup, "__init__",
                    self._wrap("ntheory.alsubgroup", subgroup.__init__))
        gc.callbacks.append(self._on_gc)
        self._t0 = time.perf_counter()

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- the wrapper -----------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        perf = time.perf_counter
        stack = self._stack
        stat = self._stats.setdefault(name, [0, 0.0, 0.0, 0])
        keep_span = name not in AGGREGATE_ONLY
        before = _BEFORE.get(name)
        after = _after_hook(name)

        def traced(*args, **kwargs):
            parent_span = stack[-1][1] if stack else 0
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent_span
            frame = [0.0, span_id]
            stack.append(frame)
            stat[3] += 1
            note = before(args) if before else None
            outcome = None
            start = perf()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[2] += dur - frame[0]
                stat[3] -= 1
                if not stat[3]:  # recursive calls count once in the total
                    stat[1] += dur
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    tracer.spans.append(
                        (span_id, name, start - tracer._t0, end - tracer._t0, parent_span)
                    )
                if after:
                    after(tracer, args, outcome, note, dur)

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self._stats.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        return self._stats.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self._stats.get(name, (0, 0.0, 0.0))[2]

    def overhead_s(self) -> float:
        """Time the wrappers added to the pass: the calls made through them
        times the cost of one wrapped call (hooks excepted)."""
        kept = aggregated = 0
        for name, (calls, *_) in self._stats.items():
            if name in AGGREGATE_ONLY:
                aggregated += calls
            else:
                kept += calls
        return kept * wrapper_cost_s("calibrate") + aggregated * wrapper_cost_s("ntheory.psi")

    def functions(self) -> dict:
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_time}
            for name, (calls, total, self_time, _) in sorted(self._stats.items())
            if calls
        }


def wrapper_cost_s(name: str) -> float:
    """Seconds a wrapper under `name` adds to one call of a no-op: the
    fastest of five batches, so other load on the host counts least."""
    def noop():
        return None

    wrapped = Tracer()._wrap(name, noop)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        middle = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        best = min(best, (middle - start) - (time.perf_counter() - middle))
    return best / CALIBRATION_CALLS


# -- hooks -------------------------------------------------------------------


def _trace_is_miss(args) -> bool:
    space, Q = args[0], args[1]
    return Q != 1 and Q not in space._trace_cache


_BEFORE = {"modsym.trace": _trace_is_miss}


def _after_build(tracer, args, outcome, note, dur):
    if isinstance(outcome, BaseException):
        return
    row = tracer.levels.setdefault(args[1], {"builds": 0, "build_s": 0.0, "trace_s": 0.0})
    row["builds"] += 1
    row["build_s"] += dur


def _after_trace(tracer, args, outcome, note, dur):
    if note:
        tracer.events["modsym.trace.misses"] += 1
        row = tracer.levels.get(args[0].N)
        if row is not None:
            row["trace_s"] += dur


def _after_closure(tracer, args, outcome, note, dur):
    if isinstance(outcome, BaseException):
        rule = getattr(outcome, "rule", None)
        if rule is not None:
            tracer.events[f"involutions.order_violation.{rule}"] += 1
    else:
        tracer.events["involutions.group_closure.accepted"] += 1


def _after_rule(tracer, args, outcome, note, dur):
    if not isinstance(outcome, BaseException) and outcome.verdict in EXCLUDING:
        tracer.events[f"screening.rule.{outcome.rule_id}.excludes"] += 1


def _after_classify_pair(tracer, args, outcome, note, dur):
    if not isinstance(outcome, BaseException):
        tracer.events[f"atlas.status.{outcome.status}"] += 1


def _after_hook(name: str):
    if name == "modsym.build":
        return _after_build
    if name == "modsym.trace":
        return _after_trace
    if name == "involutions.group_closure":
        return _after_closure
    if name.startswith("screening.rule_"):
        return _after_rule
    if name == "atlas.classify_pair":
        return _after_classify_pair
    return None
