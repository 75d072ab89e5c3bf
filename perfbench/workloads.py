"""The benchmark's workloads: one pass each, with its output checks and state guards.

A pass is one unit of closed-loop work: one whole `bielliptic classify
--format json` for the classify workloads, one cold set of genus values for
genus-large.  `run_pass` returns the pass's wall time and how many of its
operations failed; a state guard that does not hold raises GuardError, which
ends the run instead of measuring the wrong program.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

# `classify --format json` at the seed commit
REPORT_SHA256 = "1371addcd21c7983d543133e6a463f5366703078089afe05e3c68930b5e9b0b0"
REPORT_BYTES = 200580
COLD_LEVELS = 115

# genus-large draws one level per omega class.  The levels of a class are
# non-squarefree, outside the level gate, and their build plus trace times
# agree within a few percent, so every seed asks for about the same work.
# omega = 4 keeps only 840: the other level at psi = 2304, 924, runs about 6%
# faster at the reference speed.
GENUS_POOL = {
    2: (1000, 1088),
    3: (720, 756, 792),
    4: (840,),
}

ATLAS_LAZY_GLOBALS = ("_HYPER_KEYS", "_WITNESS_DATA", "_PUBLISHED_KEYS")


class GuardError(RuntimeError):
    """The program is not in the state the workload is meant to measure."""


@dataclass
class PassResult:
    wall_s: float
    items: int
    failures: list[str] = field(default_factory=list)
    speed: float = 1.0  # host slowdown factor while the pass ran (speed.py)


def _pkg(name: str):
    return importlib.import_module(f"bielliptic.{name}")


def reset_cold() -> None:
    """Empty the modular-symbols cache and the atlas lazy tables."""
    _pkg("modsym").clear_cache()
    atlas = _pkg("atlas")
    for name in ATLAS_LAZY_GLOBALS:
        setattr(atlas, name, None)


def cached_levels() -> int:
    return len(_pkg("modsym")._CACHE)


def cached_traces() -> int:
    return sum(len(space._trace_cache) for space in _pkg("modsym")._CACHE.values())


def _record_key(rec: dict) -> str:
    return f"({rec['level']},{rec['subgroup']})"


def load_pinned_records() -> list[dict]:
    with open(EXPECTED / "classify.jsonl") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    blob = json.dumps(records, indent=2, sort_keys=True).encode()
    if hashlib.sha256(blob).hexdigest() != REPORT_SHA256 or len(blob) != REPORT_BYTES:
        raise GuardError("expected/classify.jsonl does not rebuild the pinned report")
    return records


def check_report(text: str, pinned: list[dict]) -> list[str]:
    """Names of the pairs whose record differs from the pinned copy."""
    try:
        got = {_record_key(r): r for r in json.loads(text)}
    except (ValueError, TypeError, KeyError):
        return ["report is not a JSON list of records"]
    want = {_record_key(r): r for r in pinned}
    failures = [f"{key}: record differs" for key in want if got.get(key) != want[key]]
    failures += [f"{key}: unexpected record" for key in got if key not in want]
    blob = text.encode()
    if not failures and (
        hashlib.sha256(blob).hexdigest() != REPORT_SHA256 or len(blob) != REPORT_BYTES
    ):
        failures.append("report bytes differ from the pinned sha256")
    return failures


class ClassifyCold:
    """The real user path: `classify --format json` from empty caches."""

    name = "classify-cold"

    def __init__(self, seed: int):  # the whole classification is the input: no seed
        self.pinned = load_pinned_records()
        self.items = len(self.pinned)

    def prepare(self) -> PassResult | None:
        """Work that belongs to set-up; its output is checked like a pass."""
        return None

    def _classify(self) -> PassResult:
        cli = _pkg("cli")
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["classify", "--format", "json"])
        except Exception as exc:  # a broken program fails every pair of the pass
            wall = time.perf_counter() - start
            return PassResult(wall, self.items, [f"classify raised {exc!r}"] * self.items)
        wall = time.perf_counter() - start
        failures = check_report(out.getvalue(), self.pinned)
        if code != 0:
            failures.append(f"classify exited {code}")
        return PassResult(wall, self.items, failures)

    def run_pass(self, tracer=None) -> PassResult:
        reset_cold()
        if cached_levels():
            raise GuardError("modsym cache not empty at the start of a cold pass")
        result = self._classify()
        built = cached_levels()
        if built != COLD_LEVELS:
            raise GuardError(f"cold classify built {built} levels, expected {COLD_LEVELS}")
        return result


class ClassifyWarm(ClassifyCold):
    """The same command once every space and trace is cached."""

    name = "classify-warm"

    def prepare(self) -> PassResult:
        return ClassifyCold.run_pass(self)

    def run_pass(self, tracer=None) -> PassResult:
        before = (cached_levels(), cached_traces())
        result = self._classify()
        if tracer:
            builds = tracer.calls("modsym.build")
            misses = tracer.events["modsym.trace.misses"]
        else:
            builds = cached_levels() - before[0]
            misses = cached_traces() - before[1]
        if builds or misses:
            raise GuardError(f"warm pass built {builds} levels and missed {misses} traces")
        return result


class GenusLarge:
    """Genus of X0(N)/W for every W at one large level per omega class, each
    level from an empty cache."""

    name = "genus-large"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ntheory = _pkg("ntheory")
        genus_x0 = _pkg("x0invariants").genus_x0
        with open(EXPECTED / "genus_pool.json") as fh:
            pinned = json.load(fh)
        # (level, subgroups in the seed's order, pinned genus of each, genus of X0(N))
        self.plan = []
        for omega in sorted(GENUS_POOL):
            N = rng.choice(GENUS_POOL[omega])
            subs = ntheory.all_subgroups(N)
            rng.shuffle(subs)
            want = [pinned[str(N)][sub.label()] for sub in subs]
            self.plan.append((N, subs, want, genus_x0(N)))
        self.levels = [N for N, *_ in self.plan]
        self.items = sum(len(subs) for _, subs, *_ in self.plan)

    def prepare(self) -> None:
        return None

    def run_pass(self, tracer=None) -> PassResult:
        modsym = _pkg("modsym")
        values = []
        wall = 0.0
        for N, subs, *_ in self.plan:
            reset_cold()  # each level starts cold, as a separate `genus` run would
            if cached_levels():
                raise GuardError("modsym cache not empty at the start of a cold level")
            start = time.perf_counter()
            for sub in subs:
                try:
                    values.append(modsym.invariant_genus(N, sub))
                except Exception as exc:  # counted as a failed genus value
                    values.append(exc)
            wall += time.perf_counter() - start
            if cached_levels() != 1:
                raise GuardError(f"level {N} built {cached_levels()} levels, expected 1")
        failures = []
        got = iter(values)
        for N, subs, want, g0 in self.plan:
            for sub, g in zip(subs, want):
                value = next(got)
                if value != g:
                    failures.append(f"genus({N}, {sub.label()}) = {value!r}, pinned {g}")
                elif sub.is_trivial and value != g0:
                    failures.append(f"genus({N}, 1) = {value} != genus_x0({N}) = {g0}")
        return PassResult(wall, self.items, failures)


WORKLOADS = {w.name: w for w in (ClassifyCold, ClassifyWarm, GenusLarge)}
