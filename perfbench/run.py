"""Benchmark runner for the bielliptic engine (standard library only).

    python3 perfbench/run.py --workload classify-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Load is one process and one thread in a closed loop: passes run one after
another until the next one would end after `--seconds` (at least one pass).
Every pass's output is checked against the pins in `perfbench/expected/`.

With `--trace 0` the metrics are end to end: median pass time and items per
second at the reference host speed (see speed.py), peak resident memory and
set-up time; the raw wall-clock figures are printed as `#` lines.  With
`--trace 1` the same passes run untraced, then one more pass runs with every
public function of the package wrapped (see tracer.py); the metrics are that
pass's per-layer counts and times, and the spans are written to
`perfbench/out/`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A state guard that fails (a cold pass that
does not start cold, a warm pass that builds) ends the run with exit code 1
and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler
from tracer import Tracer
from workloads import WORKLOADS, GuardError, cached_levels

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 21
# Times the import and the table parse, then samples the host speed right
# after (speed.py is imported only then, so it adds nothing to the import).
SETUP_CODE = """\
import time
start = time.perf_counter()
from bielliptic import atlas, cli
atlas.default_ec_table()
atlas.default_adjudications()
elapsed = time.perf_counter() - start
from speed import SpeedSampler, kernel
kernel()  # the first call pays for warming up the interpreter
sampler = SpeedSampler()
for _ in range(10):
    sampler.sample()
print(elapsed, sampler.factor)
"""

ORDER_VIOLATION_RULES = (
    "two-part-rotation", "v3-tail-2-mod-3", "s2-v3-mix",
    "v2-even-tail-needs-alpha-3", "runaway-closure",
)
RULE_IDS = (
    "castelnuovo", "many-fixed-points", "unramified-cover", "two-group",
    "ogg-bound", "fixed-point-closure", "modular-degree",
)
STATUSES = ("bielliptic-confirmed", "excluded", "adjudicated", "inconclusive",
            "genus-too-small")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
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
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, host speed factor) of fresh interpreters importing the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, factor = proc.stdout.split()
        samples.append((float(elapsed), float(factor)))
    return samples


def sampled(step):
    """Run one pass (or set-up step) with the host speed sampled around it."""
    with SpeedSampler() as speed:
        result = step()
    if result is not None:
        result.speed = speed.factor
    return result


def timed_passes(workload, seconds: float) -> list:
    """Closed loop: start a pass only if a typical one ends within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(sampled(workload.run_pass))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def end_to_end_metrics(passes, setups, fill_ref_s) -> dict:
    """Pass times at the reference host speed (speed.py), memory, set-up."""
    return {
        "ref_wall_s": (statistics.median(p.wall_s / p.speed for p in passes), "s"),
        "ref_items_per_s": (
            statistics.median(p.items * p.speed / p.wall_s for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(t / f for t, f in setups) + fill_ref_s, "s"),
    }


def raw_metrics(passes, setups, fill_s) -> dict:
    """The same, as the wall clock read them."""
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "items_per_s": (statistics.median(p.items / p.wall_s for p in passes), "1/s"),
        "speed_factor": (statistics.median(p.speed for p in passes), "ratio"),
        "import_s": (statistics.median(t for t, _ in setups) if setups else 0.0, "s"),
        "fill_s": (fill_s, "s"),
    }


def layer_metrics(tracer, workload, traced) -> dict:
    from bielliptic.ntheory import psi

    calls, total, self_s, ev = tracer.calls, tracer.total_s, tracer.self_s, tracer.events
    trace_calls = calls("modsym.trace")
    misses = ev["modsym.trace.misses"]
    closures = calls("involutions.group_closure")
    rules = [name for name in tracer.functions() if name.startswith("screening.rule_")]
    m = {
        "modsym.build.calls": (calls("modsym.build"), "count"),
        "modsym.build.s": (total("modsym.build"), "s"),
        "modsym.build.psi_sum": (
            sum(psi(N) * row["builds"] for N, row in tracer.levels.items()), "count"),
        "modsym.cache.levels": (cached_levels(), "count"),
        "modsym.trace.calls": (trace_calls, "count"),
        "modsym.trace.misses": (misses, "count"),
        "modsym.trace.s": (total("modsym.trace"), "s"),
        "modsym.trace.hit_ratio": (
            (trace_calls - misses) / trace_calls if trace_calls else 0.0, "ratio"),
        "modsym.p1_index.calls": (calls("modsym.p1_index"), "count"),
        "modsym.p1_index.s": (total("modsym.p1_index"), "s"),
        "modsym.invariant_genus.calls": (calls("modsym.invariant_genus"), "count"),
        "modsym.invariant_genus.self_s": (self_s("modsym.invariant_genus"), "s"),
        "involutions.group_closure.calls": (closures, "count"),
        "involutions.group_closure.s": (total("involutions.group_closure"), "s"),
        "involutions.group_closure.accept_ratio": (
            ev["involutions.group_closure.accepted"] / closures if closures else 0.0,
            "ratio"),
    }
    for rule in ORDER_VIOLATION_RULES:
        m[f"involutions.order_violation.{rule}"] = (
            ev[f"involutions.order_violation.{rule}"], "count")
    m.update({
        "involutions.compose.calls": (calls("involutions.compose"), "count"),
        "involutions.hurwitz.calls": (calls("involutions.quotient_genus_hurwitz"), "count"),
        "involutions.hurwitz.s": (total("involutions.quotient_genus_hurwitz"), "s"),
        "involutions.fix_count.calls": (calls("involutions.fix_count"), "count"),
        "ntheory.all_subgroups.calls": (calls("ntheory.all_subgroups"), "count"),
        "ntheory.all_subgroups.s": (total("ntheory.all_subgroups"), "s"),
        "ntheory.alsubgroup.constructs": (calls("ntheory.alsubgroup"), "count"),
        "ntheory.factor.calls": (calls("ntheory.factor"), "count"),
        "x0invariants.genus_x0.calls": (calls("x0invariants.genus_x0"), "count"),
        "x0invariants.genus_x0.s": (total("x0invariants.genus_x0"), "s"),
        "screening.rule.calls": (sum(calls(name) for name in rules), "count"),
    })
    for rule in RULE_IDS:
        m[f"screening.rule.{rule}.excludes"] = (ev[f"screening.rule.{rule}.excludes"], "count")
    m.update({
        "screening.star_gate.calls": (calls("screening.star_gate"), "count"),
        "screening.iso_reduce_w4.calls": (calls("screening.iso_reduce_w4"), "count"),
        "atlas.classify_pair.calls": (calls("atlas.classify_pair"), "count"),
        "atlas.classify_pair.self_s": (self_s("atlas.classify_pair"), "s"),
        "atlas.enumerate_pairs.s": (total("atlas.enumerate_pairs"), "s"),
        "atlas.emit_report.s": (total("atlas.emit_report"), "s"),
    })
    for status in STATUSES:
        m[f"atlas.status.{status}"] = (ev[f"atlas.status.{status}"], "count")
    m.update({
        "atlas.ingest.s": (
            total("atlas.ingest_ec_table") + total("atlas.ingest_adjudications"), "s"),
        "cli.main.s": (total("cli.main"), "s"),
        "runtime.gc.pause_s": (tracer.gc_pause_s, "s"),
        "runtime.gc.collections": (tracer.gc_collections, "count"),
        "trace.overhead_s": (tracer.overhead_s(), "s"),
        "trace.speed_factor": (traced.speed, "ratio"),
    })
    # the psi-scaling rows of genus-large: one level per omega class
    levels = getattr(workload, "levels", [])
    for omega, N in zip((2, 3, 4), levels + [None] * 3):
        row = tracer.levels.get(N, {"builds": 0, "build_s": 0.0, "trace_s": 0.0})
        m[f"genus.omega{omega}.psi"] = (psi(N) if N else 0, "count")
        m[f"genus.omega{omega}.build_s"] = (row["build_s"], "s")
        m[f"genus.omega{omega}.trace_s"] = (row["trace_s"], "s")
    return m


def traced_pass(workload):
    tracer = Tracer()
    tracer.install()
    try:
        traced = sampled(lambda: workload.run_pass(tracer))
    finally:
        tracer.uninstall()
    return traced, tracer


def write_json(path: Path, payload) -> None:
    OUT.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bielliptic" / "__init__.py").is_file():
        print(f"error: no bielliptic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    setups = [] if args.trace else measure_setup()
    try:
        workload = WORKLOADS[args.workload](args.seed)
        fill_start = time.perf_counter()
        prepared = sampled(workload.prepare)
        fill_s = time.perf_counter() - fill_start
        fill_ref_s = fill_s / prepared.speed if prepared else fill_s
        passes = timed_passes(workload, args.seconds)
        checked = passes + ([prepared] if prepared else [])
        if args.trace:
            traced, tracer = traced_pass(workload)
            checked.append(traced)
            metrics = layer_metrics(tracer, workload, traced)
        else:
            metrics = end_to_end_metrics(passes, setups, fill_ref_s)
        raw = raw_metrics(passes, setups, fill_s)
    except GuardError as exc:
        print(f"error: state guard failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p.items for p in checked)
    failed = sum(min(len(p.failures), p.items) for p in checked)
    for p in checked:
        for failure in p.failures[:10]:
            print(f"check failed: {failure}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        from bielliptic.ntheory import psi

        write_json(OUT / f"{stem}-spans.json", {
            "env": env,
            "functions": tracer.functions(),
            "levels": [
                {"level": N, "psi": psi(N), **row} for N, row in sorted(tracer.levels.items())
            ],
            "spans": tracer.spans,
        })
    write_json(OUT / f"{stem}-trace{args.trace}.json", {
        "env": env,
        "levels": getattr(workload, "levels", None),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_speed": [p.speed for p in passes],
        "setup_samples_s": setups,
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })

    print(f"# passes {len(passes)}, failed_frac {failed / attempted} ({failed}/{attempted})")
    for name, (value, unit) in {**raw, **metrics}.items():
        print(f"# {name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
