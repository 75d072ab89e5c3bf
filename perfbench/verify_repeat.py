"""Check that the benchmark's counts repeat and its output ignores hash seeds.

    python3 perfbench/verify_repeat.py

1. For each workload, run `run.py --trace 1` twice with seed 1 in fresh
   interpreters, under PYTHONHASHSEED=0 and PYTHONHASHSEED=1, and require
   every per-layer count and count ratio to be identical (garbage-collector
   collections excepted: they follow allocation, not the algorithm).
2. Run `classify --format json` in two fresh interpreters under the same two
   hash seeds and require both reports to have the pinned sha256.

Prints one line per check and exits 0 only if every check passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from run import ROOT, SRC
from workloads import REPORT_SHA256, WORKLOADS

HERE = Path(__file__).resolve().parent
HASH_SEEDS = ("0", "1")
SEED = 1
NOT_REPEATED = {"runtime.gc.collections"}
CLASSIFY = (
    "import sys\n"
    "from bielliptic import cli\n"
    "sys.exit(cli.main(['classify', '--format', 'json']))\n"
)


def _env(hash_seed: str) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)


def traced_counts(workload: str, hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        env=_env(hash_seed), cwd=ROOT, capture_output=True, text=True,
        timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its output checks")
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if (m["unit"] == "count" or name.endswith("_ratio")) and name not in NOT_REPEATED
    }


def classify_sha256(hash_seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", CLASSIFY], env=_env(hash_seed), cwd=ROOT,
        capture_output=True, timeout=600, check=True,
    )
    return hashlib.sha256(proc.stdout).hexdigest()


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_counts(workload, h) for h in HASH_SEEDS)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        ok &= not diff
        verdict = "identical" if not diff else "DIFFER: " + ", ".join(
            f"{k} {first.get(k)} vs {second.get(k)}" for k in diff)
        print(f"{workload} seed {SEED}: {len(first)} counters {verdict}")
    for hash_seed in HASH_SEEDS:
        digest = classify_sha256(hash_seed)
        ok &= digest == REPORT_SHA256
        print(f"classify sha256 under PYTHONHASHSEED={hash_seed}: {digest}"
              f" ({'pinned' if digest == REPORT_SHA256 else 'NOT the pinned hash'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
