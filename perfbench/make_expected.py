"""Write the pinned outputs the benchmark checks every pass against.

    python3 perfbench/make_expected.py

writes `perfbench/expected/classify.jsonl` (one record of `classify --format
json` per line) and `perfbench/expected/genus_pool.json` (the genus of every
subgroup at every genus-large pool level) from the source tree beside it.
The pins were made once, before any optimisation; run this again only for a
change whose output change is intended and explained.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bielliptic import cli, modsym  # noqa: E402
from bielliptic.ntheory import all_subgroups  # noqa: E402
from workloads import EXPECTED, GENUS_POOL, load_pinned_records  # noqa: E402


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(["classify", "--format", "json"]) != 0:
            raise SystemExit("classify failed")
    with open(EXPECTED / "classify.jsonl", "w") as fh:
        for rec in json.loads(out.getvalue()):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    load_pinned_records()  # the pinned records must rebuild the pinned bytes

    pool = {}
    for N in sorted(n for levels in GENUS_POOL.values() for n in levels):
        modsym.clear_cache()
        pool[str(N)] = {sub.label(): modsym.invariant_genus(N, sub) for sub in all_subgroups(N)}
        print(f"level {N}: {len(pool[str(N)])} genus values", file=sys.stderr)
    with open(EXPECTED / "genus_pool.json", "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
