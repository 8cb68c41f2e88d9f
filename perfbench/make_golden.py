#!/usr/bin/env python3
"""Record golden checksums: one untraced round per workload and input seed.

    python3 perfbench/make_golden.py --workload toy-campaign --seeds 0-31,7919 --out perfbench/golden.json

Merges into ``--out`` when it exists. Run only at a commit whose results are
known good: a change that alters any result must fail the benchmark, not
regenerate its checksums.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 0-31,7919")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    run.pin_environment()
    run.import_program()
    from workloads import WORKLOADS, output_digests, setup

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"checksums": {}}
    doc.update(pool=run.POOL, held_out_seed=run.HELD_OUT_SEED)
    work = run.STATE_DIR / f"golden-{os.getpid()}"
    try:
        for name in args.workload:
            wl = WORKLOADS[name]
            for seed in parse_seeds(args.seeds):
                inp, _times = setup(wl, seed, str(work / "setup"))
                rnd = run.run_round(wl, inp, str(work / "round"), None)
                if rnd["failures"]:
                    print(f"{name} seed {seed}: {rnd['failures']}", file=sys.stderr)
                    return 1
                digests = dict(rnd["digests"], **output_digests(wl, inp))
                doc["checksums"].setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {rnd['campaign_s']:.2f} s", file=sys.stderr)
                out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
