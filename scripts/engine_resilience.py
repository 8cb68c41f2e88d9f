#!/usr/bin/env python3
"""Paired accuracy-vs-BER sweep of the direct and Winograd engines.

Runs op-level injection campaigns with shared seeds on both engines of one
model and writes one CSV per engine plus a side-by-side table on stdout.

    python3 scripts/engine_resilience.py --out results/ --trials 100
"""

import argparse
import os
import sys

from winofi.analyze import Campaign, campaign_csv, sweep_ber
from winofi.modelio import builtin_model, generate_dataset, load_model

BERS = [0.0, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", help="model directory (default: builtin microcnn-int16)")
    ap.add_argument("--samples", type=int, default=8)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    model = load_model(args.model) if args.model else builtin_model("microcnn-int16")
    dataset = generate_dataset(model, args.samples, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)

    results = {}
    for engine in ("direct", "winograd"):
        print(f"sweeping {engine} ...", file=sys.stderr)
        res = sweep_ber(Campaign(model, dataset, engine, seed=args.seed), BERS, trials=args.trials)
        results[engine] = res
        path = os.path.join(args.out, f"resilience-{engine}.csv")
        with open(path, "w") as f:
            f.write(campaign_csv(res, meta={"engine": engine, "seed": args.seed, "model": model.name}))
        print(f"wrote {path}", file=sys.stderr)

    print(f"{'ber':>10} {'direct':>16} {'winograd':>16} {'gap':>7}")
    for i, ber in enumerate(BERS):
        d, w = results["direct"][i], results["winograd"][i]
        print(
            f"{ber:>10g} {d.mean_accuracy:>7.3f}+-{d.ci95_halfwidth:<6.3f}"
            f" {w.mean_accuracy:>7.3f}+-{w.ci95_halfwidth:<6.3f}"
            f" {w.mean_accuracy - d.mean_accuracy:>7.3f}"
        )


if __name__ == "__main__":
    main()
