#!/usr/bin/env python3
"""Selective-TMR cost study across protection granularities.

For each segment size, measures per-segment vulnerability, plans protection
to a target accuracy on both engines, and tabulates the weighted overhead
normalized to full protection of the direct engine.

    python3 scripts/tmr_study.py --target-frac 0.9 --trials 60
"""

import argparse
import sys

from winofi.analyze import Campaign
from winofi.modelio import builtin_model, generate_dataset, load_model
from winofi.runtime import enumerate_ops
from winofi.tmr import (
    CostModel,
    make_segment_eval,
    measure_segment_vulnerability,
    plan_tmr,
    segment_ops,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", help="model directory (default: builtin microcnn-int16)")
    ap.add_argument("--samples", type=int, default=6)
    ap.add_argument("--trials", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ber", type=float, default=1e-4)
    ap.add_argument("--target-frac", type=float, default=0.9,
                    help="target accuracy as a fraction of clean accuracy")
    ap.add_argument("--segments", type=int, nargs="*", default=[4, 8, 16, 32],
                    help="segment counts to study (segment size = M / count)")
    args = ap.parse_args()

    model = load_model(args.model) if args.model else builtin_model("microcnn-int16")
    dataset = generate_dataset(model, args.samples, seed=args.seed)
    cost = CostModel()
    direct_space = enumerate_ops(model, "direct")

    print(f"{'engine':>9} {'segments':>9} {'seg size':>9} {'n':>4} {'P':>7} "
          f"{'achieved':>9} {'norm overhead':>14}")
    for engine in ("direct", "winograd"):
        camp = Campaign(model, dataset, engine, seed=args.seed)
        target = args.target_frac * camp.clean_accuracy
        space = camp.opspace
        for n_seg in args.segments:
            size = -(-space.total_ops // n_seg)
            segments = segment_ops(space.total_ops, size)
            print(f"measuring {engine} x{len(segments)} segments ...", file=sys.stderr)
            reports = measure_segment_vulnerability(camp, args.ber, segments, args.trials)
            plan = plan_tmr(
                [r.delta for r in reports], segments, target,
                make_segment_eval(camp, args.ber, args.trials),
                opspace=space, cost=cost, direct_opspace=direct_space,
                v_ci=[r.ci95_halfwidth for r in reports],
            )
            flag = " (unreachable)" if plan.target_unreachable else ""
            print(f"{engine:>9} {len(segments):>9} {size:>9} {plan.n:>4} "
                  f"{plan.protection_ratio:>7.3f} {plan.achieved_acc:>9.3f} "
                  f"{plan.overhead_normalized:>14.4f}{flag}")


if __name__ == "__main__":
    main()
