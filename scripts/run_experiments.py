"""Run every registered experiment at a report scale and save its CSV.

The report scale is large enough to show the paper's trends (denser than
the benchmark smoke scale, lighter than the full paper scale so it
completes on a laptop core).  Each study prints its text table and
writes the same CSV as ``repro experiment NAME --csv`` into ./results/
(or $REPRO_RESULTS_DIR).

Run:  python scripts/run_experiments.py [--scale smoke|small|paper]
                                        [--only NAME ...]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.experiments import EXPERIMENTS, SCALES, get_scale, write_csv


def report_scale(base: str = "small"):
    """'small' with single-core-friendly MILPs; other scales unchanged."""
    cfg = get_scale(base)
    if base != "small":
        return cfg
    return dataclasses.replace(
        cfg,
        name="report",
        graphs_per_point=8,
        fig3_sizes=[5, 10, 15, 20, 25, 30],
        fig3_zhouliu_max=10,
        zhouliu_time_limit_s=45.0,
        milp_time_limit_s=20.0,
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="small", choices=list(SCALES))
    parser.add_argument("--only", nargs="*", default=None,
                        choices=list(EXPERIMENTS))
    args = parser.parse_args()
    cfg = report_scale(args.scale)
    for name in args.only or EXPERIMENTS:
        entry = EXPERIMENTS[name]
        t0 = time.time()
        print(f"=== running {name} (scale={cfg.name}) ===", flush=True)
        result = entry.run(cfg)
        print(entry.format(result), flush=True)
        path = write_csv(result)
        print(f"=== {name} done in {time.time() - t0:.0f}s -> {path} ===\n",
              flush=True)


if __name__ == "__main__":
    sys.exit(main())
