"""Bench targets for the parallel experiment backbone.

Runs the robustness sweep at ``--workers 1`` and ``--workers 2`` and
asserts the backbone's core promise: the two runs produce byte-identical
CSVs.  A second bench runs the replan-policy sweep, the most expensive
runtime path (every failure re-runs a mapper).
"""

import dataclasses
import io

from repro.experiments import EXPERIMENTS, bench_scale, robustness, write_csv


def _bench_cfg():
    cfg = bench_scale()
    # keep the equivalence bench affordable at every scale
    return dataclasses.replace(
        cfg,
        robustness_noise_levels=cfg.robustness_noise_levels[:2],
        robustness_replications=min(cfg.robustness_replications, 8),
    )


def test_bench_robustness_serial_vs_pool():
    """workers=1 and workers=2 on one sweep write bit-identical CSVs."""
    cfg = _bench_cfg()
    a, b = io.StringIO(), io.StringIO()
    write_csv(robustness.run(scale=cfg, seed=7, workers=1), fileobj=a)
    write_csv(robustness.run(scale=cfg, seed=7, workers=2), fileobj=b)
    assert a.getvalue() == b.getvalue()


def test_bench_replan_policy_sweep():
    """Regenerates replan_policy_sweep.csv at the bench scale.

    The replan sweep replays every mapping through mid-run failures;
    mapper-based policies re-map on the surviving platform at failure
    time, so this also bounds the per-failure replanning cost."""
    entry = EXPERIMENTS["replan"]
    result = entry.run(bench_scale())
    print()
    print(entry.format(result))
    write_csv(result)
    # the failure must actually strand work, and every policy must
    # exercise the rescue path — otherwise the comparison is inert
    for policy in result.axis("policy"):
        assert any(
            p.mean_remapped > 0
            for p in result.points if p.policy == policy
        )
