"""Benchmarks of the parallel experiment backbone.

Logs the wall-clock of the robustness sweep at ``--workers 1`` vs
``--workers 2`` (the speedup is visible on multi-core hosts; on a
single-core runner the pooled run only pays fork overhead) and asserts
the backbone's core promise along the way: the two runs produce
byte-identical CSVs.  A second bench times the replan-policy sweep, the
most expensive new runtime path (every failure re-runs a mapper).
"""

import dataclasses
import io
import time

import pytest

from repro.experiments import EXPERIMENTS, bench_scale, robustness, write_csv


def _bench_cfg():
    cfg = bench_scale()
    # keep the equivalence bench affordable at every scale
    return dataclasses.replace(
        cfg,
        robustness_noise_levels=cfg.robustness_noise_levels[:2],
        robustness_replications=min(cfg.robustness_replications, 8),
    )


def test_bench_robustness_serial_vs_pool(benchmark):
    """Wall-clock of workers=1 vs workers=2 on one sweep, plus the
    bit-identical-CSV invariant (the acceptance criterion's evidence)."""
    cfg = _bench_cfg()

    t0 = time.perf_counter()
    serial = robustness.run(scale=cfg, seed=7, workers=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = robustness.run(scale=cfg, seed=7, workers=2)
    t_pool = time.perf_counter() - t0

    a, b = io.StringIO(), io.StringIO()
    write_csv(serial, fileobj=a)
    write_csv(pooled, fileobj=b)
    assert a.getvalue() == b.getvalue()

    print()
    print(f"robustness sweep ({cfg.name}): "
          f"workers=1 {t_serial:.2f}s | workers=2 {t_pool:.2f}s "
          f"(speedup x{t_serial / t_pool:.2f})")

    # benchmark the pooled path so regressions in pool overhead show up
    benchmark.pedantic(
        lambda: robustness.run(scale=cfg, seed=7, workers=2),
        rounds=1, iterations=1,
    )


def test_bench_replan_policy_sweep(benchmark):
    """Regenerates replan_policy_sweep.csv at the bench scale.

    The replan sweep replays every mapping through mid-run failures;
    mapper-based policies re-map on the surviving platform at failure
    time, so this also bounds the per-failure replanning cost."""
    entry = EXPERIMENTS["replan"]
    result = benchmark.pedantic(
        lambda: entry.run(bench_scale()), rounds=1, iterations=1,
    )
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
