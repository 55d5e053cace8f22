"""Bench target for the paper's empirical-complexity claim (Sec. IV-B).

"All decomposition-based mapping strategies exhibit a quadratic behavior
regarding their execution time, although their theoretical execution time
has a cubic dependency on the number of tasks."

Runs the Fig. 4 size sweep, fits ``evaluations ~ n^alpha`` per mapper
and asserts the fitted exponents stay clearly below the cubic worst case,
with the FirstFit variants cheaper than the basic ones.  The fit reads the
sweep's evaluation counts rather than its wall-clock times, so the check
does not depend on the host's speed or load; the printed report still
fits the times.  At smoke scale every column except ``time_s`` must also
equal the committed ``results/`` CSV.
"""

import numpy as np

from repro.experiments import EXPERIMENTS, bench_scale, write_csv


def test_scaling_exponents(matches_committed_csv):
    entry = EXPERIMENTS["scaling"]
    result = entry.run(bench_scale())
    print()
    print(entry.format(result))
    matches_committed_csv(write_csv(result))

    points = [p for p in result.points if p.x >= 10]
    log_n = np.log([p.x for p in points])
    for name in points[0].evaluations:
        evals = np.log([p.evaluations[name] for p in points])
        alpha = float(np.polyfit(log_n, evals, 1)[0])
        # Paper Sec. IV-B: quadratic in practice, cubic worst case.  The
        # evaluation counts fit about 2.4/1.7/1.9/1.2 (SN/SP/SNFF/SPFF)
        # at smoke scale on either kernel, so the bound can exclude the
        # cubic regime outright.
        assert alpha < 3.0, f"{name} scales worse than quadratic-with-slack"
    # FirstFit saves a constant-factor (and often asymptotic) amount of
    # work; compared in evaluations, not seconds, so the check does not
    # depend on host speed
    largest = result.points[-1].evaluations
    assert largest["SPFirstFit"] < largest["SeriesParallel"]
