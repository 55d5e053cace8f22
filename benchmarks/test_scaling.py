"""Bench target for the paper's empirical-complexity claim (Sec. IV-B).

"All decomposition-based mapping strategies exhibit a quadratic behavior
regarding their execution time, although their theoretical execution time
has a cubic dependency on the number of tasks."

Fits ``time ~ n^alpha`` over the Fig. 4 size sweep and asserts the fitted
exponents stay clearly below the cubic worst case, with the FirstFit
variants cheaper than the basic ones.
"""

from repro.experiments import EXPERIMENTS, bench_scale, write_csv
from repro.experiments.scaling import fit_exponents


def test_scaling_exponents(benchmark):
    entry = EXPERIMENTS["scaling"]
    result = benchmark.pedantic(
        lambda: entry.run(bench_scale()), rounds=1, iterations=1
    )
    print()
    print(entry.format(result))
    write_csv(result)

    exponents = fit_exponents(result)
    for name, alpha in exponents.items():
        # Paper Sec. IV-B: quadratic in practice, cubic worst case.  With
        # the kernel/delta evaluation core the constants shrank ~10-30x
        # and the fitted exponents sit around 0.8-2.1 at smoke scale, so
        # the bound can exclude the cubic regime outright.
        assert alpha < 3.0, f"{name} scales worse than quadratic-with-slack"
    # FirstFit saves a constant-factor (and often asymptotic) amount of
    # work; compared in evaluations, not seconds, so the check does not
    # depend on host speed
    largest = result.points[-1].evaluations
    assert largest["SPFirstFit"] < largest["SeriesParallel"]
