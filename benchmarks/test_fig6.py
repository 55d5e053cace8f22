"""Bench target for paper Fig. 6: NSGA-II generation-budget tradeoff.

Regenerates both panels (improvement and execution time vs generations on a
fixed graph set), prints the table, writes its CSV and checks
the paper's qualitative shape: GA time grows ~linearly with the generation
budget while the decomposition reference lines are flat.
"""

from repro.experiments import EXPERIMENTS, bench_scale, write_csv


def test_fig6_regenerate(benchmark):
    entry = EXPERIMENTS["fig6"]
    result = benchmark.pedantic(
        lambda: entry.run(bench_scale()), rounds=1, iterations=1
    )
    print()
    print(entry.format(result))
    write_csv(result)

    series = {s.name: s for s in result.series()}
    ga = series["NSGAII"]
    # GA execution time grows with the generation budget
    assert ga.time_s[-1] > ga.time_s[0], "more generations must cost more time"
    # GA quality is non-decreasing-ish over the budget (allow smoke noise)
    assert ga.improvement[-1] >= ga.improvement[0] - 0.05
    # decomposition reference lines are budget-independent (same graphs);
    # small wiggle remains because each sweep point draws a fresh random
    # schedule suite for the reported-makespan minimum
    sp = series["SPFirstFit"]
    assert max(sp.improvement) - min(sp.improvement) < 0.05
