"""Bench target for paper Fig. 5: FirstFit decomposition vs NSGA-II.

Regenerates both panels, prints the table, writes its CSV and
checks the paper's qualitative shape: the GA is competitive in quality but
many times slower than the decomposition heuristics.
"""

from repro.experiments import EXPERIMENTS, bench_scale, write_csv


def test_fig5_regenerate(benchmark):
    entry = EXPERIMENTS["fig5"]
    result = benchmark.pedantic(
        lambda: entry.run(bench_scale()), rounds=1, iterations=1
    )
    print()
    print(entry.format(result))
    write_csv(result)

    series = {s.name: s for s in result.series()}
    largest = -1
    # NSGA-II is far slower than the decomposition mappers at the largest size
    assert (
        series["NSGAII"].time_s[largest] > 3 * series["SPFirstFit"].time_s[largest]
    ), "the GA should be several times slower"
    # and not dramatically better in quality
    assert (
        series["SPFirstFit"].improvement[largest]
        >= series["NSGAII"].improvement[largest] - 0.08
    ), "SPFirstFit should stay within a few points of the GA"
