"""Bench target for paper Fig. 3: decomposition vs MILPs on random SP graphs.

Regenerates both panels (relative improvement and execution time per
algorithm and graph size), prints the paper-style table, writes its CSV
and checks the paper's qualitative shape:

- the decomposition mappers match/beat the dependency-blind device MILP,
- the time-based MILP is orders of magnitude slower at the largest size.
"""

from repro.experiments import EXPERIMENTS, bench_scale, write_csv


def test_fig3_regenerate():
    entry = EXPERIMENTS["fig3"]
    result = entry.run(bench_scale())
    print()
    print(entry.format(result))
    write_csv(result)

    series = {s.name: s for s in result.series()}
    sp = series["SeriesParallel"]
    dev = series["WGDPDev"]
    sp_mean = sum(sp.improvement) / len(sp.improvement)
    dev_mean = sum(dev.improvement) / len(dev.improvement)
    assert sp_mean >= dev_mean - 0.02, "decomposition should beat the device MILP"
    assert series["WGDPTime"].time_s[-1] > 10 * sp.time_s[-1], (
        "time-based MILP should be orders of magnitude slower"
    )
