"""Bench target for paper Fig. 7: almost-series-parallel graphs.

Regenerates both panels (improvement and time vs number of conflicting extra
edges), prints the table, writes its CSV and checks the
paper's qualitative shape: the series-parallel decomposition converges
towards the single-node decomposition as the trees shatter, and both stay
competitive with the GA.  At smoke scale every column except ``time_s``
must also equal the committed ``results/`` CSV.
"""

from repro.experiments import EXPERIMENTS, bench_scale, write_csv


def test_fig7_regenerate(matches_committed_csv):
    entry = EXPERIMENTS["fig7"]
    result = entry.run(bench_scale())
    print()
    print(entry.format(result))
    matches_committed_csv(write_csv(result))

    series = {s.name: s for s in result.series()}
    sn = series["SNFirstFit"]
    sp = series["SPFirstFit"]
    # With many conflicting edges SP degenerates towards SN: the quality gap
    # at the largest edge count must be small.
    assert abs(sp.improvement[-1] - sn.improvement[-1]) < 0.1
    # Decomposition keeps a clear edge over plain HEFT throughout.
    mean_sp = sum(sp.improvement) / len(sp.improvement)
    mean_heft = sum(series["HEFT"].improvement) / len(series["HEFT"].improvement)
    assert mean_sp >= mean_heft - 0.02
