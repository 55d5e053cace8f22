"""Bench target for paper Fig. 4: decomposition vs HEFT/PEFT over graph size.

Regenerates both panels, prints the table, writes its CSV and
checks the paper's qualitative shape:

- at the largest size the decomposition mappers beat both list schedulers,
- the FirstFit heuristic is substantially cheaper than the basic variant
  (counted in model evaluations) while giving up almost no improvement.

At smoke scale every column except ``time_s`` must also equal the
committed ``results/`` CSV.
"""

from repro.experiments import EXPERIMENTS, bench_scale, write_csv


def test_fig4_regenerate(matches_committed_csv):
    entry = EXPERIMENTS["fig4"]
    result = entry.run(bench_scale())
    print()
    print(entry.format(result))
    matches_committed_csv(write_csv(result))

    series = {s.name: s for s in result.series()}
    largest = -1
    for name in ("SNFirstFit", "SPFirstFit"):
        assert (
            series[name].improvement[largest]
            >= series["HEFT"].improvement[largest] - 0.03
        ), f"{name} should match or beat HEFT on large graphs"
    # FirstFit cost advantage (paper: up to 75-80 % time reduction),
    # counted in model evaluations so the check does not depend on host speed
    evals = result.points[largest].evaluations
    assert evals["SNFirstFit"] <= 0.8 * evals["SingleNode"], (
        "FirstFit should cut the basic variant's evaluations"
    )
    # FirstFit quality parity (paper: "almost negligible" difference)
    assert (
        series["SPFirstFit"].improvement[largest]
        >= series["SeriesParallel"].improvement[largest] - 0.08
    )
