"""Bench target: extended baseline roster on one sweep.

Not a paper artifact — a regression radar over every fast mapper in the
library.  Asserts the two structural facts the whole reproduction rests on:
the decomposition mappers beat the single-pass list schedulers on average,
and no mapper ever loses to the all-CPU baseline by construction where that
guarantee exists.  At smoke scale every deterministic column of the
written CSV must equal the committed ``results/extended_baselines.csv``,
the only committed result that runs CPOP, LAHEFT and min-/max-min.
"""

from repro.experiments import EXPERIMENTS, bench_scale, write_csv


def test_baseline_roster(matches_committed_csv):
    entry = EXPERIMENTS["baselines"]
    result = entry.run(bench_scale())
    print()
    print(entry.format(result))
    matches_committed_csv(write_csv(result))

    series = {s.name: s for s in result.series()}
    mean = lambda s: sum(s.improvement) / len(s.improvement)
    list_schedulers = ["HEFT", "PEFT", "CPOP", "MinMin", "MaxMin"]
    best_list = max(mean(series[n]) for n in list_schedulers)
    assert mean(series["SPFirstFit"]) >= best_list - 0.05, (
        "decomposition should be competitive with every list scheduler"
    )
    for name in ("Tabu", "Annealing", "SNFirstFit", "SPFirstFit"):
        assert min(series[name].improvement) >= 0.0
