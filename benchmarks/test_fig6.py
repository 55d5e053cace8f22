"""Bench target for paper Fig. 6: NSGA-II generation-budget tradeoff.

Regenerates both panels (improvement and execution time vs generations on a
fixed graph set), prints the table, writes its CSV and checks
the paper's qualitative shape: GA cost (model evaluations) grows ~linearly
with the generation budget while the decomposition reference lines are
flat.  At smoke scale every column except ``time_s`` must also equal the
committed ``results/`` CSV.
"""

from repro.experiments import EXPERIMENTS, bench_scale, write_csv


def test_fig6_regenerate(matches_committed_csv):
    entry = EXPERIMENTS["fig6"]
    result = entry.run(bench_scale())
    print()
    print(entry.format(result))
    matches_committed_csv(write_csv(result))

    series = {s.name: s for s in result.series()}
    ga = series["NSGAII"]
    # GA cost grows with the generation budget, counted in model
    # evaluations so the check does not depend on host speed
    ga_evals = [p.evaluations["NSGAII"] for p in result.points]
    assert ga_evals[-1] > ga_evals[0], "more generations must cost more"
    # GA quality is non-decreasing-ish over the budget (allow smoke noise)
    assert ga.improvement[-1] >= ga.improvement[0] - 0.05
    # decomposition reference lines are budget-independent (same graphs);
    # small wiggle remains because each sweep point draws a fresh random
    # schedule suite for the reported-makespan minimum
    sp = series["SPFirstFit"]
    assert max(sp.improvement) - min(sp.improvement) < 0.05
