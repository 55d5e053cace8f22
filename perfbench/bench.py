"""One benchmark process: set up a workload, then run its timed phase.

``run.py`` starts this file in a fresh interpreter, so that ``setup_s``
includes the imports.  Modes:

- ``prime``: import everything and load (compiling on first use) the C
  kernel, so later processes find the ``.so`` and bytecode caches warm;
- ``setup``: imports, input generation and one untimed warm-up item;
- ``run``: set-up, then the timed phase; with ``--trace 1`` also one
  traced pass over the same items.

The timed phase is a closed loop with one client: each item starts when
the previous one has finished.  It runs whole passes over the items, in
a fixed shuffled order, for the whole number of passes that lasts
closest to ``--seconds`` (at least one).  Before each item, untimed, the
heap is collected and the host speed is sampled (``_calibrate``); the
inputs are frozen out of the collector after set-up.
Quality and count metrics come from the first pass, so they do not
depend on how fast the machine is; every later run of an item must
reproduce its first-pass digest.

The result is one JSON object on the last line of standard output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")


#: iterations of the calibration loop (about 3.5 ms on a 2-vCPU VM)
CALIBRATION_LOOPS = 20_000


def _calibrate():
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    On a shared host the speed of one core changes by up to 2x within
    seconds; item times divided by the median of these samples around
    them do not.  Half of the loop is integer arithmetic, half is the
    object work the library's Python code does most (tuples, lists, dict
    inserts and lookups): each half alone tracks some items worse.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += (i * i) % 7
    n = CALIBRATION_LOOPS // 8
    table, keys = {}, []
    for i in range(n):
        table[i, i & 7] = [i]
        keys.append((i * 7919) % n)
    for k in keys:
        x += len(table.get((k, k & 7), ()))
    return time.perf_counter() - t0


def _run_passes(workload, span, seconds):
    """Run whole passes over the items for about ``seconds``.

    Whole passes keep the item mix of every run the same; the run stops
    at the pass boundary nearest to ``seconds``, after at least one pass.
    Before each item, untimed by it, the heap is collected (every item
    starts from the same garbage-free state) and the host speed is
    sampled with ``_calibrate``.
    Returns (first-pass results, None where the item raised, then the
    digests of later passes; per-item seconds; calibration seconds; wall
    seconds).
    """
    results, times, calibration = [], [], []
    t_begin = time.perf_counter()
    n_passes = 0
    while True:
        for spec in workload.items:
            gc.collect()
            calibration.append(_calibrate())
            t0 = time.perf_counter()
            try:
                with span("bench.item"):
                    res = workload.run(spec, span)
            except Exception:  # noqa: BLE001 - a failed item is counted
                traceback.print_exc(file=sys.stderr)
                res = None
            times.append(time.perf_counter() - t0)
            if n_passes and res is not None:
                res = res.digest
            results.append(res)
        n_passes += 1
        elapsed = time.perf_counter() - t_begin
        if elapsed * (1 + 0.5 / n_passes) >= seconds:
            return results, times, calibration, elapsed


def _self_times(spans):
    """Per-name self time (s): each span minus the spans nested in it."""
    ordered = sorted(spans, key=lambda s: (s[2], -s[3]))
    out, stack = {}, []
    for name, _cat, t0, dur, _lane, _args in ordered:
        while stack and t0 >= stack[-1][1] + stack[-1][2]:
            stack.pop()
        out[name] = out.get(name, 0.0) + dur / 1e9
        if stack:
            out[stack[-1][0]] -= dur / 1e9
        stack.append((name, t0, dur))
    return out


def _summarize(workload, results):
    """Problems, counts and mean improvement of the first pass."""
    problems, counts, improvements = [], {}, []
    for spec, res in zip(workload.items, results):
        if res is None:
            problems.append(f"{spec.label}: raised (traceback on stderr)")
            continue
        problems += res.problems
        improvements += res.improvements
        for key, value in res.counts.items():
            counts[key] = counts.get(key, 0.0) + value
    improvements = improvements or workload.setup_improvements
    return {
        "problems": problems,
        "counts": counts,
        "mean_improvement": sum(improvements) / len(improvements),
    }


def _mismatches(first, later):
    """Later runs of an item (digests) that differ from its first run."""
    n = len(first)
    return sum(
        1 for k, digest in enumerate(later)
        if digest is not None and first[k % n] is not None
        and digest != first[k % n].digest
    )


def _traced_pass(workload, seed, tiny):
    """One traced pass over the items, plus probes outside the items."""
    from repro.obs.trace import Tracer
    import workloads as wl

    tracer = Tracer()

    def span(name):
        return tracer.span(name, "bench")

    results, times, calibration, _ = _run_passes(workload, span, 0.0)
    layer = {"bench.traced_pass_s": sum(times),
             "bench.traced_pass_ref": sum(times)
             / statistics.median(calibration),
             "sp.candidates": 0,
             "milp.problems": [], "probe_counts": {}}
    if workload.name == "sp-graphs":
        for res in results:
            for g, mseed in (res.probes if res is not None else ()):
                with tracer.span("sp.decompose", "probe"):
                    layer["sp.candidates"] += wl.decomposition_probe(g, mseed)
        # only the mapper spans of the MILP probe are recorded, so the
        # other layer spans keep covering the items alone
        def milp_span(name):
            return (tracer.span(name, "milp") if name.startswith("mapper.")
                    else wl.no_span(name))

        for spec in wl.milp_probe(seed, tiny):
            res = wl.run_mapping_item(spec, workload.platform, milp_span)
            layer["milp.problems"] += res.problems
            probe_counts = layer["probe_counts"]
            for key, value in res.counts.items():
                if key.startswith(("mapper.", "milp.")):
                    probe_counts[key] = probe_counts.get(key, 0.0) + value
    layer["self_s"] = _self_times(tracer.spans)
    return tracer, results, layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("prime", "setup", "run"))
    ap.add_argument("--workload", default="workflows")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as wl  # imports the whole library
    from repro.evaluation._ckernel import kernel_status
    from repro.obs.env import collect_env

    out = {"kernel": kernel_status()}
    t_imported = time.perf_counter()
    if args.mode == "prime":
        print(json.dumps(out))
        return 0

    workload = wl.make_workload(args.workload, args.seed, args.tiny)
    t_inputs = time.perf_counter()
    warm = workload.run(workload.items[0], wl.no_span)
    t_ready = time.perf_counter()
    out["setup"] = {
        "import_s": t_imported - T_START,
        "inputs_s": t_inputs - t_imported,
        "warmup_s": t_ready - t_inputs,
        "total_s": t_ready - T_START,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    n = len(workload.items)
    # the inputs stay alive for the whole run; keep them out of the
    # collections the items trigger
    gc.collect()
    gc.freeze()
    results, times, calibration, wall = _run_passes(
        workload, wl.no_span, args.seconds)
    first = results[:n]
    mismatches = _mismatches(first, results[n:])
    if first[0] is not None and first[0].digest != warm.digest:
        mismatches += 1
    # an item's later runs reproduce its first run (else the digest gate
    # fails the run), so they pass or fail its checks with it
    failed = sum(
        1 for k, res in enumerate(results)
        if res is None or first[k % n] is None or first[k % n].problems
    )
    out.update({
        "env": collect_env(),
        "n_items": n,
        "attempted": len(results),
        "failed": failed,
        "item_times_s": times,
        "calibration_s": calibration,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "platform_build_s": workload.platform_build_s,
        **_summarize(workload, first),
        "digests": [r.digest if r is not None else None for r in first],
    })
    if args.trace:
        from repro.obs.trace import write_chrome

        tracer, traced, layer = _traced_pass(workload, args.seed, args.tiny)
        mismatches += _mismatches(
            first, [r.digest if r is not None else None for r in traced])
        out["failed"] += sum(1 for res in traced if res is None or res.problems)
        out["attempted"] += len(traced)
        out["untraced_pass_ref"] = (sum(times[:n])
                                    / statistics.median(calibration[:n]))
        out["layer"] = layer
        out["problems"] += layer.pop("milp.problems")
        if args.trace_out:
            write_chrome(tracer, args.trace_out,
                         process_name=f"perfbench {args.workload}")
    out["digest_mismatches"] = mismatches
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
