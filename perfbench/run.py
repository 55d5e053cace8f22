#!/usr/bin/env python3
"""Paper-workload benchmark of the repro library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/repro``).  The
workloads, and why each was chosen, are listed in ``BENCHMARK.json``.

Each run:

1. primes the caches in a throw-away process (C kernel ``.so`` and
   bytecode), so no measured process compiles anything;
2. measures set-up (fresh interpreter: imports, inputs, one warm-up
   item) in ``SETUP_SAMPLES`` processes, before and after the timed run,
   and reports the median;
3. runs the timed phase in one of those processes (see ``bench.py``)
   with BLAS threads pinned to 1;
4. checks the outputs, the determinism gate and the kernel path, and
   prints every metric with its unit.  The last line of standard output
   is one JSON object: ``correct``, ``attempted``, ``failed`` and
   ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
   metrics with ``--trace 1``).

Caches, traces and result stamps go to ``.bench_build/`` in the
checkout.  The determinism gate remembers, per workload and seed, the
quality metrics, counts and output digests of the first run and fails
any later run that differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
#: items on each side whose calibration samples scale an item's time
CALIBRATION_WINDOW = 10
CHILD_TIMEOUT_S = 170
#: the first run in a checkout compiles the C kernel
PRIME_TIMEOUT_S = 600

MAPPERS = ("HEFT", "PEFT", "NSGAII", "SingleNode", "SeriesParallel",
           "SNFirstFit", "SPFirstFit", "WGDPTime", "WGDPDev", "ZhouLiu")
DECOMPOSITION_MAPPERS = ("SingleNode", "SeriesParallel", "SNFirstFit",
                         "SPFirstFit")


def _child_env(root):
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        # the kernel's .so cache and its compiler's temporary files stay
        # inside the checkout
        "XDG_CACHE_HOME": os.path.join(root, ".bench_build", "cache"),
        "TMPDIR": os.path.join(root, ".bench_build", "tmp"),
    })
    env.pop("REPRO_PURE_PYTHON", None)
    return env


def _child(root, mode, args, timeout, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"bench.py {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res, setup_s):
    """The metrics a user of the library sees: name -> (value, unit).

    Item times are given in *ref*: each item's seconds divided by the
    median time the calibration loop (``_calibrate`` in bench.py, about
    3.5 ms on a 2-vCPU VM) took before the ``2 * CALIBRATION_WINDOW + 1``
    items around it.  A shared host changes the speed of a core by up to
    2x for seconds at a time and by 15% between runs of the same inputs;
    item time over calibration time does not move with it, while a change
    to the library's speed moves it in full.  The per-layer run reports
    the timed phase in seconds too.
    """
    cal, w = res["calibration_s"], CALIBRATION_WINDOW
    times = [t / statistics.median(cal[max(0, k - w):k + w + 1])
             for k, t in enumerate(res["item_times_s"])]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_kref": (1000 * len(times) / sum(times), "1/kref"),
        "item_ref_p50": (statistics.median(times), "ref"),
        "item_ref_p90": (
            statistics.quantiles(times, n=10, method="inclusive")[-1], "ref"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "mean_improvement": (res["mean_improvement"], "fraction"),
    }


def per_layer(res):
    """Per-layer metrics of the traced pass: name -> (value, unit).

    Times are self times summed over one pass of the workload's items;
    counts are summed over the same pass.  Layers a workload does not
    enter read 0.
    """
    layer = res["layer"]
    selfs = layer["self_s"]
    counts = {**res["counts"], **layer["probe_counts"]}
    traced_s = layer["bench.traced_pass_s"]
    m = {
        "setup.import_s": (res["setup"]["import_s"], "s"),
        "setup.inputs_s": (res["setup"]["inputs_s"], "s"),
        "setup.warmup_s": (res["setup"]["warmup_s"], "s"),
        "graphs.generate_s": (selfs.get("graphs.generate", 0.0), "s"),
        "graphs.tasks": (counts.get("graphs.tasks", 0.0), "count"),
        "evaluation.suite_s": (selfs.get("evaluation.suite", 0.0), "s"),
        "evaluation.build_s": (selfs.get("evaluation.build", 0.0), "s"),
        "evaluation.reported_s": (selfs.get("evaluation.reported", 0.0), "s"),
        "evaluation.full_sims": (counts.get("evaluation.full_sims", 0.0),
                                 "count"),
        "evaluation.delta_evals": (counts.get("evaluation.delta_evals", 0.0),
                                   "count"),
        "evaluation.batched_evals": (
            counts.get("evaluation.batched_evals", 0.0), "count"),
        "evaluation.equivalent_evals": (
            counts.get("evaluation.equivalent_evals", 0.0), "count"),
        "sp.decompose_s": (selfs.get("sp.decompose", 0.0), "s"),
        "sp.candidates": (layer["sp.candidates"], "count"),
    }
    for name in MAPPERS:
        runs = counts.get(f"mapper.{name}.runs", 0.0)
        evals = counts.get(f"mapper.{name}.evals", 0.0)
        m[f"mapper.{name}.s"] = (selfs.get(f"mapper.{name}", 0.0), "s")
        m[f"mapper.{name}.evals"] = (evals, "count")
        m[f"mapper.{name}.improvement"] = (
            counts.get(f"mapper.{name}.improvement", 0.0) / runs if runs
            else 0.0, "fraction")
        if name in DECOMPOSITION_MAPPERS:
            m[f"mapper.{name}.accept_ratio"] = (
                counts.get(f"mapper.{name}.iterations", 0.0) / evals if evals
                else 0.0, "ratio")
    m.update({
        "milp.limit_hits": (counts.get("milp.limit_hits", 0.0), "count"),
        "milp.fallbacks": (counts.get("milp.fallbacks", 0.0), "count"),
        "runtime.engine_s": (selfs.get("runtime.engine", 0.0), "s"),
        "runtime.stream_build_s": (selfs.get("runtime.stream_build", 0.0),
                                   "s"),
    })
    for key in ("events", "tasks", "area_waits", "link_waits"):
        m[f"runtime.{key}"] = (counts.get(f"runtime.{key}", 0.0), "count")
    for key in ("area_wait_sim_s", "link_wait_sim_s"):
        m[f"runtime.{key}"] = (counts.get(f"runtime.{key}", 0.0), "s")
    jobs = counts.get("runtime.jobs", 0.0)
    m["runtime.job_latency_sim_s"] = (
        counts.get("runtime.job_latency_sim_s", 0.0) / jobs if jobs else 0.0,
        "s")
    other = selfs.get("bench.item", 0.0)
    times = res["item_times_s"]
    m.update({
        "platform.build_s": (res["platform_build_s"], "s"),
        "bench.calibration_s": (
            statistics.median(res["calibration_s"]), "s"),
        "bench.items_per_s": (len(times) / sum(times), "1/s"),
        "bench.item_s": (traced_s, "s"),
        "bench.other_s": (other, "s"),
        "bench.other_share": (other / traced_s, "fraction"),
        # traced items_per_kref relative to untraced, on the same items
        "bench.trace_overhead": (
            res["untraced_pass_ref"] / layer["bench.traced_pass_ref"],
            "ratio"),
    })
    return m


def _git_sha(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _gate(path, record):
    """Compare ``record`` with the one stored at ``path`` (store if new).

    Returns the keys that differ.
    """
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
        return [k for k in record if stored.get(k) != record[k]]
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-check only")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro source checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    state = os.path.join(root, ".bench_build", "perfbench")
    for sub in ("determinism", "results", "traces"):
        os.makedirs(os.path.join(state, sub), exist_ok=True)
    os.makedirs(os.path.join(root, ".bench_build", "tmp"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"

    primed = _child(root, "prime", args, PRIME_TIMEOUT_S)
    # set-up samples before and after the timed run, so that they fall in
    # different spells of host speed
    before = (SETUP_SAMPLES - 1) // 2
    setups = [_child(root, "setup", args, CHILD_TIMEOUT_S)
              for _ in range(before)]
    trace_out = os.path.join(state, "traces", f"{tag}.json")
    res = _child(root, "run", args, CHILD_TIMEOUT_S,
                 ("--trace-out", trace_out) if args.trace else ())
    setups += [_child(root, "setup", args, CHILD_TIMEOUT_S)
               for _ in range(SETUP_SAMPLES - 1 - before)]
    setup_s = statistics.median(
        [s["setup"]["total_s"] for s in setups] + [res["setup"]["total_s"]])

    problems = list(res["problems"])
    kernels = {json.dumps(c["kernel"], sort_keys=True)
               for c in [primed, *setups, res]}
    if len(kernels) != 1:
        problems.append(f"kernel path changed between processes: {kernels}")
    changed = _gate(os.path.join(state, "kernel.json"), primed["kernel"])
    if changed:
        problems.append(f"kernel path differs from earlier runs: {changed}")
    if res["digest_mismatches"]:
        problems.append(
            f"{res['digest_mismatches']} item runs differ from the first run "
            "of the same item")
    changed = _gate(os.path.join(state, "determinism", f"{tag}.json"), {
        "mean_improvement": res["mean_improvement"],
        "counts": res["counts"],
        "digests": res["digests"],
    })
    if changed:
        problems.append(f"determinism gate: {changed} differ from the first "
                        f"run of {tag}")

    e2e = end_to_end(res, setup_s)
    metrics = per_layer(res) if args.trace else e2e
    attempted, failed = res["attempted"], res["failed"]
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"kernel {res['kernel']['kernel']}  items/pass {res['n_items']}  "
          f"timed {res['wall_s']:.1f} s  "
          f"attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    with open(os.path.join(state, "results",
                           f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(root), "env": res["env"],
            "kernel": res["kernel"], "problems": problems,
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "end_to_end": {k: v for k, (v, _u) in e2e.items()},
            "metrics": {k: v for k, (v, _u) in metrics.items()},
        }, fh, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
