"""Optional compiled C kernel over the flat cost tables.

The list-scheduling recurrence is inherently sequential, so the Python
walk ``CostModel._simulate_reference`` is bound by interpreter dispatch
(~1-2 us per schedule position).  This module compiles the very same
recurrence — statement for statement — to native code with the system C
compiler, reading the arrays of :class:`repro.evaluation.kernel.FlatModel`,
and loads it via :mod:`ctypes`:

- no third-party dependency: only ``cc``/``gcc``/``clang`` if present;
- compiled once per source version into a per-user cache directory
  (atomic rename, safe under concurrent workers);
- strict IEEE semantics: ``-ffp-contract=off`` and no fast-math, so
  every double operation matches CPython float arithmetic bit for bit
  (pinned against ``CostModel._simulate_reference`` by
  ``tests/test_kernel_delta.py``);
- anything failing (no compiler, sandboxed filesystem, load error)
  degrades silently to the pure-Python fallback, where every entry runs
  the reference walk itself — the C path is an optimization, never a
  requirement.

Set ``REPRO_PURE_PYTHON=1`` to force the fallback (used by the
test-suite to cover both paths).

The eight entry points (see the C source below for contracts) are
listed here; all but ``repro_random_orders`` and ``repro_vary`` run the
one loop body ``span_core``:

- ``repro_span``       — full scratch simulation into caller buffers;
- ``repro_span_batch_dedup`` — lane loop over a whole ``(B, n)``
  population with in-kernel genome dedup (open-addressing table,
  duplicates verified by full row comparison) and per-lane feasibility
  skipping: one native call per population, one simulation per
  *distinct* feasible genome, and no grouping work on the Python side;
- ``repro_rebuild_from`` — the delta base's recording walk (per-position
  slot availability + running makespan) resumed from a position whose
  prefix snapshots are still valid, so committing an accepted move
  costs O(affected suffix) instead of O(V + E) (the tabu/annealing
  accept path); from position 0 it is the full rebuild;
- ``repro_eval_move``  — suffix-only re-simulation of one candidate
  move against the snapshotted base, with bound-abort;
- ``repro_scan``       — one whole greedy scan pass of the decomposition
  mapper (basic or gamma mode): per move the no-op skip, the incremental
  area check, the counters and a ``repro_eval_move`` call.  A move whose
  area usage lands inside the guard band returns to Python for the exact
  recount, and the pass resumes with that decision (see
  :meth:`repro.evaluation.delta.DeltaEvaluator.scan`);
- ``repro_span_min``   — the reported makespan (paper Sec. IV-A): one
  mapping over all ``K`` rows of a schedule suite in one call, each walk
  bounded by the best makespan so far (the minimum stays exact);
- ``repro_random_orders`` — the schedule suite's ``K`` random Kahn walks
  over successor CSR arrays, drawing through the caller's numpy bit
  generator exactly as ``Generator.integers`` does (see
  :mod:`repro.evaluation.schedules` for the draw-stream contract);
- ``repro_vary``       — one NSGA-II generation's single-point crossover,
  per-gene mutation and area repair of a ``(P, n)`` population in place,
  drawing through the caller's bit generator exactly as the numpy
  reference does.  A repair comparison inside the guard band returns to
  Python for numpy's recount, and the call resumes after it (see
  :mod:`repro.mappers.genetic` for the draw-order contract).

Every buffer crosses into C through a checked builder or wrapper
(:meth:`CKernel.make_ctx`, :meth:`CKernel.make_delta`,
:meth:`CKernel.make_moves`, :meth:`CKernel.make_repair`,
:meth:`CKernel.span_min`, :meth:`CKernel.random_orders`,
:meth:`CKernel.vary`): each checks the shape, dtype and
C-contiguity of every buffer, CSR offsets, and the range of every index
the C side reads through, once when the structure is built.  The per-call
entries then trust them; ``repro_scan`` checks its per-pass ``order``
itself.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Optional

import numpy as np

__all__ = [
    "CKernel",
    "ReproCtx",
    "ReproDelta",
    "ReproMoves",
    "ReproRepair",
    "ReproScan",
    "ReproVary",
    "SCAN_BUCKETS",
    "load_ckernel",
]

_C_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

typedef struct {
    int64_t n, m, n_slots;
    const double *exec_t;     /* n*m   */
    const double *fill_t;     /* n*m   */
    const double *initial_t;  /* n*m   */
    const double *final_t;    /* n*m   */
    const int64_t *pred_ptr;  /* n+1   */
    const int64_t *pred_src;  /* E     */
    const double *pred_trans; /* E*m*m */
    const uint8_t *streaming; /* m     */
    const uint8_t *serializes;/* m     */
    const int64_t *slot_ptr;  /* m+1   */
} ReproCtx;

typedef struct {
    int64_t *mapping;          /* n, mutated and restored by eval_move */
    const int64_t *order;      /* n */
    const int64_t *pos;        /* n: task -> schedule position */
    double *base_start;        /* n, rewritten by rebuild_from */
    double *base_finish;       /* n, rewritten by rebuild_from */
    double *ts;                /* n workspace (suffix values) */
    double *tf;                /* n workspace */
    double *snap_avail;        /* n * n_slots prefix snapshots */
    double *pre_ms;            /* n prefix-max ends */
    double *avail_ws;          /* n_slots workspace */
    int64_t *old_ws;           /* >= max subgraph size workspace */
} ReproDelta;

/* The one loop body of every entry; mirrors the reference walk
 * CostModel._simulate_reference statement for statement (same op
 * order => bit-identical doubles).  When pos is NULL every predecessor
 * reads ts/tf; otherwise positions before k read the base arrays
 * (incremental suffix mode, no restore needed).  When pre_ms is set,
 * the slot vector and the running makespan *before* each position are
 * recorded into snap_avail/pre_ms; a recording walk must reach every
 * position, so it never aborts on the bound. */
static double span_core(const ReproCtx *c, const int64_t *mapping,
                        const int64_t *order, const int64_t *pos, int64_t k,
                        const double *base_start, const double *base_finish,
                        double *ts, double *tf, double *avail,
                        double *snap_avail, double *pre_ms,
                        double makespan, int contention, double bound)
{
    const int64_t n = c->n, m = c->m, n_slots = c->n_slots;
    const int use_base = (pos != NULL);
    for (int64_t j = k; j < n; j++) {
        if (pre_ms) {
            for (int64_t s = 0; s < n_slots; s++)
                snap_avail[j * n_slots + s] = avail[s];
            pre_ms[j] = makespan;
        }
        const int64_t i = order[j];
        const int64_t d = mapping[i];
        const int64_t row = i * m;
        double ready = c->initial_t[row + d];
        double drain = 0.0;
        const int64_t e1 = c->pred_ptr[i + 1];
        for (int64_t e = c->pred_ptr[i]; e < e1; e++) {
            const int64_t p = c->pred_src[e];
            const int64_t dp = mapping[p];
            const int base_p = use_base && pos[p] < k;
            double r;
            if (dp == d && c->streaming[d]) {
                const double sp = base_p ? base_start[p] : ts[p];
                const double fp = base_p ? base_finish[p] : tf[p];
                r = sp + c->fill_t[p * m + dp];
                if (fp > drain) drain = fp;
            } else {
                const double fp = base_p ? base_finish[p] : tf[p];
                r = fp + c->pred_trans[e * m * m + dp * m + d];
            }
            if (r > ready) ready = r;
        }
        double st = ready;
        int64_t slot = -1;
        if (contention && c->serializes[d]) {
            const int64_t s0 = c->slot_ptr[d], s1 = c->slot_ptr[d + 1];
            slot = s0;
            double earliest = avail[s0];
            for (int64_t q = s0 + 1; q < s1; q++) {
                if (avail[q] < earliest) { earliest = avail[q]; slot = q; }
            }
            if (earliest > ready) st = earliest;
        }
        double fin = st + c->exec_t[row + d];
        if (drain > fin) fin = drain;
        ts[i] = st;
        tf[i] = fin;
        if (slot >= 0) avail[slot] = fin;
        const double end = fin + c->final_t[row + d];
        if (end > makespan) {
            makespan = end;
            if (makespan >= bound && !pre_ms) return INFINITY;
        }
    }
    return makespan;
}

double repro_span(const ReproCtx *c, const int64_t *mapping,
                  const int64_t *order, double *start, double *finish,
                  double *avail, int contention)
{
    for (int64_t i = 0; i < c->n; i++) { start[i] = 0.0; finish[i] = 0.0; }
    for (int64_t s = 0; s < c->n_slots; s++) avail[s] = 0.0;
    return span_core(c, mapping, order, (const int64_t *)0, 0,
                     (const double *)0, (const double *)0,
                     start, finish, avail, (double *)0, (double *)0,
                     0.0, contention, INFINITY);
}

/* The delta base's recording walk, resumed at position k: the prefix
 * snapshots, base start/finish and pre_ms entries before k are still
 * valid for the (just mutated) base mapping, because a move whose first
 * affected position is k cannot change state before k.  k = 0 is the
 * full rebuild: row 0 of the snapshots is the zero slot vector,
 * pre_ms[0] is 0, and a schedule order that places every producer
 * before its consumers never reads a start/finish before writing it. */
double repro_rebuild_from(const ReproCtx *c, const ReproDelta *d, int64_t k)
{
    const double *snap = d->snap_avail + k * c->n_slots;
    for (int64_t s = 0; s < c->n_slots; s++) d->avail_ws[s] = snap[s];
    return span_core(c, d->mapping, d->order, (const int64_t *)0, k,
                     (const double *)0, (const double *)0,
                     d->base_start, d->base_finish, d->avail_ws,
                     d->snap_avail, d->pre_ms, d->pre_ms[k], 1, INFINITY);
}

/* Batch entry with in-kernel genome dedup: lanes whose row equals an
 * earlier feasible lane's row copy that lane's makespan instead of
 * re-simulating (exact-value sharing — duplicates are verified by full
 * row comparison after a 64-bit FNV-1a probe, so a hash collision costs
 * a probe step, never a wrong value).  `feas` (optional, may be NULL)
 * marks lanes that already failed the caller's area check: they get
 * INFINITY and do not enter the table.  `table` is caller-provided
 * open-addressing workspace of `table_size` (power of two, >= 2*B)
 * int64 slots.  Returns the number of lanes actually simulated. */
int64_t repro_span_batch_dedup(const ReproCtx *c, const int64_t *mappings,
                               const int64_t *order, int64_t n_lanes,
                               const uint8_t *feas, double *out,
                               int64_t *table, int64_t table_size,
                               double *start, double *finish, double *avail)
{
    const int64_t n = c->n;
    const uint64_t mask = (uint64_t)table_size - 1;
    for (int64_t t = 0; t < table_size; t++) table[t] = 0;
    int64_t simulated = 0;
    for (int64_t b = 0; b < n_lanes; b++) {
        if (feas && !feas[b]) { out[b] = INFINITY; continue; }
        const int64_t *row = mappings + b * n;
        uint64_t h = 1469598103934665603ULL;
        for (int64_t i = 0; i < n; i++)
            h = (h ^ (uint64_t)row[i]) * 1099511628211ULL;
        uint64_t idx = h & mask;
        int64_t dup = -1;
        for (;;) {
            const int64_t entry = table[idx];
            if (entry == 0) { table[idx] = b + 1; break; }
            const int64_t *row0 = mappings + (entry - 1) * n;
            int same = 1;
            for (int64_t i = 0; i < n; i++)
                if (row0[i] != row[i]) { same = 0; break; }
            if (same) { dup = entry - 1; break; }
            idx = (idx + 1) & mask;
        }
        if (dup >= 0) { out[b] = out[dup]; continue; }
        out[b] = repro_span(c, row, order, start, finish, avail, 1);
        simulated++;
    }
    return simulated;
}

double repro_eval_move(const ReproCtx *c, const ReproDelta *d,
                       const int64_t *sub, int64_t sub_len, int64_t device,
                       int64_t k, double bound)
{
    int64_t *mp = d->mapping;
    int64_t *old = d->old_ws;
    for (int64_t s = 0; s < sub_len; s++) {
        old[s] = mp[sub[s]];
        mp[sub[s]] = device;
    }
    const double *snap = d->snap_avail + k * c->n_slots;
    for (int64_t s = 0; s < c->n_slots; s++) d->avail_ws[s] = snap[s];
    const double ms = span_core(c, mp, d->order, d->pos, k,
                                d->base_start, d->base_finish, d->ts, d->tf,
                                d->avail_ws, (double *)0, (double *)0,
                                d->pre_ms[k], 1, bound);
    for (int64_t s = 0; s < sub_len; s++) mp[sub[s]] = old[s];
    return ms;
}

/* A greedy scan's move tables: the candidate subgraphs as a member CSR,
 * the moves as (candidate, device) pairs, and the inputs of the
 * incremental area check.  area_limit holds each area device's budget
 * plus the tolerance and area_band its guard band, both computed by the
 * caller; usage is the base mapping's per-device usage, which the caller
 * refreshes in place whenever the base changes. */
typedef struct {
    int64_t n_moves, n_area;
    const int64_t *cand_ptr;   /* n_cand + 1 */
    const int64_t *members;    /* cand_ptr[n_cand] task indices */
    const int64_t *first_pos;  /* n_cand */
    const double *cand_area;   /* n_cand summed task areas */
    const int64_t *move_cand;  /* n_moves */
    const int64_t *move_dev;   /* n_moves */
    const double *area;        /* n per-task areas */
    const int64_t *area_dev;   /* n_area */
    const double *area_limit;  /* n_area */
    const double *area_band;   /* n_area */
    const double *usage;       /* n_area */
} ReproMoves;

/* One scan pass's state, resumable after an exact-recount break-out. */
typedef struct {
    int64_t next;              /* next position in the scan order */
    int64_t forced;            /* the caller's area decision (0/1) for
                                  position next, or -1 */
    double best;               /* basic: best makespan; gamma: best gain */
    int64_t best_idx;          /* the winning move, -1 if none */
    int64_t n_evals;           /* moves scored */
    double delta_work;         /* running sum of suffix / n, in move order */
    int64_t suffix_total;      /* summed suffix lengths */
    int64_t suffix_buckets[64];/* suffix lengths by bit length */
} ReproScan;

/* DeltaEvaluator._move_feasible's incremental area check, same
 * operations in the same order: 1 feasible, 0 infeasible, -1 when a
 * device's new usage lands inside its guard band (exact recount). */
static int move_area_ok(const ReproMoves *mv, const int64_t *mp,
                        const int64_t *sub, int64_t len, int64_t dev,
                        double sub_area)
{
    for (int64_t ai = 0; ai < mv->n_area; ai++) {
        const int64_t a = mv->area_dev[ai];
        double removed = 0.0;
        for (int64_t s = 0; s < len; s++)
            if (mp[sub[s]] == a) removed += mv->area[sub[s]];
        const double added = dev == a ? sub_area : 0.0;
        if (removed == 0.0 && added == 0.0) continue;
        const double usage = mv->usage[ai] - removed + added;
        const double limit = mv->area_limit[ai];
        if (fabs(usage - limit) <= mv->area_band[ai]) return -1;
        if (usage > limit) return 0;
    }
    return 1;
}

/* One greedy scan pass over the moves in `order` (NULL: table order),
 * each scored by repro_eval_move.  A no-op move (every member already
 * on the device) is skipped; an infeasible one scores INFINITY; every
 * other move charges n_evals, delta_work and the suffix buckets.
 * Basic mode (expected == NULL): a move gets the bound best - eps, and
 * the first makespan below best - eps wins.  Gamma mode: no bound,
 * each move's gain current - makespan goes into expected[k] (0 for a
 * no-op) and the first gain above best + eps wins; with gamma > 0 the
 * pass stops once best > eps and the next move expects at most
 * best / gamma + eps.  Returns -1 when the pass is done, -2 for an
 * order entry outside [0, n_moves), else the index of a move whose
 * area check needs the caller's exact recount: the caller stores the
 * decision in st->forced and calls again, resuming at st->next. */
int64_t repro_scan(const ReproCtx *c, const ReproDelta *d,
                   const ReproMoves *mv, const int64_t *order,
                   double *expected, double current, double gamma,
                   double eps, ReproScan *st)
{
    const int64_t n = c->n;
    const int64_t *mp = d->mapping;
    for (int64_t j = st->next; j < mv->n_moves; j++) {
        const int64_t k = order ? order[j] : j;
        if (k < 0 || k >= mv->n_moves) return -2;
        if (gamma > 0.0 && st->best > eps
            && expected[k] <= st->best / gamma + eps)
            break;
        const int64_t ci = mv->move_cand[k], dev = mv->move_dev[k];
        const int64_t *sub = mv->members + mv->cand_ptr[ci];
        const int64_t len = mv->cand_ptr[ci + 1] - mv->cand_ptr[ci];
        int64_t s = 0;
        while (s < len && mp[sub[s]] == dev) s++;
        if (s == len) {
            if (expected) expected[k] = 0.0;
            continue;
        }
        int ok = (int)st->forced;
        st->forced = -1;
        if (ok < 0) {
            ok = move_area_ok(mv, mp, sub, len, dev, mv->cand_area[ci]);
            if (ok < 0) { st->next = j; return k; }
        }
        double ms = INFINITY;
        if (ok) {
            const int64_t fp = mv->first_pos[ci];
            const int64_t suffix = n - fp;
            int b = 0;
            for (uint64_t v = (uint64_t)suffix; v; v >>= 1) b++;
            st->n_evals++;
            st->delta_work += (double)suffix / (double)n;
            st->suffix_buckets[b]++;
            st->suffix_total += suffix;
            ms = repro_eval_move(c, d, sub, len, dev, fp,
                                 expected ? INFINITY : st->best - eps);
        }
        if (!expected) {
            if (ms < st->best - eps) { st->best = ms; st->best_idx = k; }
        } else {
            const double gain = current - ms;
            expected[k] = gain;
            if (gain > st->best + eps) { st->best = gain; st->best_idx = k; }
        }
    }
    st->next = mv->n_moves;
    return -1;
}

/* The reported makespan (paper Sec. IV-A): the minimum over the k rows
 * of orders (k*n).  Every walk after the first gets the best makespan
 * so far as its bound, so it stops once it cannot beat the current
 * minimum; max is monotone, so the minimum stays exact.  INFINITY for
 * k == 0. */
double repro_span_min(const ReproCtx *c, const int64_t *mapping,
                      const int64_t *orders, int64_t k,
                      double *start, double *finish, double *avail)
{
    double best = INFINITY;
    for (int64_t r = 0; r < k; r++) {
        for (int64_t i = 0; i < c->n; i++) { start[i] = 0.0; finish[i] = 0.0; }
        for (int64_t s = 0; s < c->n_slots; s++) avail[s] = 0.0;
        const double ms = span_core(c, mapping, orders + r * c->n,
                                    (const int64_t *)0, 0,
                                    (const double *)0, (const double *)0,
                                    start, finish, avail,
                                    (double *)0, (double *)0, 0.0, 1, best);
        if (ms < best) best = ms;
    }
    return best;
}

/* numpy's bitgen_t (numpy/random/bitgen.h), the struct behind
 * Generator.bit_generator.ctypes.bit_generator. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} ReproBitGen;

/* Generator.integers(rng + 1) for 0 < rng < 2^32 - 1: numpy's 32-bit
 * Lemire method with its rejection loop (buffered_bounded_lemire_uint32
 * in numpy/random/src/distributions/distributions.c), so the value and
 * the number of 32-bit draws both match numpy. */
static uint32_t lemire_u32(ReproBitGen *bg, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)(m & 0xFFFFFFFFULL);
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)(m & 0xFFFFFFFFULL);
        }
    }
    return (uint32_t)(m >> 32);
}

/* k random schedule orders into the rows of out (k*n): the Kahn walk of
 * the Python suite builder (repro.evaluation.schedules, one walk per
 * row, same draws).  The ready list starts with
 * the sources in task order; each step draws pos = integers(n_ready)
 * (no draw when one task is ready), swaps ready[pos] with the last
 * entry, pops it, and appends the successors (succ_ptr/succ_dst CSR, in
 * successor order) whose in-degree drops to zero.  ready and indeg are
 * n-long workspaces; n < 2^32.  Returns the number of positions filled,
 * k*n unless the graph has a cycle. */
int64_t repro_random_orders(const int64_t *succ_ptr, const int64_t *succ_dst,
                            const int64_t *indeg0, int64_t n, int64_t k,
                            ReproBitGen *bg, int64_t *out,
                            int64_t *ready, int64_t *indeg)
{
    int64_t filled = 0;
    for (int64_t r = 0; r < k; r++) {
        int64_t *row = out + r * n;
        int64_t n_ready = 0, len = 0;
        for (int64_t i = 0; i < n; i++) {
            indeg[i] = indeg0[i];
            if (indeg0[i] == 0) ready[n_ready++] = i;
        }
        while (n_ready > 0) {
            const int64_t pos = n_ready > 1
                ? (int64_t)lemire_u32(bg, (uint32_t)(n_ready - 1)) : 0;
            const int64_t t = ready[pos];
            ready[pos] = ready[n_ready - 1];
            n_ready--;
            row[len++] = t;
            for (int64_t e = succ_ptr[t]; e < succ_ptr[t + 1]; e++) {
                const int64_t s = succ_dst[e];
                if (--indeg[s] == 0) ready[n_ready++] = s;
            }
        }
        filled += len;
    }
    return filled;
}

/* Generator.permutation's swap index for Fisher-Yates step i (0 < max
 * < 2^32): numpy's masked rejection on 32-bit draws (random_interval in
 * numpy/random/src/distributions/distributions.c), not Lemire. */
static uint32_t interval_u32(ReproBitGen *bg, uint32_t max)
{
    uint32_t mask = max;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    uint32_t value;
    while ((value = bg->next_uint32(bg->state) & mask) > max)
        ;
    return value;
}

/* The area repair's tables: per-task area, and per area device (in
 * Platform.area_capacities() order) its index, capacity and guard band,
 * both computed by the caller. */
typedef struct {
    int64_t n, m, host, n_area;
    const double *area;        /* n */
    const int64_t *area_dev;   /* n_area */
    const double *capacity;    /* n_area */
    const double *band;        /* n_area */
} ReproRepair;

/* One repro_vary call's resumable state.  stage 0 runs crossover and
 * mutation first (1: repair only); the repair resumes at area device
 * dev, row row.  forced is the caller's usage decision (0/1) for that
 * row, or -1; n_perm is the length of the permutation left in work
 * when the call returns REPRO_VARY_WALK. */
typedef struct {
    int64_t stage, dev, row, forced, n_perm;
} ReproVary;

#define REPRO_VARY_DONE 0
#define REPRO_VARY_USAGE 1
#define REPRO_VARY_WALK 2

/* One NSGA-II generation's variation of the P rows of pop (P*n), in
 * place, drawing through the caller's bit generator exactly as the
 * numpy reference (repro.mappers.genetic.vary_reference) does:
 * - crossover: per pair (rows i, i+1) one random(); below the rate and
 *   for n > 1 a cut integers(1, n) (no draw for n == 2), and the tails
 *   from the cut on swap;
 * - mutation: P*n random() in row-major order first, then one
 *   integers(0, m) per marked gene in flat order (no draw for m == 1);
 * - repair: per area device, rows in ascending order; a row over its
 *   capacity draws a permutation of its genes on the device and sends
 *   them to the host in that order until the usage fits.
 * work holds >= max(P*n, n) int64.  The area sums here run in gene
 * order, numpy's in BLAS/pairwise order: a comparison of a sum with
 * its capacity inside the guard band returns REPRO_VARY_USAGE (the
 * row's usage; the caller sets forced) or REPRO_VARY_WALK (a step of
 * the row's walk; the caller finishes the row from the permutation in
 * work and advances row), and the next call resumes there.  Returns
 * REPRO_VARY_DONE when the repair is complete. */
int64_t repro_vary(const ReproRepair *rp, int64_t *pop, int64_t P,
                   double crossover_rate, double mutation_rate,
                   ReproBitGen *bg, int64_t *work, ReproVary *st)
{
    const int64_t n = rp->n;
    if (st->stage == 0) {
        st->stage = 1;
        for (int64_t i = 0; i + 1 < P; i += 2) {
            if (bg->next_double(bg->state) < crossover_rate && n > 1) {
                const int64_t cut = 1 + (n > 2
                    ? (int64_t)lemire_u32(bg, (uint32_t)(n - 2)) : 0);
                int64_t *a = pop + i * n, *b = a + n;
                for (int64_t g = cut; g < n; g++) {
                    const int64_t t = a[g];
                    a[g] = b[g];
                    b[g] = t;
                }
            }
        }
        int64_t marked = 0;
        for (int64_t g = 0; g < P * n; g++)
            if (bg->next_double(bg->state) < mutation_rate) work[marked++] = g;
        for (int64_t q = 0; q < marked; q++)
            pop[work[q]] = rp->m > 1
                ? (int64_t)lemire_u32(bg, (uint32_t)(rp->m - 1)) : 0;
    }
    for (; st->dev < rp->n_area; st->dev++, st->row = 0) {
        const int64_t d = rp->area_dev[st->dev];
        const double cap = rp->capacity[st->dev], band = rp->band[st->dev];
        for (; st->row < P; st->row++) {
            int64_t *genome = pop + st->row * n;
            int over = (int)st->forced;
            st->forced = -1;
            if (over < 0) {
                double usage = 0.0;
                for (int64_t g = 0; g < n; g++)
                    if (genome[g] == d) usage += rp->area[g];
                if (fabs(usage - cap) <= band) return REPRO_VARY_USAGE;
                over = usage > cap;
            }
            if (!over) continue;
            int64_t len = 0;
            double used = 0.0;
            for (int64_t g = 0; g < n; g++)
                if (genome[g] == d) { work[len++] = g; used += rp->area[g]; }
            for (int64_t i = len - 1; i > 0; i--) {
                const int64_t j = (int64_t)interval_u32(bg, (uint32_t)i);
                const int64_t t = work[i];
                work[i] = work[j];
                work[j] = t;
            }
            for (int64_t q = 0; q < len; q++) {
                if (fabs(used - cap) <= band) {
                    st->n_perm = len;
                    return REPRO_VARY_WALK;
                }
                if (used <= cap) break;
                genome[work[q]] = rp->host;
                used -= rp->area[work[q]];
            }
        }
    }
    return REPRO_VARY_DONE;
}
"""

_P = ctypes.POINTER
_f64 = _P(ctypes.c_double)
_i64 = _P(ctypes.c_int64)
_u8 = _P(ctypes.c_uint8)


class ReproCtx(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("m", ctypes.c_int64),
        ("n_slots", ctypes.c_int64),
        ("exec_t", _f64),
        ("fill_t", _f64),
        ("initial_t", _f64),
        ("final_t", _f64),
        ("pred_ptr", _i64),
        ("pred_src", _i64),
        ("pred_trans", _f64),
        ("streaming", _u8),
        ("serializes", _u8),
        ("slot_ptr", _i64),
    ]


class ReproDelta(ctypes.Structure):
    _fields_ = [
        ("mapping", _i64),
        ("order", _i64),
        ("pos", _i64),
        ("base_start", _f64),
        ("base_finish", _f64),
        ("ts", _f64),
        ("tf", _f64),
        ("snap_avail", _f64),
        ("pre_ms", _f64),
        ("avail_ws", _f64),
        ("old_ws", _i64),
    ]


#: bucket count of ``ReproScan.suffix_buckets`` (bit lengths 0..63 of a
#: non-negative int64), mirrored from the C struct (lint rule KER001)
SCAN_BUCKETS = 64


class ReproMoves(ctypes.Structure):
    _fields_ = [
        ("n_moves", ctypes.c_int64),
        ("n_area", ctypes.c_int64),
        ("cand_ptr", _i64),
        ("members", _i64),
        ("first_pos", _i64),
        ("cand_area", _f64),
        ("move_cand", _i64),
        ("move_dev", _i64),
        ("area", _f64),
        ("area_dev", _i64),
        ("area_limit", _f64),
        ("area_band", _f64),
        ("usage", _f64),
    ]


class ReproScan(ctypes.Structure):
    _fields_ = [
        ("next", ctypes.c_int64),
        ("forced", ctypes.c_int64),
        ("best", ctypes.c_double),
        ("best_idx", ctypes.c_int64),
        ("n_evals", ctypes.c_int64),
        ("delta_work", ctypes.c_double),
        ("suffix_total", ctypes.c_int64),
        ("suffix_buckets", ctypes.c_int64 * SCAN_BUCKETS),
    ]


class ReproRepair(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int64),
        ("m", ctypes.c_int64),
        ("host", ctypes.c_int64),
        ("n_area", ctypes.c_int64),
        ("area", _f64),
        ("area_dev", _i64),
        ("capacity", _f64),
        ("band", _f64),
    ]


class ReproVary(ctypes.Structure):
    _fields_ = [
        ("stage", ctypes.c_int64),
        ("dev", ctypes.c_int64),
        ("row", ctypes.c_int64),
        ("forced", ctypes.c_int64),
        ("n_perm", ctypes.c_int64),
    ]


#: ``repro_vary``'s return codes, mirrored from the C ``#define``s
#: (lint rule KER001): repair complete, a row's usage inside the guard
#: band, a step of a row's walk inside the guard band
VARY_DONE, VARY_USAGE, VARY_WALK = 0, 1, 2


def _require(arr, dtype, shape, name) -> None:
    """Raise :class:`ValueError` unless ``arr`` is a C-contiguous numpy
    array of ``dtype`` and ``shape`` (the C entries trust both)."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.shape == shape and arr.flags.c_contiguous):
        got = (f"{arr.dtype} {arr.shape}" if isinstance(arr, np.ndarray)
               else type(arr).__name__)
        raise ValueError(
            f"{name}: expected a C-contiguous {np.dtype(dtype)} array of "
            f"shape {shape}, got {got}"
        )


def _require_range(arr, hi, name, what="index") -> None:
    """Raise :class:`ValueError` unless every entry of ``arr`` is in
    ``[0, hi)``."""
    if arr.size and (arr.min() < 0 or arr.max() >= hi):
        raise ValueError(f"{name}: {what} outside [0, {hi})")


def _require_csr(ptr, size, name) -> None:
    """Raise :class:`ValueError` unless ``ptr`` is a CSR offset array
    over ``size`` entries: starts at 0, never decreases, ends at
    ``size``."""
    if ptr[0] != 0 or ptr[-1] != size or (np.diff(ptr) < 0).any():
        raise ValueError(f"{name}: malformed CSR offsets")


def _ptr(arr, typ):
    """Raw data pointer of a C-contiguous numpy array as a ctypes pointer."""
    return ctypes.cast(arr.ctypes.data, typ)


class CKernel:
    """Loaded C kernel: typed entry points over the shared library."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.lib = lib
        # array arguments are declared void* so callers can pass the raw
        # integer from ndarray.ctypes.data without a per-call cast
        vp = ctypes.c_void_p
        lib.repro_span.restype = ctypes.c_double
        lib.repro_span.argtypes = [vp, vp, vp, vp, vp, vp, ctypes.c_int]
        lib.repro_span_batch_dedup.restype = ctypes.c_int64
        lib.repro_span_batch_dedup.argtypes = [
            vp,
            vp,
            vp,
            ctypes.c_int64,
            vp,
            vp,
            vp,
            ctypes.c_int64,
            vp,
            vp,
            vp,
        ]
        lib.repro_rebuild_from.restype = ctypes.c_double
        lib.repro_rebuild_from.argtypes = [vp, vp, ctypes.c_int64]
        lib.repro_eval_move.restype = ctypes.c_double
        lib.repro_eval_move.argtypes = [
            vp,
            vp,
            vp,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_double,
        ]
        lib.repro_scan.restype = ctypes.c_int64
        lib.repro_scan.argtypes = [
            vp,
            vp,
            vp,
            vp,
            vp,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_double,
            vp,
        ]
        lib.repro_span_min.restype = ctypes.c_double
        lib.repro_span_min.argtypes = [vp, vp, vp, ctypes.c_int64, vp, vp, vp]
        lib.repro_random_orders.restype = ctypes.c_int64
        lib.repro_random_orders.argtypes = [
            vp,
            vp,
            vp,
            ctypes.c_int64,
            ctypes.c_int64,
            vp,
            vp,
            vp,
            vp,
        ]
        lib.repro_vary.restype = ctypes.c_int64
        lib.repro_vary.argtypes = [
            vp,
            vp,
            ctypes.c_int64,
            ctypes.c_double,
            ctypes.c_double,
            vp,
            vp,
            vp,
        ]

    # ------------------------------------------------------------------
    def span_min(self, ctx, mapping, orders, start, finish, avail) -> float:
        """Minimum makespan of ``mapping`` over the rows of ``orders``
        (``repro_span_min``); ``start``/``finish``/``avail`` are
        workspaces.  Every buffer and the device and task indices are
        checked before the call, because the C side indexes with them
        unchecked."""
        n = ctx.n
        _require(mapping, np.int64, (n,), "mapping")
        _require(orders, np.int64, (len(orders), n), "orders")
        _require(start, np.float64, (n,), "start")
        _require(finish, np.float64, (n,), "finish")
        _require(avail, np.float64, (max(1, ctx.n_slots),), "avail")
        if n and (mapping.min() < 0 or mapping.max() >= ctx.m):
            raise ValueError(f"mapping: device index outside [0, {ctx.m})")
        if orders.size and (orders.min() < 0 or orders.max() >= n):
            raise ValueError(f"orders: task index outside [0, {n})")
        return self.lib.repro_span_min(
            ctypes.byref(ctx), mapping.ctypes.data, orders.ctypes.data,
            len(orders), start.ctypes.data, finish.ctypes.data,
            avail.ctypes.data,
        )

    def random_orders(self, succ_ptr, succ_dst, indeg, k, rng):
        """``k`` random topological orders as one ``(k, n)`` int64 array
        (``repro_random_orders``), drawn through ``rng``'s bit generator
        with its lock held: the orders and the generator's state
        afterwards equal ``k`` calls of the Python walk.  Raises
        :class:`ValueError` when the CSR arrays are malformed or the graph
        has a cycle."""
        n = len(indeg)
        _require(indeg, np.int64, (n,), "indeg")
        _require(succ_ptr, np.int64, (n + 1,), "succ_ptr")
        _require(succ_dst, np.int64, (len(succ_dst),), "succ_dst")
        if n >= 1 << 32:
            raise ValueError(f"random_orders: {n} tasks, at most 2**32 - 1")
        if (succ_ptr[0] != 0 or succ_ptr[n] != len(succ_dst)
                or (np.diff(succ_ptr) < 0).any()
                or (len(succ_dst) and (succ_dst.min() < 0
                                       or succ_dst.max() >= n))):
            raise ValueError("random_orders: malformed successor CSR")
        out = np.empty((k, n), dtype=np.int64)
        ready = np.empty(n, dtype=np.int64)
        work = np.empty(n, dtype=np.int64)
        bitgen = rng.bit_generator
        with bitgen.lock:
            filled = self.lib.repro_random_orders(
                succ_ptr.ctypes.data, succ_dst.ctypes.data, indeg.ctypes.data,
                n, k, bitgen.ctypes.bit_generator, out.ctypes.data,
                ready.ctypes.data, work.ctypes.data,
            )
        if filled != k * n:
            raise ValueError("random_orders: the graph has a cycle")
        return out

    def make_repair(self, area, area_dev, capacity, band, host, m
                    ) -> ReproRepair:
        """Build ``repro_vary``'s ``ReproRepair`` tables over ``n`` task
        areas and the area devices' indices, capacities and guard bands,
        after checking every buffer and the device indices.  The buffers
        ride along on the struct (``_buffers``)."""
        n, n_area = len(area), len(area_dev)
        _require(area, np.float64, (n,), "area")
        _require(area_dev, np.int64, (n_area,), "area_dev")
        _require(capacity, np.float64, (n_area,), "capacity")
        _require(band, np.float64, (n_area,), "band")
        _require_range(area_dev, m, "area_dev", "device index")
        if not 0 <= host < m:
            raise ValueError(f"host: device index outside [0, {m})")
        if n >= 1 << 32 or m >= 1 << 32:
            raise ValueError(f"make_repair: {n} tasks, {m} devices, "
                             f"each at most 2**32 - 1")
        tables = ReproRepair(
            n=n, m=m, host=host, n_area=n_area,
            area=_ptr(area, _f64),
            area_dev=_ptr(area_dev, _i64),
            capacity=_ptr(capacity, _f64),
            band=_ptr(band, _f64),
        )
        tables._buffers = (area, area_dev, capacity, band)
        # repro_vary's workspace (>= max(P*n, n) int64), grown by vary
        tables._work = np.empty(max(1, n), dtype=np.int64)
        tables._work_p = tables._work.ctypes.data
        return tables

    def vary(self, tables, pop, rng, crossover_rate, mutation_rate,
             recount_usage, finish_row, *, variation=True) -> None:
        """Crossover, mutation and area repair of the rows of ``pop``,
        in place, as ``repro_vary`` calls drawing through ``rng``'s bit
        generator with its lock held (``variation=False``: the repair
        only).  A guard-band comparison comes back here:
        ``recount_usage(dev, row)`` returns the row's numpy usage
        decision, and ``finish_row(dev, row, perm)`` finishes the row's
        walk over the drawn permutation.  Neither may draw from
        ``rng``.  The C side only compares and overwrites the genes of
        ``pop``, never indexes with them, so they need no range check;
        the workspace on ``tables`` makes concurrent calls on one
        model unsafe, as with the model's other workspaces."""
        P, n = pop.shape
        _require(pop, np.int64, (P, n), "pop")
        if n != tables.n:
            raise ValueError(f"pop: expected {tables.n} genes, got {n}")
        work = tables._work
        if len(work) < P * n:
            work = tables._work = np.empty(P * n, dtype=np.int64)
            tables._work_p = work.ctypes.data
        state = ReproVary(stage=0 if variation else 1, forced=-1)
        bitgen = rng.bit_generator
        args = (ctypes.byref(tables), pop.ctypes.data, P, crossover_rate,
                mutation_rate, bitgen.ctypes.bit_generator, tables._work_p,
                ctypes.byref(state))
        with bitgen.lock:
            code = self.lib.repro_vary(*args)
            while code != VARY_DONE:
                if code == VARY_USAGE:
                    state.forced = int(recount_usage(state.dev, state.row))
                else:
                    finish_row(state.dev, state.row, work[:state.n_perm])
                    state.row += 1
                code = self.lib.repro_vary(*args)

    # ------------------------------------------------------------------
    def make_delta(
        self,
        ctx,
        mapping,
        order,
        pos,
        base_start,
        base_finish,
        ts,
        tf,
        snap_avail,
        pre_ms,
        avail_ws,
        old_ws,
    ) -> ReproDelta:
        """Build a ``ReproDelta`` for ``ctx`` over preallocated numpy
        buffers, after checking every buffer's dtype, shape and
        C-contiguity and the range of ``order`` and ``pos``.

        The buffers must stay alive and must never be reallocated (refill
        in place) — the struct holds raw pointers into them.  ``mapping``
        is filled later; its devices are checked where a mapping comes
        in (``DeltaEvaluator.reset``).
        """
        n = ctx.n
        for arr, name in ((mapping, "mapping"), (order, "order"),
                          (pos, "pos"), (old_ws, "old_ws")):
            _require(arr, np.int64, (n,), name)
        for arr, name in ((base_start, "base_start"),
                          (base_finish, "base_finish"), (ts, "ts"),
                          (tf, "tf"), (pre_ms, "pre_ms")):
            _require(arr, np.float64, (n,), name)
        _require(snap_avail, np.float64, (n, ctx.n_slots), "snap_avail")
        _require(avail_ws, np.float64, (max(1, ctx.n_slots),), "avail_ws")
        _require_range(order, n, "order", "task index")
        _require_range(pos, n, "pos", "schedule position")
        return ReproDelta(
            mapping=_ptr(mapping, _i64),
            order=_ptr(order, _i64),
            pos=_ptr(pos, _i64),
            base_start=_ptr(base_start, _f64),
            base_finish=_ptr(base_finish, _f64),
            ts=_ptr(ts, _f64),
            tf=_ptr(tf, _f64),
            snap_avail=_ptr(snap_avail, _f64),
            pre_ms=_ptr(pre_ms, _f64),
            avail_ws=_ptr(avail_ws, _f64),
            old_ws=_ptr(old_ws, _i64),
        )

    # ------------------------------------------------------------------
    def make_ctx(self, flat) -> ReproCtx:
        """Build a ``ReproCtx`` over a FlatModel's arrays, after checking
        their dtypes, shapes and C-contiguity, the predecessor and slot
        CSR offsets and the predecessor task indices.

        The caller must keep ``flat`` (and the returned struct) alive as
        long as the context is used — the struct holds raw pointers into
        the FlatModel's numpy buffers.
        """
        n, m, n_slots = flat.n, flat.m, flat.n_slots
        for arr, name in ((flat.exec, "exec"), (flat.fill, "fill"),
                          (flat.initial, "initial"), (flat.final, "final")):
            _require(arr, np.float64, (n, m), name)
        _require(flat.pred_ptr, np.int64, (n + 1,), "pred_ptr")
        n_edges = len(flat.pred_src)
        _require(flat.pred_src, np.int64, (n_edges,), "pred_src")
        _require(flat.pred_trans, np.float64, (n_edges, m * m), "pred_trans")
        _require(flat.streaming_u8, np.uint8, (m,), "streaming")
        _require(flat.serializes_u8, np.uint8, (m,), "serializes")
        _require(flat.slot_ptr, np.int64, (m + 1,), "slot_ptr")
        _require_csr(flat.pred_ptr, n_edges, "pred_ptr")
        _require_csr(flat.slot_ptr, n_slots, "slot_ptr")
        _require_range(flat.pred_src, n, "pred_src", "task index")
        return ReproCtx(
            n=n,
            m=m,
            n_slots=n_slots,
            exec_t=_ptr(flat.exec, _f64),
            fill_t=_ptr(flat.fill, _f64),
            initial_t=_ptr(flat.initial, _f64),
            final_t=_ptr(flat.final, _f64),
            pred_ptr=_ptr(flat.pred_ptr, _i64),
            pred_src=_ptr(flat.pred_src, _i64),
            pred_trans=_ptr(flat.pred_trans, _f64),
            streaming=_ptr(flat.streaming_u8, _u8),
            serializes=_ptr(flat.serializes_u8, _u8),
            slot_ptr=_ptr(flat.slot_ptr, _i64),
        )

    # ------------------------------------------------------------------
    def make_moves(
        self,
        ctx,
        cand_ptr,
        members,
        first_pos,
        cand_area,
        move_cand,
        move_dev,
        area,
        area_dev,
        area_limit,
        area_band,
        usage,
    ) -> ReproMoves:
        """Build the ``ReproMoves`` tables of ``repro_scan`` for ``ctx``,
        after checking every buffer's dtype, shape and C-contiguity, the
        member CSR (each candidate at most ``n`` long, the size of the
        delta state's ``old_ws``) and the range of every task, position,
        candidate and device index the C side reads through.

        The struct holds raw pointers; the buffers ride along on it
        (``_buffers``), and ``usage`` is refilled in place by its owner.
        """
        n, m = ctx.n, ctx.m
        n_cand = len(first_pos)
        n_moves = len(move_cand)
        n_area = len(area_dev)
        _require(cand_ptr, np.int64, (n_cand + 1,), "cand_ptr")
        _require(members, np.int64, (len(members),), "members")
        _require(first_pos, np.int64, (n_cand,), "first_pos")
        _require(cand_area, np.float64, (n_cand,), "cand_area")
        _require(move_cand, np.int64, (n_moves,), "move_cand")
        _require(move_dev, np.int64, (n_moves,), "move_dev")
        _require(area, np.float64, (n,), "area")
        _require(area_dev, np.int64, (n_area,), "area_dev")
        for arr, name in ((area_limit, "area_limit"),
                          (area_band, "area_band"), (usage, "usage")):
            _require(arr, np.float64, (n_area,), name)
        _require_csr(cand_ptr, len(members), "cand_ptr")
        if n_cand and np.diff(cand_ptr).max() > n:
            raise ValueError(f"cand_ptr: a candidate longer than {n} tasks")
        _require_range(members, n, "members", "task index")
        _require_range(first_pos, n, "first_pos", "schedule position")
        _require_range(move_cand, n_cand, "move_cand", "candidate index")
        _require_range(move_dev, m, "move_dev", "device index")
        _require_range(area_dev, m, "area_dev", "device index")
        buffers = (cand_ptr, members, first_pos, cand_area, move_cand,
                   move_dev, area, area_dev, area_limit, area_band, usage)
        moves = ReproMoves(
            n_moves=n_moves,
            n_area=n_area,
            cand_ptr=_ptr(cand_ptr, _i64),
            members=_ptr(members, _i64),
            first_pos=_ptr(first_pos, _i64),
            cand_area=_ptr(cand_area, _f64),
            move_cand=_ptr(move_cand, _i64),
            move_dev=_ptr(move_dev, _i64),
            area=_ptr(area, _f64),
            area_dev=_ptr(area_dev, _i64),
            area_limit=_ptr(area_limit, _f64),
            area_band=_ptr(area_band, _f64),
            usage=_ptr(usage, _f64),
        )
        moves._buffers = buffers
        return moves


#: base compile flags (part of the .so cache key, so changing them
#: recompiles).  -O3/-funroll-loops only reorder integer/branch work;
#: float semantics stay strict IEEE (-ffp-contract=off, fast-math never
#: passed), so the optimized build remains bit-identical to the Python
#: kernel.
_CFLAGS = ["-O3", "-funroll-loops", "-fPIC", "-shared", "-ffp-contract=off"]

#: ``REPRO_CKERNEL_SANITIZE`` tokens -> -fsanitize= groups.  asan/ubsan
#: are the spellings the CI jobs use; the long names work too.
_SANITIZERS = {
    "asan": "address",
    "address": "address",
    "ubsan": "undefined",
    "undefined": "undefined",
}


def sanitize_flags() -> list:
    """Extra compile flags from ``REPRO_CKERNEL_SANITIZE``.

    ``REPRO_CKERNEL_SANITIZE=asan,ubsan`` builds the kernel with
    ``-fsanitize=address,undefined -fno-omit-frame-pointer``.  The flags
    are folded into the ``.so`` cache key (exactly like the PR 4 flag
    change), so plain and sanitized builds coexist in the cache and
    flipping the variable between runs never serves a stale build.
    Sanitizers instrument memory/UB checks only — float semantics are
    untouched, so a sanitized kernel stays bit-identical to the
    reference walk (pinned by the ``kernel-sanitize`` CI job running
    the full equivalence suite under this variable).

    Unknown tokens raise :class:`ValueError`: a typo'd sanitizer must
    not silently run an unsanitized (or worse, pure-Python) kernel.
    """
    spec = os.environ.get("REPRO_CKERNEL_SANITIZE", "")
    groups = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        group = _SANITIZERS.get(token)
        if group is None:
            raise ValueError(
                f"REPRO_CKERNEL_SANITIZE: unknown sanitizer {token!r} "
                f"(known: {', '.join(sorted(set(_SANITIZERS)))})"
            )
        if group not in groups:
            groups.append(group)
    if not groups:
        return []
    return ["-fsanitize=" + ",".join(groups), "-fno-omit-frame-pointer"]


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-kernel")


#: appended to the C source for ``-fsanitize=address`` builds.  ASan
#: reads its options from /proc/self/environ at init, so an in-process
#: ``os.environ`` change cannot reach it; exporting the defaults from
#: the instrumented .so itself can.  ``verify_asan_link_order=0``
#: accepts dlopen() into an uninstrumented CPython (kernel code stays
#: fully instrumented); ``detect_leaks=0`` silences LeakSanitizer noise
#: from the host interpreter's own allocations.  A real ``ASAN_OPTIONS``
#: in the launch environment still overrides these defaults.
_ASAN_DEFAULTS = """
const char *__asan_default_options(void) {
    return "verify_asan_link_order=0:detect_leaks=0";
}
"""


def _effective_source(cflags) -> str:
    if any(f.startswith("-fsanitize=") and "address" in f for f in cflags):
        return _C_SOURCE + _ASAN_DEFAULTS
    return _C_SOURCE


def _source_hash(cflags) -> str:
    """Cache key: effective source text + flags + python version."""
    return hashlib.sha256(
        (_effective_source(cflags) + " ".join(cflags)
         + sys.version.split()[0]).encode()
    ).hexdigest()[:16]


def _compile(cflags) -> Optional[str]:
    """Compile the kernel with ``cflags``; return the .so path or None."""
    so_name = f"ckernel-{_source_hash(cflags)}.so"
    for cc in ("cc", "gcc", "clang"):
        try:
            cache = _cache_dir()
            os.makedirs(cache, exist_ok=True)
            so_path = os.path.join(cache, so_name)
            if os.path.exists(so_path):
                return so_path
            with tempfile.TemporaryDirectory() as tmp:
                c_path = os.path.join(tmp, "kernel.c")
                with open(c_path, "w") as fh:
                    fh.write(_effective_source(cflags))
                # stage the .so in the cache dir itself: os.replace is
                # atomic only within one filesystem, and the system
                # tmpdir is often a different mount — a cross-device
                # move can fail or copy non-atomically, letting a
                # concurrent process dlopen a half-written file
                stage = f"{so_path}.tmp.{os.getpid()}"
                try:
                    subprocess.run(
                        [cc, *cflags, "-o", stage, c_path],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                    os.replace(stage, so_path)  # atomic under concurrency
                finally:
                    if os.path.exists(stage):
                        os.unlink(stage)
            return so_path
        # any failure => try the next compiler, else the silent
        # pure-Python fallback: the C path is an optimization, never a
        # requirement
        except Exception:  # noqa: BLE001  # repro-lint: disable=EXC001
            continue
    return None


_LOADED: Optional[CKernel] = None
_TRIED = False
_SO_PATH: Optional[str] = None
_SANITIZE: list = []


def load_ckernel() -> Optional[CKernel]:
    """The process-wide kernel, compiled/loaded on first use (or None).

    The first call in a process decides the build (including
    ``REPRO_PURE_PYTHON`` and ``REPRO_CKERNEL_SANITIZE``); later changes
    to either variable require a new process, same as before.
    """
    global _LOADED, _TRIED, _SO_PATH, _SANITIZE
    if _TRIED:
        return _LOADED
    _TRIED = True
    if os.environ.get("REPRO_PURE_PYTHON"):
        return None
    extra = sanitize_flags()  # raises on a typo'd sanitizer — see above
    so_path = _compile(_CFLAGS + extra)
    if so_path is None:
        return None
    try:
        _LOADED = CKernel(ctypes.CDLL(so_path))
        _SO_PATH = so_path
        _SANITIZE = extra
    except Exception:  # noqa: BLE001
        _LOADED = None
    return _LOADED


def kernel_status() -> dict:
    """Which span kernel this process runs, and why — the ``repro env``
    / benchmark-stamp view of :func:`load_ckernel`.

    Triggers a compile attempt on first call (same as any evaluation
    would), so ``available`` reflects what a real run will actually use.
    """
    kern = load_ckernel()
    return {
        "kernel": "c" if kern is not None else "python",
        "available": kern is not None,
        "pure_python_forced": bool(os.environ.get("REPRO_PURE_PYTHON")),
        "so_path": _SO_PATH,
        "cache_dir": _cache_dir(),
        "cflags": " ".join(_CFLAGS + _SANITIZE),
        "sanitize": os.environ.get("REPRO_CKERNEL_SANITIZE", "") or None,
    }


# ---------------------------------------------------------------------------
# consistency between the embedded C source and its Python mirrors
# ---------------------------------------------------------------------------

def source_consistency_problems() -> list:
    """Mismatches between ``_C_SOURCE`` and the Python-side mirrors.

    Returns ``[(line, message), ...]`` — empty when consistent — where
    ``line`` points into *this* file at the offending C statement.  The
    checked invariants (lint rule KER001):

    - the in-kernel dedup's FNV-1a offset basis and prime equal
      ``repro.evaluation.kernel.DEDUP_FNV_OFFSET`` / ``DEDUP_FNV_PRIME``
      (``CostModel.simulate_many`` sizes and trusts the same table);
    - the documented table-sizing contract (``>= FACTOR*B`` slots)
      matches ``DEDUP_TABLE_FACTOR``;
    - infeasible lanes are marked with C ``INFINITY``, which is the same
      sentinel as ``costmodel.INFEASIBLE`` / ``kernel.INF``;
    - ``ReproScan.suffix_buckets`` has :data:`SCAN_BUCKETS` entries, the
      length of the ctypes mirror that ``DeltaEvaluator.scan`` reads.
    - ``repro_vary``'s return codes equal :data:`VARY_DONE`,
      :data:`VARY_USAGE` and :data:`VARY_WALK`, which
      :meth:`CKernel.vary` dispatches on.
    """
    import re

    from .costmodel import INFEASIBLE
    from .kernel import (
        DEDUP_FNV_OFFSET,
        DEDUP_FNV_PRIME,
        DEDUP_TABLE_FACTOR,
        INF,
    )

    problems = []

    def c_line(pattern: str) -> int:
        """1-based line of the first match of ``pattern`` in this file."""
        with open(__file__, encoding="utf-8") as fh:
            for lineno, text in enumerate(fh, start=1):
                if re.search(pattern, text):
                    return lineno
        return 1

    def check(pattern: str, expected: int, what: str,
              mirror: str = "repro.evaluation.kernel") -> None:
        m = re.search(pattern, _C_SOURCE)
        if m is None:
            problems.append((
                c_line(r"_C_SOURCE = r"),
                f"C source: cannot locate the {what} "
                f"(pattern {pattern!r}); update the mirror check",
            ))
        elif int(m.group(1)) != expected:
            problems.append((
                c_line(pattern),
                f"C {what} is {m.group(1)}, Python mirror "
                f"({mirror}) says {expected}",
            ))

    check(r"uint64_t h = (\d+)ULL", DEDUP_FNV_OFFSET, "FNV-1a offset basis")
    check(r"\* (\d+)ULL", DEDUP_FNV_PRIME, "FNV-1a prime")
    check(
        r">=\s*(\d+)\*B", DEDUP_TABLE_FACTOR,
        "dedup table-sizing factor (slots per lane)",
    )
    check(
        r"suffix_buckets\[(\d+)\]", SCAN_BUCKETS,
        "scan suffix-bucket count", "_ckernel.SCAN_BUCKETS",
    )
    for name, value in (("DONE", VARY_DONE), ("USAGE", VARY_USAGE),
                        ("WALK", VARY_WALK)):
        check(
            rf"#define REPRO_VARY_{name} (\d+)", value,
            f"repro_vary return code {name}", f"_ckernel.VARY_{name}",
        )
    if "out[b] = INFINITY" not in _C_SOURCE:
        problems.append((
            c_line(r"_C_SOURCE = r"),
            "C source no longer marks infeasible lanes with INFINITY",
        ))
    if not (INFEASIBLE == INF == float("inf")):
        problems.append((
            1,
            "INFEASIBLE / kernel.INF are no longer the +inf sentinel "
            "the C kernel emits",
        ))
    return problems
