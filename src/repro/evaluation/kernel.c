
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
 * incremental area check.  Areas are integer-valued doubles (whole area
 * units), so every sum below is exact in any order; area_limit holds
 * each area device's budget in units, and usage is the base mapping's
 * per-device usage, which the caller refreshes in place whenever the
 * base changes. */
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
    const double *usage;       /* n_area */
} ReproMoves;

/* One scan pass's result and counters. */
typedef struct {
    double best;               /* basic: best makespan; gamma: best gain */
    int64_t best_idx;          /* the winning move, -1 if none */
    int64_t n_evals;           /* moves scored */
    int64_t suffix_total;      /* summed suffix lengths */
    int64_t suffix_buckets[64];/* suffix lengths by bit length */
} ReproScan;

/* DeltaEvaluator._move_feasible's incremental area check, same
 * operations in the same order: 1 feasible, 0 infeasible. */
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
        if (mv->usage[ai] - removed + added > mv->area_limit[ai]) return 0;
    }
    return 1;
}

/* One greedy scan pass over the moves in `order` (NULL: table order),
 * each scored by repro_eval_move.  A no-op move (every member already
 * on the device) is skipped; an infeasible one scores INFINITY; every
 * other move charges n_evals, suffix_total and the suffix buckets.
 * Basic mode (expected == NULL): a move gets the bound best - eps, and
 * the first makespan below best - eps wins.  Gamma mode: no bound,
 * each move's gain current - makespan goes into expected[k] (0 for a
 * no-op) and the first gain above best + eps wins; with gamma > 0 the
 * pass stops once best > eps and the next move expects at most
 * best / gamma + eps.  Returns 0, or -1 for an order entry outside
 * [0, n_moves). */
int64_t repro_scan(const ReproCtx *c, const ReproDelta *d,
                   const ReproMoves *mv, const int64_t *order,
                   double *expected, double current, double gamma,
                   double eps, ReproScan *st)
{
    const int64_t n = c->n;
    const int64_t *mp = d->mapping;
    for (int64_t j = 0; j < mv->n_moves; j++) {
        const int64_t k = order ? order[j] : j;
        if (k < 0 || k >= mv->n_moves) return -1;
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
        double ms = INFINITY;
        if (move_area_ok(mv, mp, sub, len, dev, mv->cand_area[ci])) {
            const int64_t fp = mv->first_pos[ci];
            const int64_t suffix = n - fp;
            int b = 0;
            for (uint64_t v = (uint64_t)suffix; v; v >>= 1) b++;
            st->n_evals++;
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
    return 0;
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
 * Platform.area_capacities() order) its index and budget, all in whole
 * area units (integer-valued doubles: every sum is exact). */
typedef struct {
    int64_t n, m, host, n_area;
    const double *area;        /* n */
    const int64_t *area_dev;   /* n_area */
    const double *limit;       /* n_area */
} ReproRepair;

/* One NSGA-II generation's variation of the P rows of pop (P*n), in
 * place (without variation: the repair only), drawing through the
 * caller's bit generator exactly as the numpy reference
 * (repro.mappers.genetic.vary_reference) does:
 * - crossover: per pair (rows i, i+1) one random(); below the rate and
 *   for n > 1 a cut integers(1, n) (no draw for n == 2), and the tails
 *   from the cut on swap;
 * - mutation: P*n random() in row-major order first, then one
 *   integers(0, m) per marked gene in flat order (no draw for m == 1);
 * - repair: per area device, rows in ascending order; a row over its
 *   budget draws a permutation of its genes on the device and sends
 *   them to the host in that order until the usage fits.
 * work holds >= max(P*n, n) int64.  The area sums here run in gene
 * order, numpy's in BLAS order; both are exact. */
void repro_vary(const ReproRepair *rp, int64_t *pop, int64_t P,
                int64_t variation, double crossover_rate,
                double mutation_rate, ReproBitGen *bg, int64_t *work)
{
    const int64_t n = rp->n;
    if (variation) {
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
    for (int64_t ai = 0; ai < rp->n_area; ai++) {
        const int64_t d = rp->area_dev[ai];
        const double limit = rp->limit[ai];
        for (int64_t row = 0; row < P; row++) {
            int64_t *genome = pop + row * n;
            int64_t len = 0;
            double used = 0.0;
            for (int64_t g = 0; g < n; g++)
                if (genome[g] == d) { work[len++] = g; used += rp->area[g]; }
            if (used <= limit) continue;
            for (int64_t i = len - 1; i > 0; i--) {
                const int64_t j = (int64_t)interval_u32(bg, (uint32_t)i);
                const int64_t t = work[i];
                work[i] = work[j];
                work[j] = t;
            }
            for (int64_t q = 0; q < len && used > limit; q++) {
                genome[work[q]] = rp->host;
                used -= rp->area[work[q]];
            }
        }
    }
}
