/* AddressSanitizer harness for the C kernel (src/repro/evaluation/kernel.c).
 *
 * An ASan build of the kernel loaded into CPython sees none of the
 * buffers the kernel touches: CPython and numpy allocate them all, and
 * the late-loaded ASan runtime intercepts none of those allocations.
 * This program includes kernel.c instead, so it is instrumented along
 * with the kernel, malloc()s every buffer at exactly its size and
 * replays all eight entries on them.
 *
 * Build (the test does this; -I names the directory of kernel.c):
 *
 *     cc -O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all \
 *        -ffp-contract=off -fno-omit-frame-pointer \
 *        -I src/repro/evaluation tests/kernel_harness.c -o kernel_harness -lm
 *
 * Run: kernel_harness CASE_DIR.  CASE_DIR holds one raw file per buffer
 * and per scalar (8 bytes, int64 or double), as written by
 * tests/test_kernel_harness.py: "<struct>.<field>" for the members of
 * ReproCtx, ReproDelta, ReproMoves and ReproRepair, "<entry>.<arg>" for
 * the other arguments.  Results go to "out.<name>" files beside them.
 * repro_random_orders and repro_vary draw from this program's own
 * splitmix64 generator, not numpy's.  Exit status: 0 on success, 2 on a
 * missing or unreadable file; a sanitizer report aborts with 1.
 */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "kernel.c"

static const char *case_dir;
static void *owned[128];
static int n_owned;

static FILE *open_in_case(const char *name, const char *mode)
{
    char path[4096];
    snprintf(path, sizeof path, "%s/%s", case_dir, name);
    FILE *fh = fopen(path, mode);
    if (!fh) {
        fprintf(stderr, "kernel_harness: cannot open %s\n", path);
        exit(2);
    }
    return fh;
}

/* The file `name` in a malloc()ed buffer of exactly its size. */
static void *load_sized(const char *name, size_t *size)
{
    FILE *fh = open_in_case(name, "rb");
    fseek(fh, 0, SEEK_END);
    const size_t len = (size_t)ftell(fh);
    fseek(fh, 0, SEEK_SET);
    void *buf = malloc(len);
    if ((len && !buf) || fread(buf, 1, len, fh) != len
            || n_owned == (int)(sizeof owned / sizeof owned[0])) {
        fprintf(stderr, "kernel_harness: cannot load %s\n", name);
        exit(2);
    }
    fclose(fh);
    owned[n_owned++] = buf;
    if (size) *size = len;
    return buf;
}

static void *load(const char *name) { return load_sized(name, NULL); }

static int64_t i64(const char *name)
{
    size_t len;
    const int64_t *v = load_sized(name, &len);
    if (len != sizeof *v) {
        fprintf(stderr, "kernel_harness: %s is not one int64\n", name);
        exit(2);
    }
    return *v;
}

static double f64(const char *name)
{
    size_t len;
    const double *v = load_sized(name, &len);
    if (len != sizeof *v) {
        fprintf(stderr, "kernel_harness: %s is not one double\n", name);
        exit(2);
    }
    return *v;
}

static void save(const char *name, const void *buf, size_t len)
{
    char out[256];
    snprintf(out, sizeof out, "out.%s", name);
    FILE *fh = open_in_case(out, "wb");
    fwrite(buf, 1, len, fh);
    fclose(fh);
}

static void save_f64(const char *name, double v) { save(name, &v, sizeof v); }
static void save_i64(const char *name, int64_t v) { save(name, &v, sizeof v); }

/* splitmix64 behind numpy's bitgen_t interface */
static uint64_t sm_next64(void *st)
{
    uint64_t z = (*(uint64_t *)st += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}
static uint32_t sm_next32(void *st) { return (uint32_t)(sm_next64(st) >> 32); }
static double sm_next_double(void *st)
{
    return (double)(sm_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* One scan pass from a fresh ReproScan; saves its status, its state and
 * (gamma mode) the expected gains. */
static void scan_pass(const char *name, const ReproCtx *c, const ReproDelta *d,
                      const ReproMoves *mv, const int64_t *order,
                      double *expected, double current, double gamma,
                      double eps)
{
    char key[64];
    ReproScan *st = calloc(1, sizeof *st);
    st->best = expected ? 0.0 : current;
    st->best_idx = -1;
    const int64_t status = repro_scan(c, d, mv, order, expected, current,
                                      gamma, eps, st);
    snprintf(key, sizeof key, "%s.status", name);
    save_i64(key, status);
    snprintf(key, sizeof key, "%s.state", name);
    save(key, st, sizeof *st);
    if (expected) {
        snprintf(key, sizeof key, "%s.expected", name);
        save(key, expected, (size_t)mv->n_moves * sizeof *expected);
    }
    free(st);
}

int main(int argc, char **argv)
{
    if (argc != 2) {
        fprintf(stderr, "usage: kernel_harness CASE_DIR\n");
        return 2;
    }
    case_dir = argv[1];

    ReproCtx *c = malloc(sizeof *c);
    *c = (ReproCtx){
        i64("ctx.n"), i64("ctx.m"), i64("ctx.n_slots"),
        load("ctx.exec_t"), load("ctx.fill_t"), load("ctx.initial_t"),
        load("ctx.final_t"), load("ctx.pred_ptr"), load("ctx.pred_src"),
        load("ctx.pred_trans"), load("ctx.streaming"),
        load("ctx.serializes"), load("ctx.slot_ptr"),
    };
    const int64_t n = c->n;  /* a graph has at least one task */
    /* bytes of one n-long row of int64 or double values */
    const size_t row_bytes = (size_t)n * sizeof(double);

    /* repro_span, with and without slot contention */
    const int64_t *mapping = load("span.mapping");
    const int64_t *bfs = load("span.order");
    double *start = load("span.start"), *finish = load("span.finish");
    double *avail = load("span.avail");
    save_f64("span1.ms", repro_span(c, mapping, bfs, start, finish, avail, 1));
    save("span1.start", start, row_bytes);
    save("span1.finish", finish, row_bytes);
    save_f64("span0.ms", repro_span(c, mapping, bfs, start, finish, avail, 0));
    save("span0.start", start, row_bytes);
    save("span0.finish", finish, row_bytes);

    /* repro_span_batch_dedup over duplicate and infeasible lanes */
    size_t feas_len, table_len;
    const int64_t *lanes = load("batch.mappings");
    const uint8_t *feas = load_sized("batch.feas", &feas_len);
    double *out = load("batch.out");
    int64_t *table = load_sized("batch.table", &table_len);
    const int64_t n_lanes = (int64_t)feas_len;
    save_i64("batch.simulated", repro_span_batch_dedup(
        c, lanes, bfs, n_lanes, feas, out, table,
        (int64_t)(table_len / sizeof *table), start, finish, avail));
    save("batch.out", out, (size_t)n_lanes * sizeof *out);

    /* repro_span_min over a schedule suite */
    size_t orders_len;
    const int64_t *orders = load_sized("min.orders", &orders_len);
    const int64_t k_orders = (int64_t)(orders_len / row_bytes);
    save_f64("min.ms", repro_span_min(c, mapping, orders, k_orders,
                                      start, finish, avail));

    /* repro_rebuild_from: full, resumed after a move, resumed after its
     * undo; then repro_eval_move with and without a bound */
    ReproDelta *d = malloc(sizeof *d);
    *d = (ReproDelta){
        load("delta.mapping"), load("delta.order"), load("delta.pos"),
        load("delta.base_start"), load("delta.base_finish"),
        load("delta.ts"), load("delta.tf"), load("delta.snap_avail"),
        load("delta.pre_ms"), load("delta.avail_ws"), load("delta.old_ws"),
    };
    size_t sub_len;
    const int64_t *sub = load_sized("move.sub", &sub_len);
    sub_len /= sizeof *sub;
    const int64_t dev = i64("move.device"), k = i64("move.k");
    const size_t snap_len = row_bytes * (size_t)c->n_slots;
    int64_t *undo = load("move.undo");
    const char *rebuilds[3] = {"rebuild0", "rebuild_move", "rebuild_undo"};
    double base_ms = 0.0;
    for (int r = 0; r < 3; r++) {
        char key[64];
        if (r == 1)
            for (size_t s = 0; s < sub_len; s++) d->mapping[sub[s]] = dev;
        if (r == 2)
            for (size_t s = 0; s < sub_len; s++) d->mapping[sub[s]] = undo[s];
        const double ms = repro_rebuild_from(c, d, r ? k : 0);
        if (r == 0) base_ms = ms;
        snprintf(key, sizeof key, "%s.ms", rebuilds[r]);
        save_f64(key, ms);
        snprintf(key, sizeof key, "%s.base_start", rebuilds[r]);
        save(key, d->base_start, row_bytes);
        snprintf(key, sizeof key, "%s.base_finish", rebuilds[r]);
        save(key, d->base_finish, row_bytes);
        snprintf(key, sizeof key, "%s.snap_avail", rebuilds[r]);
        save(key, d->snap_avail, snap_len);
        snprintf(key, sizeof key, "%s.pre_ms", rebuilds[r]);
        save(key, d->pre_ms, row_bytes);
    }
    save_f64("eval.unbounded", repro_eval_move(c, d, sub, (int64_t)sub_len,
                                               dev, k, INFINITY));
    save_f64("eval.bounded", repro_eval_move(c, d, sub, (int64_t)sub_len,
                                             dev, k, f64("move.bound")));
    save("eval.mapping", d->mapping, (size_t)n * sizeof *d->mapping);

    /* repro_scan: basic, gamma's first pass, gamma with an order */
    ReproMoves *mv = malloc(sizeof *mv);
    *mv = (ReproMoves){
        i64("moves.n_moves"), i64("moves.n_area"),
        load("moves.cand_ptr"), load("moves.members"),
        load("moves.first_pos"), load("moves.cand_area"),
        load("moves.move_cand"), load("moves.move_dev"), load("moves.area"),
        load("moves.area_dev"), load("moves.area_limit"),
        load("moves.usage"),
    };
    const double eps = f64("scan.eps");
    double *expected = load("scan.expected");
    scan_pass("scan_basic", c, d, mv, NULL, NULL, base_ms, 0.0, eps);
    scan_pass("scan_gamma", c, d, mv, NULL, expected, base_ms, 0.0, eps);
    scan_pass("scan_order", c, d, mv, load("scan.order"), expected, base_ms,
              f64("scan.gamma"), eps);

    /* repro_random_orders on this program's generator */
    uint64_t *seed = load("rng.seed");
    ReproBitGen *bg = malloc(sizeof *bg);
    *bg = (ReproBitGen){seed, sm_next64, sm_next32, sm_next_double, sm_next64};
    size_t rows_len;
    int64_t *rows = load_sized("orders.out", &rows_len);
    save_i64("orders.filled", repro_random_orders(
        load("orders.succ_ptr"), load("orders.succ_dst"),
        load("orders.indeg0"), n, (int64_t)(rows_len / row_bytes), bg,
        rows, load("orders.ready"), load("orders.indeg")));
    save("orders.out", rows, rows_len);

    /* repro_vary: a whole generation, then the repair alone */
    ReproRepair *rp = malloc(sizeof *rp);
    *rp = (ReproRepair){
        i64("repair.n"), i64("repair.m"), i64("repair.host"),
        i64("repair.n_area"), load("repair.area"), load("repair.area_dev"),
        load("repair.limit"),
    };
    int64_t *work = load("vary.work");
    const char *pops[2] = {"vary.pop", "vary.repair_pop"};
    for (int v = 0; v < 2; v++) {
        size_t pop_len;
        int64_t *pop = load_sized(pops[v], &pop_len);
        const int64_t P = (int64_t)(pop_len / row_bytes);
        repro_vary(rp, pop, P, v == 0, f64("vary.crossover_rate"),
                   f64("vary.mutation_rate"), bg, work);
        save(pops[v], pop, pop_len);
    }

    free(c);
    free(d);
    free(mv);
    free(bg);
    free(rp);
    while (n_owned) free(owned[--n_owned]);
    return 0;
}
