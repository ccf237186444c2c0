/* The kernel, src/techmarket/_sweep.c, run from C, so that it can be built
 * with ThreadSanitizer or with AddressSanitizer and
 * UndefinedBehaviorSanitizer: libtsan preloaded into python3 crashes.
 * tests/test_kernel_driver.py builds it with each and runs it.
 *
 * It fills its States as compiled.new_state does and runs, through
 * tm_run_ensemble:
 * - two ensembles, one that rescues about 15 firms a sweep, on 1 to 4
 *   workers;
 * - a logged ensemble whose text buffer holds a line per site, the least
 *   compiled.py gives it, so that it pauses before every sweep;
 * - an ensemble at tolerance 0, where every replica fails a
 *   renormalisation, on 1 to 4 workers: each run must report replica 0;
 * and tm_csv_rows and tm_column_stats on edge values, into buffers of the
 * size compiled.py gives them, the statistics also of a single column. It
 * frees everything it allocates, so that LeakSanitizer checks the kernel's
 * own allocations too.
 *
 * Each line it prints is a name, then values or a digest: the FNV-1a hash
 * (Fowler, Noll and Vo) of bytes, which the test computes from the same
 * inputs on the package. The inputs here and in the test must match. It
 * exits 1 when a check of its own fails.
 */
#include "_sweep.c"

#include <assert.h>
#include <float.h>

#define SITES_MAX (10 * 10)
/* dynamics.RENORM_TOLERANCE */
#define RENORM_TOLERANCE 1e-2

/* The fields of SimParams that a State and an Ensemble take */
typedef struct {
    double sigma, s, b, omega_s, c, q;
    int64_t n_min, segment, passive, lx, ly, t_max;
} Params;

/* SimParams() but q, policy, variant and t_max */
static Params params(double q, int64_t segment, int64_t passive,
                     int64_t t_max)
{
    Params p = {0.01, 1.0, 0.01, 0.1, 0.8, q, 10, segment, passive, 10, 10,
                t_max};
    return p;
}

/* The seed of replica k: the test's seeds() */
static uint64_t seed_of(int64_t k)
{
    return (uint64_t)(k + 1) * 0x9E3779B97F4A7C15ULL;
}

static uint64_t fnv(uint64_t h, const void *data, size_t n)
{
    const unsigned char *p = data;
    while (n--) {
        h ^= *p++;
        h *= 0x100000001b3ULL;
    }
    return h;
}

#define FNV_START 0xcbf29ce484222325ULL

static int failures;

static void check(int ok, const char *what)
{
    if (!ok) {
        fprintf(stderr, "driver check failed: %s\n", what);
        failures++;
    }
}

/* market.neighbor_tables */
static void neighbor_tables(int64_t w, int64_t h, int *vn4, int *moore8)
{
    static const int vn[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
    static const int moore[8][2] = {{-1, -1}, {0, -1}, {1, -1}, {-1, 0},
                                     {1, 0}, {-1, 1}, {0, 1}, {1, 1}};
    for (int64_t y = 0; y < h; y++)
        for (int64_t x = 0; x < w; x++) {
            int64_t i = x + y * w;
            for (int k = 0; k < 4; k++)
                vn4[4 * i + k] = (int)((x + vn[k][0] + w) % w
                                       + (y + vn[k][1] + h) % h * w);
            for (int k = 0; k < 8; k++)
                moore8[8 * i + k] = (int)((x + moore[k][0] + w) % w
                                          + (y + moore[k][1] + h) % h * w);
        }
}

/* compiled.Buffers */
typedef struct {
    double *n_firms, *mean_tech, *ratio;
    int64_t *rescued;
    double *renorm_error, *tc_vals;
    int64_t n, rows;
} Buffers;

/* compiled.new_buffers */
static Buffers new_buffers(const Params *p, int64_t n)
{
    Buffers b = {0};
    b.n = n;
    b.rows = p->t_max + 1;
    size_t cells = (size_t)(n * b.rows);
    b.n_firms = calloc(cells, sizeof(double));
    b.mean_tech = calloc(cells, sizeof(double));
    b.ratio = calloc(cells, sizeof(double));
    b.rescued = calloc((size_t)b.rows, sizeof(int64_t));
    b.renorm_error = calloc((size_t)b.rows, sizeof(double));
    b.tc_vals = malloc((size_t)n * sizeof(double));
    for (int64_t k = 0; k < n; k++)
        b.tc_vals[k] = NAN;
    return b;
}

static void free_buffers(Buffers *b)
{
    free(b->n_firms);
    free(b->mean_tech);
    free(b->ratio);
    free(b->rescued);
    free(b->renorm_error);
    free(b->tc_vals);
}

/* The digest of the buffers' bytes in compiled.Buffers' field order */
static uint64_t buffers_digest(const Buffers *b)
{
    size_t cells = (size_t)(b->n * b->rows), rows = (size_t)b->rows;
    uint64_t h = fnv(FNV_START, b->n_firms, cells * sizeof(double));
    h = fnv(h, b->mean_tech, cells * sizeof(double));
    h = fnv(h, b->ratio, cells * sizeof(double));
    h = fnv(h, b->rescued, rows * sizeof(int64_t));
    h = fnv(h, b->renorm_error, rows * sizeof(double));
    return fnv(h, b->tc_vals, (size_t)b->n * sizeof(double));
}

/* compiled.new_state, with a text buffer of max_text bytes unless 0 */
static State *new_state(const Params *p, const Buffers *b, const int *vn4,
                        const int *moore8, double tolerance, int64_t max_text)
{
    int64_t n_sites = p->lx * p->ly, cap = 2 * n_sites;
    State *st = calloc(1, sizeof *st);
    st->s = p->s;
    st->b = p->b;
    st->q = p->q;
    st->omega_s = p->omega_s;
    st->sigma = p->sigma;
    st->tolerance = tolerance;
    st->n_min = p->n_min;
    st->segment = p->segment;
    st->passive = p->passive;
    st->vn4 = vn4;
    st->moore8 = moore8;
    st->occ = calloc((size_t)n_sites, sizeof(int32_t));
    st->id = calloc((size_t)cap, sizeof(int64_t));
    st->tech = calloc((size_t)cap, sizeof(double));
    st->share = calloc((size_t)cap, sizeof(double));
    st->site = calloc((size_t)cap, sizeof(int32_t));
    st->order = calloc((size_t)cap, sizeof(int32_t));
    st->mt = calloc(MT_N + 1, sizeof(uint32_t));
    st->n_rows = b->rows;
    st->n_firms = b->n_firms;
    st->mean_tech = b->mean_tech;
    st->ratio = b->ratio;
    st->rescued = b->rescued;
    st->renorm_error = b->renorm_error;
    st->threshold = 1.0;  /* TC_THRESHOLD */
    st->crossing = -1;
    st->text = max_text ? calloc((size_t)max_text, 1) : NULL;
    st->max_text = max_text;
    return st;
}

static void free_state(State *st)
{
    free(st->occ);
    free(st->id);
    free(st->tech);
    free(st->share);
    free(st->site);
    free(st->order);
    free(st->mt);
    free(st->text);
    free(st);
}

/* An ensemble's run, as compiled.run_replicas makes it: returns
 * tm_run_ensemble's last status, with the calls made in *calls, the
 * lowest failing replica in *failed and, when one failed, its sweep and
 * error in *sweep and *err. With max_text, one State runs the replicas,
 * and the text of each call is folded into *text. */
static int run_ensemble(const Params *p, Buffers *b, int64_t workers,
                        double tolerance, int64_t max_text, uint64_t *text,
                        int64_t *calls, int64_t *failed, int64_t *sweep,
                        double *err)
{
    int64_t n_sites = p->lx * p->ly;
    int vn4[4 * SITES_MAX], moore8[8 * SITES_MAX];
    uint64_t seeds[64];
    State *states[4];
    assert(n_sites <= SITES_MAX && b->n <= 64 && workers <= 4);
    neighbor_tables(p->lx, p->ly, vn4, moore8);
    for (int64_t k = 0; k < b->n; k++)
        seeds[k] = seed_of(k);
    for (int64_t w = 0; w < workers; w++)
        states[w] = new_state(p, b, vn4, moore8, tolerance, max_text);
    Ensemble en = {states, workers, seeds, b->n, n_sites,
                   (int64_t)nearbyint(p->c * (double)n_sites),
                   b->n_firms, b->mean_tech, b->ratio, b->tc_vals,
                   0, b->n, 0, 0};
    int status = PAUSED;
    for (*calls = 0; status == PAUSED; ++*calls) {
        status = tm_run_ensemble(&en);
        if (text)
            *text = fnv(*text, states[0]->text, (size_t)states[0]->n_text);
    }
    *failed = en.failed;
    for (int64_t w = 0; w < workers; w++) {
        if (status == RENORM_ABOVE_TOLERANCE
                && states[w]->replica == en.failed) {
            *sweep = states[w]->sweep;
            *err = states[w]->err;
        }
        free_state(states[w]);
    }
    return status;
}

static void rows_on_workers(const char *name, const Params *p, int64_t n)
{
    for (int64_t workers = 1; workers <= 4; workers++) {
        Buffers b = new_buffers(p, n);
        int64_t calls, failed, sweep;
        double err;
        int status = run_ensemble(p, &b, workers, RENORM_TOLERANCE, 0, NULL,
                                  &calls, &failed, &sweep, &err);
        check(status == OK && calls == 1 && failed == n, name);
        printf("rows %s %lld %016llx\n", name, (long long)workers,
               (unsigned long long)buffers_digest(&b));
        free_buffers(&b);
    }
}

int main(void)
{
    /* SimParams(q=0.9, policy=MEDIUM_TECH, t_max=40) and
     * SimParams(q=0.99, variant=ACTIVE_AFTER_RESCUE, t_max=40) */
    Params medium = params(0.9, SEGMENT_MEDIUM, 1, 40);
    Params active = params(0.99, SEGMENT_ANY, 0, 40);
    rows_on_workers("medium", &medium, 6);
    rows_on_workers("active", &active, 4);

    /* 3 replicas of SimParams(q=0.99, variant=ACTIVE_AFTER_RESCUE,
     * t_max=20), about 98 live firms, logged with compiled.EVENT_ROWS at 1:
     * a line per site */
    Params logged = params(0.99, SEGMENT_ANY, 0, 20);
    Buffers b = new_buffers(&logged, 3);
    uint64_t text = FNV_START;
    int64_t calls, failed, sweep;
    double err;
    int status = run_ensemble(
        &logged, &b, 1, RENORM_TOLERANCE,
        logged.lx * logged.ly * (int64_t)EVENT_LINE_MAX, &text, &calls,
        &failed, &sweep, &err);
    check(status == OK && calls == 3 * logged.t_max, "logged");
    printf("logged %lld %016llx %016llx\n", (long long)calls,
           (unsigned long long)buffers_digest(&b), (unsigned long long)text);
    free_buffers(&b);

    /* 8 replicas of SimParams(t_max=5) at tolerance 0 */
    Params failing = params(0.0, SEGMENT_ANY, 1, 5);
    for (int64_t workers = 1; workers <= 4; workers++) {
        b = new_buffers(&failing, 8);
        status = run_ensemble(&failing, &b, workers, 0.0, 0, NULL, &calls,
                              &failed, &sweep, &err);
        check(status == RENORM_ABOVE_TOLERANCE && failed == 0, "failing");
        printf("failed %lld %lld %lld %.17g\n", (long long)workers,
               (long long)failed, (long long)sweep, err);
        free_buffers(&b);
    }

    /* tm_csv_rows: t and two columns, then the columns alone, into
     * compiled.csv_rows' buffer of 21 bytes a field */
    enum { ROWS = 8 };
    const int64_t t[ROWS] = {0, 1, -1, 600, INT64_MAX, INT64_MIN, 12, 7};
    const double x[ROWS] = {0.0, -0.0, 5e-324, -1.5e-300, 1e-15,
                            9.999999999995e-05, 999999999999.5, 1e12};
    const double y[ROWS] = {INFINITY, -INFINITY, NAN, -NAN, DBL_MAX,
                            123456789012.5, 0.1, -2.5};
    const double *cols[2] = {x, y};
    for (int with_t = 1; with_t >= 0; with_t--) {
        size_t size = ROWS * (size_t)(2 + with_t) * 21;
        char *out = malloc(size);
        int64_t n = tm_csv_rows(with_t ? t : NULL, cols, 2, ROWS, out);
        check(n > 0 && (size_t)n <= size, "csv");
        printf("csv %d %016llx\n", with_t,
               (unsigned long long)fnv(FNV_START, out, (size_t)n));
        free(out);
    }

    /* tm_column_stats on 3 rows of 4 columns, then on 1 row, then on the
     * 12 values as one column, a vector summed in row order */
    const double m[12] = {1e308, INFINITY, 0.5, -0.0,
                          1e308, 1.0, NAN, 5e-324,
                          -1e308, -INFINITY, 0.25, 5e-324};
    for (int64_t n = 3; n >= 1; n -= 2) {
        double *mean = malloc(4 * sizeof(double));
        double *sd = malloc(4 * sizeof(double));
        tm_column_stats(m, n, 4, mean, sd);
        uint64_t h = fnv(fnv(FNV_START, mean, 4 * sizeof(double)), sd,
                         4 * sizeof(double));
        printf("stats %lld %016llx\n", (long long)n, (unsigned long long)h);
        free(mean);
        free(sd);
    }
    double *mean = malloc(sizeof(double)), *sd = malloc(sizeof(double));
    tm_column_stats(m, 12, 1, mean, sd);
    printf("stats column %016llx\n", (unsigned long long)fnv(
        fnv(FNV_START, mean, sizeof(double)), sd, sizeof(double)));
    free(mean);
    free(sd);
    return failures ? 1 : 0;
}
