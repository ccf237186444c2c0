/* The techmarket model, compiled: one call starts a replica from its seed,
 * one call runs its sweeps.
 *
 * dynamics.py documents the model and the draw order. tests/oracle.py holds
 * the same model in Python, the reference this file is tested against; the
 * two must give bit-identical results, which fixes the following:
 *
 * - Live firms sit in slots in ascending id order, the order of the oracle's
 *   registry (ids are never reused and new firms get the largest id). The
 *   sums, the visit order before its shuffle, the equal split and the
 *   renormalisation all run in that order.
 * - Every running-sum update is the oracle's expression with its operands in
 *   the same order. The library is built with -ffp-contract=off, so that
 *   no multiply-add is fused, and without -ffast-math.
 * - exp and sqrt come from the C library's libm, as in CPython's math.
 * - The stream is CPython's MT19937 (_randommodule.c): random() joins two
 *   words as genrand_res53 does. State.mt holds the 624 words and the
 *   position that Random.getstate() returns, before and after every call.
 *   Within a call the draws are read from a Stream on the call's stack: a
 *   block of the 624 words, tempered, which is refilled by twisting State.mt
 *   and tempering all 624 words in one loop (the block refill of SFMT, Saito
 *   and Matsumoto 2008, on the same MT19937 sequence). On entry the block
 *   is tempered from the State's words, as a State may arrive with its
 *   position anywhere: after a pause, or filled from another stream.
 *
 * compiled.py mirrors the State struct with ctypes and checks its size
 * against tm_state_size() before use.
 *
 * tm_init seeds the stream from a replica's 64-bit seed as random.Random(seed)
 * does: init_genrand(19650218), then init_by_array over the seed's 32-bit
 * words, least significant first, one word below 2^32 (Matsumoto and
 * Nishimura's 2002 seeding, as CPython runs it). It then draws the initial
 * market, in this order: n0 distinct sites by a partial Fisher-Yates pass
 * over the sites (step i swaps site i with site i + int(u * (n - i)),
 * clamped to n - 1), then one technology u per firm in placement order. Firm
 * f gets id f, slot f, share 1.0 / n0 and the f-th site drawn.
 *
 * tm_run writes the rows of a dynamics.Trajectory into the columns State
 * points to: a row per sweep, plus the end state's. When State.events is
 * set, each visit also writes the step's event row: (kind, firm, t,
 * partner, child, rescued), with -1 for no partner and no child. A sweep
 * writes at most one row per firm alive at its start, so tm_run returns
 * PAUSED before a sweep whose rows might not fit; the caller takes the rows
 * and calls again.
 *
 * tm_render_events renders event rows as the JSON lines of
 * output.emit_event_log.
 *
 * tm_fold and tm_column_stats reduce an ensemble's trajectories to the
 * statistics of ensemble.run_trajectories, summed in the order numpy's
 * mean and std sum them, so that the results have numpy's bits.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

enum {
    BANKRUPTED, RESCUED, MOVED_COPIED_FRONTIER, MOVED_NO_DIFFUSION, MERGED,
    SPIN_OFF, SPIN_OFF_BLOCKED, N_KINDS
};

enum { SEGMENT_ANY = -1, SEGMENT_LOW, SEGMENT_MEDIUM, SEGMENT_HIGH };

enum { OK, RENORM_ABOVE_TOLERANCE, PAUSED };

typedef struct {
    /* parameters */
    double s, b, q, omega_s, sigma, tolerance;
    int64_t n_min, segment, passive;
    /* lattice: market.neighbor_tables, site i's k-th neighbour at
     * 4 * i + k and 8 * i + k, and the occupancy as slot or -1 */
    const int *vn4, *moore8;
    int32_t *occ;
    /* firms by slot; a dead firm has id -1 until the sweep ends. Slots
     * hold the firms alive at the sweep's start plus at most one spin-off per
     * visit, so twice the site count always suffices. */
    int64_t *id;
    double *tech, *share;
    int32_t *site, *order;
    int64_t n_slots, n_live;
    /* clock, frontier and the running sums, which tm_run sets first */
    int64_t sweep, next_id;
    double frontier, ws, ts, tq;
    /* MT19937: 624 words, then the position */
    uint32_t *mt;
    /* the trajectory's columns: row is the next one to write, of n_rows */
    int64_t row, n_rows;
    int64_t *n_firms, *rescued, *bankrupted;
    double *mean_tech, *ratio, *renorm_error;
    /* event rows, six int64 each: this call wrote n_events of at most
     * max_events; NULL keeps none */
    int64_t *events;
    int64_t n_events, max_events;
} State;

size_t tm_state_size(void) { return sizeof(State); }

#define MT_N 624
#define MT_M 397

/* The stream within a call: mt is State.mt, whose position word is stale
 * until stream_close writes pos back; block[k] is mt[k] tempered for every
 * k from pos on. */
typedef struct {
    uint32_t *mt;
    uint32_t pos;
    uint32_t block[MT_N];
} Stream;

static uint32_t temper(uint32_t y)
{
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* A word's next value in the twist, from its top bit, the low bits of the
 * word after it and the word MT_M after it (mod MT_N): mag01[y & 1] as a
 * mask, which -O2 vectorises. */
static uint32_t twist(uint32_t word, uint32_t next, uint32_t ahead)
{
    uint32_t y = (word & 0x80000000U) | (next & 0x7fffffffU);
    return ahead ^ (y >> 1) ^ ((0U - (y & 0x1U)) & 0x9908b0dfU);
}

/* Twist mt to its next 624 words and temper them into block. -O2
 * vectorises these loops: the pointers are restrict, and each trip count
 * is a multiple of four or a tail (224, then 3; 396, then 1; 624). */
static void refill_block(uint32_t *restrict mt, uint32_t *restrict block)
{
    int kk;
    for (kk = 0; kk < (MT_N - MT_M) / 4 * 4; kk++)
        mt[kk] = twist(mt[kk], mt[kk + 1], mt[kk + MT_M]);
    for (; kk < MT_N - MT_M; kk++)
        mt[kk] = twist(mt[kk], mt[kk + 1], mt[kk + MT_M]);
    for (; kk < MT_N - 1; kk++)
        mt[kk] = twist(mt[kk], mt[kk + 1], mt[kk + (MT_M - MT_N)]);
    mt[MT_N - 1] = twist(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
    for (kk = 0; kk < MT_N; kk++)
        block[kk] = temper(mt[kk]);
}

static void stream_open(Stream *rs, uint32_t *mt)
{
    rs->mt = mt;
    rs->pos = mt[MT_N];
    for (uint32_t k = rs->pos; k < MT_N; k++)
        rs->block[k] = temper(mt[k]);
}

static void stream_close(const Stream *rs)
{
    rs->mt[MT_N] = rs->pos;
}

/* genrand_uint32() */
static uint32_t next_word(Stream *rs)
{
    if (rs->pos >= MT_N) {
        refill_block(rs->mt, rs->block);
        rs->pos = 0;
    }
    return rs->block[rs->pos++];
}

/* Random.random() */
static double uniform(Stream *rs)
{
    uint32_t a = next_word(rs) >> 5, b = next_word(rs) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* int(random() * n), clamped to n - 1 for the u -> 1 rounding edge */
static int64_t pick(Stream *rs, int64_t n)
{
    int64_t k = (int64_t)(uniform(rs) * (double)n);
    return k < n ? k : n - 1;
}

/* random.Random(seed)'s state: init_by_array over the seed's 32-bit words */
static void seed_stream(uint32_t *mt, uint64_t seed)
{
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    uint32_t key_length = key[1] ? 2 : 1, i, j = 0, k;
    mt[0] = 19650218U;
    for (i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
    i = 1;
    for (k = MT_N; k; k--) {  /* max(MT_N, key_length) */
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
                + key[j] + j;
        i++;
        j++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (j >= key_length)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U))
                - i;
        i++;
        if (i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    mt[MT_N] = MT_N;
}

/* Seed the stream and draw the market at sweep 0 of n0 firms on n_sites
 * sites, into zeroed buffers (see the header). order is the scratch of the
 * site draw: tm_run rewrites it before every sweep. */
void tm_init(State *st, uint64_t seed, int64_t n_sites, int64_t n0)
{
    Stream rs;
    int32_t *pool = st->order;
    seed_stream(st->mt, seed);
    stream_open(&rs, st->mt);
    for (int64_t i = 0; i < n_sites; i++) {
        pool[i] = (int32_t)i;
        st->occ[i] = -1;
    }
    for (int64_t i = 0; i < n0; i++) {
        int64_t j = i + pick(&rs, n_sites - i);
        int32_t tmp = pool[i];
        pool[i] = pool[j];
        pool[j] = tmp;
    }
    double share = 1.0 / (double)n0;
    for (int64_t f = 0; f < n0; f++) {
        st->id[f] = f;
        st->tech[f] = uniform(&rs);
        st->share[f] = share;
        st->site[f] = pool[f];
        st->occ[pool[f]] = (int32_t)f;
    }
    st->n_slots = st->n_live = st->next_id = n0;
    st->sweep = st->row = 0;
    st->frontier = 1.0;
    stream_close(&rs);
}

static void remove_firm(State *st, int64_t f)
{
    double tech = st->tech[f];
    st->id[f] = -1;
    st->n_live--;
    st->occ[st->site[f]] = -1;
    st->ws -= st->share[f] * tech;
    st->ts -= tech;
    st->tq -= tech * tech;
}

static void set_tech(State *st, int64_t f, double tech)
{
    double old = st->tech[f];
    st->ws += st->share[f] * (tech - old);
    st->ts += tech - old;
    st->tq += tech * tech - old * old;
    st->tech[f] = tech;
}

static int segment_of(const State *st, double tech, double mean)
{
    double n = (double)st->n_live;
    double var = (st->tq - 2.0 * mean * st->ts) / n + mean * mean;
    double sigma_g = var > 0.0 ? sqrt(var) : 0.0;
    if (tech < mean - sigma_g)
        return SEGMENT_LOW;
    if (tech > mean + sigma_g)
        return SEGMENT_HIGH;
    return SEGMENT_MEDIUM;
}

static int interact(State *st, Stream *rs, int64_t i, int64_t j)
{
    if (1.0 - uniform(rs) <= st->b) {
        double share_j = st->share[j], tech_j = st->tech[j];
        remove_firm(st, j);
        if (tech_j > st->tech[i])
            set_tech(st, i, tech_j);
        st->share[i] += share_j;
        st->ws += share_j * st->tech[i];
        return MERGED;
    }
    int32_t k = st->moore8[8 * (int64_t)st->site[i] + pick(rs, 8)];
    if (st->occ[k] >= 0)
        return SPIN_OFF_BLOCKED;
    double d_i = st->share[i] * st->omega_s;
    double d_j = st->share[j] * st->omega_s;
    st->share[i] -= d_i;
    st->share[j] -= d_j;
    st->ws -= d_i * st->tech[i] + d_j * st->tech[j];
    double tech_k = st->tech[i] >= st->tech[j] ? st->tech[i] : st->tech[j];
    double share_k = d_i + d_j;
    int64_t c = st->n_slots++;
    st->id[c] = st->next_id++;
    st->tech[c] = tech_k;
    st->share[c] = share_k;
    st->site[c] = k;
    st->occ[k] = (int32_t)c;
    st->n_live++;
    st->ws += share_k * tech_k;
    st->ts += tech_k;
    st->tq += tech_k * tech_k;
    return SPIN_OFF;
}

static void update_cycle(State *st, Stream *rs, int64_t n_order)
{
    int32_t *occ = st->occ;
    double frontier = st->frontier;
    for (int64_t v = 0; v < n_order; v++) {
        int64_t f = st->order[v];
        int64_t fid = st->id[f];
        if (fid < 0)  /* absorbed by a merge earlier in this sweep */
            continue;
        int kind = -1, rescued = 0;
        int64_t partner_id = -1;
        if (st->n_live > st->n_min) {
            double mean = st->ws;
            double tech = st->tech[f];
            double lag = mean < 1.0 ? mean * frontier - tech : frontier - tech;
            double p = lag > 0.0 ? exp(-st->s * lag) : 1.0;
            if (1.0 - uniform(rs) > p) {
                if ((st->segment == SEGMENT_ANY
                     || segment_of(st, tech, mean) == st->segment)
                        && 1.0 - uniform(rs) <= st->q) {
                    st->rescued[st->row]++;
                    rescued = 1;
                    if (st->passive)
                        kind = RESCUED;
                } else {
                    double share = st->share[f];
                    remove_firm(st, f);
                    double delta = share / (double)st->n_live;
                    for (int64_t g = 0; g < st->n_slots; g++)
                        if (st->id[g] >= 0)
                            st->share[g] += delta;
                    st->ws += delta * st->ts;
                    st->bankrupted[st->row]++;
                    kind = BANKRUPTED;
                }
            }
        }
        if (kind < 0) {
            int32_t site = st->site[f];
            int32_t target = st->vn4[4 * (int64_t)site + pick(rs, 4)];
            int64_t partner = occ[target];
            if (partner < 0) {
                occ[site] = -1;
                occ[target] = (int32_t)f;
                st->site[f] = target;
                const int *hood = st->moore8 + 8 * (int64_t)target;
                int nb;
                for (nb = 0; nb < 8; nb++)
                    if (occ[hood[nb]] >= 0)
                        break;
                if (nb < 8) {
                    partner = occ[hood[pick(rs, 8)]];
                } else {
                    double r2;
                    do
                        r2 = uniform(rs);
                    while (r2 == 0.0);
                    double tech = st->tech[f];
                    double out = tech + r2 * (frontier - tech);
                    if (out >= frontier)  /* stay below the frontier */
                        out = nextafter(frontier, tech);
                    set_tech(st, f, out);
                    kind = MOVED_COPIED_FRONTIER;
                }
            }
            if (kind < 0) {
                if (partner < 0) {
                    kind = MOVED_NO_DIFFUSION;
                } else {
                    partner_id = st->id[partner];  /* before a merge clears it */
                    kind = interact(st, rs, f, partner);
                }
            }
        }
        if (st->events) {
            int64_t *row = st->events + 6 * st->n_events++;
            row[0] = kind;
            row[1] = fid;
            row[2] = st->sweep;
            row[3] = partner_id;
            row[4] = kind == SPIN_OFF ? st->next_id - 1 : -1;
            row[5] = rescued;
        }
    }
}

/* Close the gaps dead firms left, keeping ascending id order. */
static void compact(State *st)
{
    int64_t n = 0;
    for (int64_t g = 0; g < st->n_slots; g++) {
        if (st->id[g] < 0)
            continue;
        st->id[n] = st->id[g];
        st->tech[n] = st->tech[g];
        st->share[n] = st->share[g];
        st->site[n] = st->site[g];
        st->occ[st->site[n]] = (int32_t)n;
        n++;
    }
    st->n_slots = n;
}

/* tm_run's sweeps, drawing from rs */
static int run(State *st, Stream *rs)
{
    for (;;) {
        int64_t n = st->n_slots, row = st->row;
        double ws = 0.0, ts = 0.0, tq = 0.0;
        for (int64_t f = 0; f < n; f++) {
            double a = st->tech[f];
            ws += st->share[f] * a;
            ts += a;
            tq += a * a;
        }
        st->ws = ws;
        st->ts = ts;
        st->tq = tq;
        st->n_firms[row] = n;
        st->mean_tech[row] = ws;
        st->ratio[row] = ws / st->frontier;
        if (row == st->n_rows - 1)
            return OK;
        if (st->events && st->n_events + n > st->max_events)
            return PAUSED;

        int32_t *order = st->order;
        for (int64_t f = 0; f < n; f++)
            order[f] = (int32_t)f;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t j = pick(rs, i + 1);
            int32_t tmp = order[i];
            order[i] = order[j];
            order[j] = tmp;
        }
        update_cycle(st, rs, n);
        compact(st);

        double total = 0.0;
        for (int64_t f = 0; f < st->n_slots; f++)
            total += st->share[f];
        double err = fabs(total - 1.0);
        st->renorm_error[row] = err;
        if (err > st->tolerance)
            return RENORM_ABOVE_TOLERANCE;
        for (int64_t f = 0; f < st->n_slots; f++)
            st->share[f] /= total;
        st->ws /= total;
        st->sweep++;
        st->frontier = exp(st->sigma * (double)st->sweep);
        st->row++;
    }
}

/* Run the sweeps from row st->row on: returns OK once the last row is
 * written, PAUSED before a sweep whose event rows might not fit, or
 * RENORM_ABOVE_TOLERANCE where the renormalisation fails (a share total at
 * or below 0 among them), with the error in the sweep's row and the sweep
 * not advanced. Columns rescued and bankrupted must start at 0. */
int tm_run(State *st)
{
    Stream rs;
    stream_open(&rs, st->mt);
    st->n_events = 0;
    int status = run(st, &rs);
    stream_close(&rs);
    return status;
}

/* EventKind names, lower case, by kind */
static const char *const KIND_NAMES[N_KINDS] = {
    "bankrupted", "rescued", "moved_copied_frontier", "moved_no_diffusion",
    "merged", "spin_off", "spin_off_blocked"
};

/* The longest line: the longest kind name, a partner, a child, a rescue and
 * five integers of 20 characters (INT64_MIN). */
#define EVENT_LINE_MAX (sizeof "{\"replica\":,\"t\":,\"firm\":,\"kind\":\"" \
    "moved_copied_frontier\",\"partner\":,\"child\":,\"rescued\":true}\n" \
    - 1 + 5 * 20)

size_t tm_event_line_max(void) { return EVENT_LINE_MAX; }

#define PUT(p, literal) \
    (memcpy(p, literal, sizeof literal - 1), (p) + sizeof literal - 1)

static char *put_int(char *p, int64_t v)
{
    char digits[20];
    int n = 0;
    uint64_t u = v < 0 ? 0U - (uint64_t)v : (uint64_t)v;
    if (v < 0)
        *p++ = '-';
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (n)
        *p++ = digits[--n];
    return p;
}

/* Render n_rows event rows of replica to out, which holds n_rows *
 * tm_event_line_max() bytes: one line each, keys replica, t, firm and kind,
 * then partner when set, child when set after a partner, and
 * "rescued":true when the flag is 1. Returns the bytes written, or -1 - i
 * when row i has a kind outside EventKind or a flag other than 0 and 1. */
int64_t tm_render_events(const int64_t *rows, int64_t n_rows, int64_t replica,
                         char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n_rows; i++) {
        const int64_t *row = rows + 6 * i;
        int64_t kind = row[0], partner = row[3], child = row[4];
        int64_t rescued = row[5];
        if (kind < 0 || kind >= N_KINDS || rescued < 0 || rescued > 1)
            return -1 - i;
        p = PUT(p, "{\"replica\":");
        p = put_int(p, replica);
        p = PUT(p, ",\"t\":");
        p = put_int(p, row[2]);
        p = PUT(p, ",\"firm\":");
        p = put_int(p, row[1]);
        p = PUT(p, ",\"kind\":\"");
        size_t len = strlen(KIND_NAMES[kind]);
        memcpy(p, KIND_NAMES[kind], len);
        p += len;
        *p++ = '"';
        if (partner >= 0) {
            p = PUT(p, ",\"partner\":");
            p = put_int(p, partner);
            if (child >= 0) {
                p = PUT(p, ",\"child\":");
                p = put_int(p, child);
            }
        }
        p = rescued ? PUT(p, ",\"rescued\":true}\n") : PUT(p, "}\n");
    }
    return p - out;
}

/* Fold replica k's trajectory columns, of n_rows rows, into an ensemble's
 * reductions: its N (as double), <A> and ratio into row k of the
 * replica-major matrices n_mat, a_mat and r_mat, its rescues into
 * rescued_sum, and its renormalisation errors into renorm_max, the largest
 * per row (nan once one is nan, as numpy.maximum keeps it). Returns the
 * first row whose <A> reaches threshold, or -1 when none does. */
int64_t tm_fold(const int64_t *n_firms, const double *mean_tech,
                const double *ratio, const int64_t *rescued,
                const double *renorm_error, int64_t n_rows, int64_t k,
                double *n_mat, double *a_mat, double *r_mat,
                int64_t *rescued_sum, double *renorm_max, double threshold)
{
    double *n_row = n_mat + k * n_rows, *a_row = a_mat + k * n_rows;
    double *r_row = r_mat + k * n_rows;
    int64_t crossing = -1;
    for (int64_t t = 0; t < n_rows; t++) {
        n_row[t] = (double)n_firms[t];
        a_row[t] = mean_tech[t];
        r_row[t] = ratio[t];
        rescued_sum[t] += rescued[t];
        if (renorm_error[t] > renorm_max[t] || isnan(renorm_error[t]))
            renorm_max[t] = renorm_error[t];
        if (crossing < 0 && mean_tech[t] >= threshold)
            crossing = t;
    }
    return crossing;
}

/* Each column's mean and population SD over the n >= 1 rows of the
 * row-major n x cols matrix x, as numpy's x.mean(axis=0) and x.std(axis=0)
 * give them for cols >= 2: summed row by row, then divided by n; the SD
 * sums the squared deviations the same way, divides by n and takes the
 * square root. (numpy sums a single column pairwise, as a vector.) */
void tm_column_stats(const double *x, int64_t n, int64_t cols, double *mean,
                     double *sd)
{
    for (int64_t c = 0; c < cols; c++)
        mean[c] = sd[c] = 0.0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t c = 0; c < cols; c++)
            mean[c] += x[i * cols + c];
    for (int64_t c = 0; c < cols; c++)
        mean[c] /= (double)n;
    for (int64_t i = 0; i < n; i++)
        for (int64_t c = 0; c < cols; c++) {
            double d = x[i * cols + c] - mean[c];
            sd[c] += d * d;
        }
    for (int64_t c = 0; c < cols; c++)
        sd[c] = sqrt(sd[c] / (double)n);
}
