/* The techmarket model, compiled: one call runs every replica of an
 * ensemble, each from its seed, on threads that start and end inside it.
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
 * A replica starts by seeding the stream from its 64-bit seed as
 * random.Random(seed) does: init_genrand(19650218), then init_by_array over
 * the seed's 32-bit words, least significant first, one word below 2^32
 * (Matsumoto and Nishimura's 2002 seeding, as CPython runs it). It then draws
 * the initial market, in this order: n0 distinct sites by a partial
 * Fisher-Yates pass over the sites (step i swaps site i with site
 * i + int(u * (n - i)), clamped to n - 1), then one technology u per firm in
 * placement order. Firm f gets id f, slot f, share 1.0 / n0 and the f-th
 * site drawn.
 *
 * tm_run_ensemble runs an ensemble's replicas on workers that each reuse one
 * State: the calling thread and a pthread for every further State, created in
 * the call and joined before it returns. A worker claims the next replica
 * index from a shared counter, points its State's rows at that replica's,
 * starts it from its seed and runs its sweeps, then stores its crossing. A
 * replica that fails its renormalisation stops every worker from claiming
 * more; the replicas below it were claimed before it and run to their end, so
 * the lowest failing index, which the call reports, is the one a serial run
 * meets first. A thread that cannot be created leaves its replicas to the
 * other workers, with the same results. A logged ensemble runs on one worker,
 * whose State's text takes the lines of replica after replica; the call
 * returns PAUSED when it is full and continues where it stopped when it is
 * called again. The call resumes states[0] as it finds it, so a caller can
 * also hand it a market of its own, in a State marked as paused.
 *
 * A replica's run writes its rows straight into its ensemble's buffers: a
 * row per sweep, plus the end state's. N (as a double), <A> and its ratio
 * to the frontier go to the replica's row of three replica-major matrices.
 * Each sweep's rescues are added to a per-row sum, and its renormalisation
 * error folded into a per-row maximum, that every replica of the ensemble
 * shares. An ensemble's replicas run on several threads at once, so both
 * are atomic; an integer sum and a maximum do not depend on the order of
 * their terms, so every thread count gives the same bits. The State keeps
 * the first row whose <A> reaches its threshold, the replica's catch-up
 * time.
 *
 * When State.text is set, each visit also appends the step's line of the
 * event log to it (see put_event). A sweep writes at most one line per firm
 * alive at its start, so tm_run_ensemble returns PAUSED before a sweep
 * whose lines might not fit; the caller takes the text and calls again.
 * tm_event_line_max gives the longest line's bytes, by which the caller
 * sizes State.text.
 *
 * tm_column_stats reduces the ensemble's matrices to the statistics of
 * ensemble.run_trajectories, summed in the order numpy's mean and std sum
 * them, so that the results have numpy's bits.
 *
 * tm_csv_rows writes the CSV rows of output.py: integers as Python's "%d"
 * and floats as its "%.12g" write them, byte for byte. glibc's snprintf is
 * as slow as Python's formatting, so in 1e-15 <= |x| < 1e12 the digits are
 * made here, by one 128-bit product and a rounding half to even on its
 * exact remainder: the fixed-precision conversion of Adams, "Ryu revisited:
 * printf floating point conversion" (PLDI 2019), at the one precision the
 * package prints. Values outside that range go to snprintf under a C
 * numeric locale of the call's own, so that the caller's LC_NUMERIC cannot
 * change the decimal point. unsigned __int128 is a gcc extension on 64-bit
 * targets, and the kernel is built with gcc (compiled.COMPILER).
 */
#include <locale.h>
#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
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
    /* clock, frontier and the running sums, which run sets first */
    int64_t sweep, next_id;
    double frontier, ws, ts, tq;
    /* MT19937: 624 words, then the position */
    uint32_t *mt;
    /* the ensemble's buffers: row is the next one to write, of n_rows.
     * n_firms, mean_tech and ratio point at this replica's row of the
     * matrices; rescued and renorm_error are the rows' sum and maximum over
     * every replica, which the replicas on other threads write too. */
    int64_t row, n_rows;
    double *n_firms, *mean_tech, *ratio;
    int64_t *rescued;
    double *renorm_error;
    /* the running sweep's rescues and its renormalisation error, kept for
     * the message when it fails */
    int64_t n_rescued;
    double err;
    /* the first row whose <A> reaches threshold, or -1 */
    double threshold;
    int64_t crossing;
    /* the event log's text: this call wrote n_text bytes of at most
     * max_text; NULL keeps none. replica is the index its lines carry. */
    char *text;
    int64_t n_text, max_text, replica;
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
 * mask, which gcc vectorises from -O2 on. */
static uint32_t twist(uint32_t word, uint32_t next, uint32_t ahead)
{
    uint32_t y = (word & 0x80000000U) | (next & 0x7fffffffU);
    return ahead ^ (y >> 1) ^ ((0U - (y & 0x1U)) & 0x9908b0dfU);
}

/* Twist mt to its next 624 words and temper them into block. gcc
 * vectorises these loops from -O2 on: the pointers are restrict, and each
 * trip count is a multiple of four or a tail (224, then 3; 396, then 1;
 * 624). */
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

/* Seed the stream, open it as rs and draw the market at sweep 0 of n0
 * firms on n_sites sites (see the header). Every field a run reads is set
 * here or by run before it is read, so a State that ran another replica
 * starts this one as a new State would. order is the scratch of the site
 * draw: run rewrites it before every sweep. */
static void start(State *st, Stream *rs, uint64_t seed, int64_t n_sites,
                  int64_t n0)
{
    int32_t *pool = st->order;
    seed_stream(st->mt, seed);
    stream_open(rs, st->mt);
    for (int64_t i = 0; i < n_sites; i++) {
        pool[i] = (int32_t)i;
        st->occ[i] = -1;
    }
    for (int64_t i = 0; i < n0; i++) {
        int64_t j = i + pick(rs, n_sites - i);
        int32_t tmp = pool[i];
        pool[i] = pool[j];
        pool[j] = tmp;
    }
    double share = 1.0 / (double)n0;
    for (int64_t f = 0; f < n0; f++) {
        st->id[f] = f;
        st->tech[f] = uniform(rs);
        st->share[f] = share;
        st->site[f] = pool[f];
        st->occ[pool[f]] = (int32_t)f;
    }
    st->n_slots = st->n_live = st->next_id = n0;
    st->sweep = st->row = 0;
    st->crossing = -1;
    st->frontier = 1.0;
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

/* The kinds' names in the event log, by kind */
static const char *const KIND_NAMES[N_KINDS] = {
    "bankrupted", "rescued", "moved_copied_frontier", "moved_no_diffusion",
    "merged", "spin_off", "spin_off_blocked"
};

/* The longest line: the longest kind name, a partner, a child, a rescue and
 * five integers of 19 characters (INT64_MAX): every integer is >= 0. */
#define EVENT_LINE_MAX (sizeof "{\"replica\":,\"t\":,\"firm\":,\"kind\":\"" \
    "moved_copied_frontier\",\"partner\":,\"child\":,\"rescued\":true}\n" \
    - 1 + 5 * 19)

size_t tm_event_line_max(void) { return EVENT_LINE_MAX; }

#define PUT(p, literal) \
    (memcpy(p, literal, sizeof literal - 1), (p) + sizeof literal - 1)

/* v as "%d" writes it: at most 20 characters, INT64_MIN's */
static char *put_int(char *p, int64_t v)
{
    uint64_t u = (uint64_t)v;
    char digits[19];
    int n = 0;
    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (n)
        *p++ = digits[--n];
    return p;
}

/* Append firm fid's step of this sweep to the text as one line: keys
 * replica, t, firm and kind, then partner when set (>= 0), child when the
 * step founded a spin-off (the newest firm), and "rescued":true when a
 * rescue fired. */
static void put_event(State *st, int kind, int64_t fid, int64_t partner,
                      int rescued)
{
    char *p = st->text + st->n_text;
    p = PUT(p, "{\"replica\":");
    p = put_int(p, st->replica);
    p = PUT(p, ",\"t\":");
    p = put_int(p, st->sweep);
    p = PUT(p, ",\"firm\":");
    p = put_int(p, fid);
    p = PUT(p, ",\"kind\":\"");
    size_t len = strlen(KIND_NAMES[kind]);
    memcpy(p, KIND_NAMES[kind], len);
    p += len;
    *p++ = '"';
    if (partner >= 0) {
        p = PUT(p, ",\"partner\":");
        p = put_int(p, partner);
        if (kind == SPIN_OFF) {
            p = PUT(p, ",\"child\":");
            p = put_int(p, st->next_id - 1);
        }
    }
    p = rescued ? PUT(p, ",\"rescued\":true}\n") : PUT(p, "}\n");
    st->n_text = p - st->text;
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
            /* Past x = 40, exp(-x) < 2^-53 <= 1 - u for every draw u, so
             * p = 0 takes the same decision without libm's slow underflow
             * path; x = inf decides as exp does, and NaN goes to exp.
             * (-s) * lag is -(s * lag) to the bit. */
            double x = st->s * lag;
            double p = lag > 0.0 ? (x > 40.0 ? 0.0 : exp(-x)) : 1.0;
            if (1.0 - uniform(rs) > p) {
                if ((st->segment == SEGMENT_ANY
                     || segment_of(st, tech, mean) == st->segment)
                        && 1.0 - uniform(rs) <= st->q) {
                    st->n_rescued++;
                    rescued = 1;
                    if (st->passive)
                        kind = RESCUED;
                } else {
                    double share = st->share[f];
                    remove_firm(st, f);
                    double delta = share / (double)st->n_live;
                    /* dead slots too: a dead slot's share is never read
                     * again (visits skip it, occ does not point at it and
                     * compact drops it), so live shares keep their bits */
                    for (int64_t g = 0; g < st->n_slots; g++)
                        st->share[g] += delta;
                    st->ws += delta * st->ts;
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
        if (st->text)
            put_event(st, kind, fid, partner_id, rescued);
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

/* Fold a sweep's renormalisation error into the row's maximum over the
 * replicas: nan once either is nan, as numpy.maximum keeps it. A
 * compare-exchange that fails reads the value another thread wrote. */
static void fold_max(double *max, double err)
{
    double cur;
    __atomic_load(max, &cur, __ATOMIC_RELAXED);
    while (!isnan(cur) && (err > cur || isnan(err))
           && !__atomic_compare_exchange(max, &cur, &err, 1, __ATOMIC_RELAXED,
                                         __ATOMIC_RELAXED))
        ;
}

/* Run the sweeps from row st->row on, drawing from rs: returns OK once the
 * last row is written, PAUSED before a sweep whose event lines might not
 * fit, or RENORM_ABOVE_TOLERANCE where the renormalisation fails (a share
 * total at or below 0 among them), with the error in st->err, the shared
 * rows left as they were and the sweep not advanced. Kept out of line:
 * inlined into work, its one caller, it raises gcc's peak memory while
 * building by about 2 MB, and no speed-up was measured. */
__attribute__((noinline)) static int run(State *st, Stream *rs)
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
        st->n_firms[row] = (double)n;
        st->mean_tech[row] = ws;
        st->ratio[row] = ws / st->frontier;
        if (st->crossing < 0 && ws >= st->threshold)
            st->crossing = row;
        if (row == st->n_rows - 1)
            return OK;
        if (st->text
                && st->n_text + n * (int64_t)EVENT_LINE_MAX > st->max_text)
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
        st->n_rescued = 0;
        update_cycle(st, rs, n);
        compact(st);

        double total = 0.0;
        for (int64_t f = 0; f < st->n_slots; f++)
            total += st->share[f];
        double err = st->err = fabs(total - 1.0);
        if (err > st->tolerance)
            return RENORM_ABOVE_TOLERANCE;
        __atomic_fetch_add(&st->rescued[row], st->n_rescued,
                           __ATOMIC_RELAXED);
        fold_max(&st->renorm_error[row], err);
        for (int64_t f = 0; f < st->n_slots; f++)
            st->share[f] /= total;
        st->ws /= total;
        st->sweep++;
        st->frontier = exp(st->sigma * (double)st->sweep);
        st->row++;
    }
}

/* An ensemble's run, which lasts across the calls of a paused, logged
 * run. Replica k starts from seeds[k] and writes row k of the three
 * replica-major matrices, of states[0]->n_rows rows each, and its crossing
 * to tc_vals[k], which is left as it is when the replica never crosses.
 * next is the next replica to claim; failed is the lowest replica that
 * failed, or n_replicas. paused is 1 while states[0] is stopped inside
 * replica states[0]->replica. workers is the number of workers the last
 * call ran on: the caller and the threads it started. */
typedef struct {
    State **states;
    int64_t n_states;
    const uint64_t *seeds;
    int64_t n_replicas, n_sites, n0;
    double *n_firms, *mean_tech, *ratio, *tc_vals;
    int64_t next, failed, paused, workers;
} Ensemble;

size_t tm_ensemble_size(void) { return sizeof(Ensemble); }

/* Lower *min to v, atomically */
static void fold_min(int64_t *min, int64_t v)
{
    int64_t cur = __atomic_load_n(min, __ATOMIC_RELAXED);
    while (v < cur && !__atomic_compare_exchange_n(
               min, &cur, v, 1, __ATOMIC_RELAXED, __ATOMIC_RELAXED))
        ;
}

/* A worker's loop: claim replicas and run them in st until none is left,
 * one has failed, or st's text is full (PAUSED, with the replica kept in
 * st). With resume, first finish the replica st paused in. */
static int work(Ensemble *en, State *st, int resume)
{
    Stream rs;
    int64_t rows = st->n_rows;
    for (;;) {
        int64_t k = st->replica;
        if (resume) {
            stream_open(&rs, st->mt);
            resume = 0;
        } else {
            if (__atomic_load_n(&en->failed, __ATOMIC_RELAXED)
                    < en->n_replicas)
                return OK;
            k = __atomic_fetch_add(&en->next, 1, __ATOMIC_RELAXED);
            if (k >= en->n_replicas)
                return OK;
            st->replica = k;
            st->n_firms = en->n_firms + k * rows;
            st->mean_tech = en->mean_tech + k * rows;
            st->ratio = en->ratio + k * rows;
            start(st, &rs, en->seeds[k], en->n_sites, en->n0);
        }
        int status = run(st, &rs);
        stream_close(&rs);
        if (status == PAUSED)
            return PAUSED;
        if (status == RENORM_ABOVE_TOLERANCE) {
            fold_min(&en->failed, k);
            return status;
        }
        if (st->crossing >= 0)
            en->tc_vals[k] = (double)st->crossing;
    }
}

typedef struct {
    pthread_t thread;
    Ensemble *en;
    State *st;
} Worker;

static void *work_on_thread(void *arg)
{
    Worker *w = arg;
    work(w->en, w->st, 0);
    return NULL;
}

/* Run en's replicas on its States: states[0] in the calling thread, each
 * other on a thread of its own that this call creates and joins. Returns
 * OK once every replica has run, RENORM_ABOVE_TOLERANCE when one failed,
 * with the lowest such replica in en->failed and its error and sweep in
 * the State that ran it, or PAUSED when states[0], the only State of a
 * logged run, has filled its text; the next call then continues. */
int tm_run_ensemble(Ensemble *en)
{
    int64_t n_threads = en->paused ? 0 : en->n_states - 1, started = 0;
    Worker *threads = malloc(sizeof *threads * (size_t)n_threads);
    for (int64_t w = 0; w < en->n_states; w++) {
        en->states[w]->n_text = 0;
        if (!en->paused)  /* a State that claims nothing names no replica */
            en->states[w]->replica = -1;
    }
    for (int64_t w = 0; threads && w < n_threads; w++) {
        Worker *t = &threads[started];
        t->en = en;
        t->st = en->states[w + 1];
        if (pthread_create(&t->thread, NULL, work_on_thread, t) == 0)
            started++;
    }
    int status = work(en, en->states[0], (int)en->paused);
    for (int64_t w = 0; w < started; w++)
        pthread_join(threads[w].thread, NULL);
    free(threads);
    en->workers = 1 + started;
    en->paused = status == PAUSED;
    if (en->failed < en->n_replicas)
        return RENORM_ABOVE_TOLERANCE;
    return status;
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

/* %.12g's digits in the exact range: 1e-15 <= x < 1e12 */
#define G_MIN 1e-15
#define G_MAX 1e12
/* 10^11 and 10^12: twelve digits as an integer lie in [G_LOW, G_HIGH) */
#define G_LOW 100000000000ULL
#define G_HIGH 1000000000000ULL

/* 5^k for k in [0, 27] */
static const uint64_t POW5[28] = {
    1U, 5U, 25U, 125U, 625U, 3125U, 15625U, 78125U, 390625U, 1953125U,
    9765625U, 48828125U, 244140625U, 1220703125U, 6103515625ULL,
    30517578125ULL, 152587890625ULL, 762939453125ULL, 3814697265625ULL,
    19073486328125ULL, 95367431640625ULL, 476837158203125ULL,
    2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL
};

/* The twelve significant digits of x, G_MIN <= x < G_MAX, as an integer in
 * [G_LOW, G_HIGH), with the decimal exponent of the first digit in *exp10.
 * x is m 2^e exactly, so its digits are m 5^k 2^(e + k) for k = 11 - e10,
 * rounded to an integer half to even on the exact remainder, as dtoa's
 * mode 2 rounds; m 5^k < 2^116 fits in 128 bits, and the shift -(e + k) is
 * in [13, 76] over the range. */
static uint64_t g_digits(double x, int *exp10)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int e = (int)(bits >> 52) - 1075;  /* x is normal and positive */
    /* floor((e + 52) log10 2), which is floor(log10 x) or one less; gcc's
     * >> of a negative int shifts in its sign */
    int e10 = ((e + 52) * 78913) >> 18;
    int k = 11 - e10;
    unsigned __int128 p = (unsigned __int128)m * POW5[k];
    uint64_t q = (uint64_t)(p >> -(e + k));
    if (q >= G_HIGH) {  /* e10 was one less than floor(log10 x) */
        e10++;
        k--;
        p = (unsigned __int128)m * POW5[k];
        q = (uint64_t)(p >> -(e + k));
    }
    int shift = -(e + k);
    unsigned __int128 half = (unsigned __int128)1 << (shift - 1);
    unsigned __int128 rem = p & ((half << 1) - 1);
    if (rem > half || (rem == half && (q & 1)))
        q++;
    if (q == G_HIGH) {  /* rounding carried into a thirteenth digit */
        q = G_LOW;
        e10++;
    }
    *exp10 = e10;
    return q;
}

/* The longest field put_g writes: "-d.ddddddddddde-XXX" */
#define G_FIELD_MAX 19

/* x as the C library's "%.12g" writes it under the C locale, made on the
 * first call into *c_locale; NULL when the locale cannot be made. */
static char *put_g_libc(char *p, double x, locale_t *c_locale)
{
    if (!*c_locale)
        *c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (!*c_locale)
        return NULL;
    locale_t caller = uselocale(*c_locale);
    int n = snprintf(p, G_FIELD_MAX + 1, "%.12g", x);
    uselocale(caller);
    return p + n;
}

/* x as Python's "%.12g" % x writes it: nan whatever its sign, inf, -0, and
 * twelve significant digits without trailing zeros, in exponent form when
 * the first digit's exponent X is below -4 or at least 12 (at least two
 * exponent digits). */
static char *put_g(char *p, double x, locale_t *c_locale)
{
    if (isnan(x))
        return PUT(p, "nan");
    if (signbit(x)) {
        *p++ = '-';
        x = -x;
    }
    if (isinf(x))
        return PUT(p, "inf");
    if (x == 0.0) {
        *p++ = '0';
        return p;
    }
    if (x < G_MIN || x >= G_MAX)
        return put_g_libc(p, x, c_locale);
    int e10;
    uint64_t q = g_digits(x, &e10);
    char d[12];
    for (int i = 11; i >= 0; i--) {
        d[i] = (char)('0' + q % 10);
        q /= 10;
    }
    size_t n = 12;
    while (d[n - 1] == '0')  /* d[0] is not '0' */
        n--;
    if (e10 < -4 || e10 >= 12) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = e10 < 0 ? '-' : '+';
        int a = e10 < 0 ? -e10 : e10;  /* at most 15 */
        *p++ = (char)('0' + a / 10);
        *p++ = (char)('0' + a % 10);
    } else if (e10 >= 0) {
        size_t whole = (size_t)e10 + 1;
        memcpy(p, d, whole);
        p += whole;
        if (n > whole) {
            *p++ = '.';
            memcpy(p, d + whole, n - whole);
            p += n - whole;
        }
    } else {
        p = PUT(p, "0.");
        for (int z = -e10 - 1; z > 0; z--)
            *p++ = '0';
        memcpy(p, d, n);
        p += n;
    }
    return p;
}

/* Write n_rows CSV lines into out: t[r] as "%d" writes it unless t is
 * NULL, then cols[c][r] for each of the n_cols columns as "%.12g" writes
 * it, comma-separated. Returns the bytes written, or -1 when the C locale
 * for the values outside [G_MIN, G_MAX) cannot be made. out must hold 20
 * bytes for t, 20 per column and 1 per line; the C library may write a
 * NUL after a line's last field, where its newline then goes. */
int64_t tm_csv_rows(const int64_t *t, const double *const *cols,
                    int64_t n_cols, int64_t n_rows, char *out)
{
    locale_t c_locale = (locale_t)0;
    char *p = out;
    for (int64_t r = 0; r < n_rows && p; r++) {
        if (t)
            p = put_int(p, t[r]);
        for (int64_t c = 0; c < n_cols && p; c++) {
            if (t || c)
                *p++ = ',';
            p = put_g(p, cols[c][r], &c_locale);
        }
        if (p)
            *p++ = '\n';
    }
    if (c_locale)
        freelocale(c_locale);
    return p ? p - out : -1;
}
