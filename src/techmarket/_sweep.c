/* The techmarket update cycle, compiled: one call runs a replica's sweeps.
 *
 * This is the second implementation of the cycle that dynamics._update_cycle
 * runs in Python; dynamics.py documents the model and the draw order, and
 * the Python code is the reference this file is tested against. Both must
 * give bit-identical results, which fixes the following:
 *
 * - Live firms sit in slots in ascending id order, the order of the Python
 *   registry (ids are never reused and new firms get the largest id). The
 *   sums, the visit order before its shuffle, the equal split and the
 *   renormalisation all run in that order.
 * - Every running-sum update is the Python expression with its operands in
 *   the same order. The library is built with -ffp-contract=off, so that
 *   no multiply-add is fused, and without -ffast-math.
 * - exp and sqrt come from the C library's libm, as in CPython's math.
 * - The stream is CPython's MT19937 (_randommodule.c): random() joins two
 *   words as genrand_res53 does; the 624 words and the position are the
 *   ones Random.getstate() returns.
 *
 * compiled.py mirrors the State struct with ctypes and checks its size
 * against tm_state_size() before use.
 *
 * tm_run writes the rows of a dynamics.Trajectory into the columns State
 * points to, as dynamics.run_sweeps does. When State.events is set, each
 * visit also writes the row that _update_cycle appends to an event sink:
 * (kind, firm, t, partner, child, rescued), with -1 for no partner and no
 * child. A sweep writes at most one row per firm alive at its start, so
 * tm_run returns PAUSED before a sweep whose rows might not fit; the caller
 * takes the rows and calls again.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

enum {
    BANKRUPTED, RESCUED, MOVED_COPIED_FRONTIER, MOVED_NO_DIFFUSION, MERGED,
    SPIN_OFF, SPIN_OFF_BLOCKED
};

enum { SEGMENT_ANY = -1, SEGMENT_LOW, SEGMENT_MEDIUM, SEGMENT_HIGH };

enum { OK, RENORM_ABOVE_TOLERANCE, NO_SHARE, PAUSED };

typedef struct {
    /* parameters */
    double s, b, q, omega_s, sigma, tolerance;
    int64_t n_min, segment, passive;
    /* lattice: neighbour tables by flat site, occupancy as slot or -1 */
    const int32_t *vn4, *moore8;
    int32_t *occ;
    /* firms by slot; a dead firm has id -1 until the sweep ends. Slots
     * hold the firms alive at the sweep's start plus at most one spin-off per
     * visit, so twice the site count always suffices. */
    int64_t *id;
    double *tech, *share;
    int32_t *site, *order;
    int64_t n_slots, n_live;
    /* clock, frontier and the running sums of MarketState */
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

static uint32_t genrand_uint32(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    uint32_t pos = mt[MT_N];
    if (pos >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        pos = 0;
    }
    y = mt[pos];
    mt[MT_N] = pos + 1;
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random.random() */
static double uniform(uint32_t *mt)
{
    uint32_t a = genrand_uint32(mt) >> 5, b = genrand_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* int(random() * n), clamped to n - 1 for the u -> 1 rounding edge */
static int64_t pick(uint32_t *mt, int64_t n)
{
    int64_t k = (int64_t)(uniform(mt) * (double)n);
    return k < n ? k : n - 1;
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

static int interact(State *st, int64_t i, int64_t j)
{
    uint32_t *mt = st->mt;
    if (1.0 - uniform(mt) <= st->b) {
        double share_j = st->share[j], tech_j = st->tech[j];
        remove_firm(st, j);
        if (tech_j > st->tech[i])
            set_tech(st, i, tech_j);
        st->share[i] += share_j;
        st->ws += share_j * st->tech[i];
        return MERGED;
    }
    int32_t k = st->moore8[8 * st->site[i] + pick(mt, 8)];
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

static void update_cycle(State *st, int64_t n_order)
{
    uint32_t *mt = st->mt;
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
            if (1.0 - uniform(mt) > p) {
                if ((st->segment == SEGMENT_ANY
                     || segment_of(st, tech, mean) == st->segment)
                        && 1.0 - uniform(mt) <= st->q) {
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
            int32_t target = st->vn4[4 * site + pick(mt, 4)];
            int64_t partner = occ[target];
            if (partner < 0) {
                occ[site] = -1;
                occ[target] = (int32_t)f;
                st->site[f] = target;
                const int32_t *hood = st->moore8 + 8 * target;
                int nb;
                for (nb = 0; nb < 8; nb++)
                    if (occ[hood[nb]] >= 0)
                        break;
                if (nb < 8) {
                    partner = occ[hood[pick(mt, 8)]];
                } else {
                    double r2;
                    do
                        r2 = uniform(mt);
                    while (r2 == 0.0);
                    double tech = st->tech[f];
                    double out = tech + r2 * (frontier - tech);
                    if (out >= frontier)  /* external_diffusion's clamp */
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
                    kind = interact(st, f, partner);
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

/* dynamics.run_sweeps from row st->row on: returns OK once the last row is
 * written, PAUSED before a sweep whose event rows might not fit, or the
 * failure renormalize_shares raises, with the error in the sweep's row and
 * the sweep not advanced. Columns rescued and bankrupted must start at 0. */
int tm_run(State *st)
{
    st->n_events = 0;
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
            int64_t j = pick(st->mt, i + 1);
            int32_t tmp = order[i];
            order[i] = order[j];
            order[j] = tmp;
        }
        update_cycle(st, n);
        compact(st);

        double total = 0.0;
        for (int64_t f = 0; f < st->n_slots; f++)
            total += st->share[f];
        if (total <= 0.0)
            return NO_SHARE;
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
