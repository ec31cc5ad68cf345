/* Fused bank-step kernel: the consensus+innovation round of
 * ``estimator._advance`` plus the moment update, for a whole bank of
 * trials over one segment of a draw block.
 *
 * ``struct adle_bank`` holds the sizes and the array addresses, set once
 * by the Python loader; every array is C-contiguous float64 (int64 for
 * edges, one byte per flag for active) with the shapes the loader
 * checks, and this file trusts them.
 *
 *   x         (bank, n, m)         estimates, updated in place
 *   g         (bank, n, m, m)      Grammians, updated in place
 *   shift     (bank, n, mx)        per-agent moment shift (first observation)
 *   sums      (bank, n, mx)        sum of (y - shift)
 *   outer     (bank, n, mx, mx)    sum of (y - shift)(y - shift)'
 *   q0        (n, mx, mx)          sample covariance before any observation
 *   h         (n, mx, m)           padded sensing matrices
 *   truth     (n, mx)              sensed truth H theta
 *   factor    (n, mx, mx)          noise factors
 *   noise     (bank, steps, n, mx) unit-variance draws of the block
 *   w         (3, steps)           alpha, beta, gamma of each block step
 *   edges     (num_edges, 2)       base-graph edges
 *   active    (bank, steps, num_edges)  active-edge masks; NULL: all active
 *   failure   (2,)                 trial and step of a singular gain solve
 *
 * Each step forms its observations from the noise as
 * ``harness._observations`` does: y = truth + sum_j factor[., j] z_j,
 * the products summed left to right, so the bits are the same.
 *
 * Trial lanes.  A vector of LANES doubles carries one trial per lane,
 * and every lane performs exactly the scalar operations of its own
 * trial, in the same order, so the results do not depend on the lane
 * width.  The body below is stamped out once per width: 1 (any CPU), and
 * on x86 4 (AVX2) and 8 (AVX-512F), each as ``adle_advance_bank_<L>``;
 * ``adle_lanes`` names the widest one this CPU runs.
 *
 * The bank is cut into groups of LANES trials (the last group padded
 * with dead lanes).  Lane groups are the outer loop and steps the inner
 * one: a group's state is gathered into lane-major scratch once per
 * call and scattered back once, while each step's noise and active-edge
 * masks are read in place, strided by trial.  Partial pivoting picks
 * each lane's pivot by compare-and-blend, and a masked-off edge or a
 * dead lane keeps its value by select, never by adding zero
 * (-0.0 + 0.0 is +0.0).  A trial whose gain solve meets a zero pivot
 * stops there; the others go on, so that ``failure`` ends up naming the
 * earliest such step (and the first trial at it), as a round-by-round
 * bank would meet it.
 */

/* This file includes itself once per lane width: read without LANES it
 * is the shared part below, with LANES the body after #else. */
#ifndef LANES

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OK = 0, SINGULAR = 1, NO_MEMORY = 2 };

/* Mirrored field for field by ``_kernel._BankArgs`` in the loader. */
struct adle_bank {
    int64_t bank, n, m, mx, steps, num_edges;
    double *x, *g, *shift, *sums, *outer;
    const double *q0, *h, *truth, *factor, *noise, *w;
    const int64_t *edges;
    const uint8_t *active;
    int64_t failure[2];
};

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)
#define NAME(base) CAT(base, CAT(_, LANES))

#define LANES 1
#include "_kernel.c"
#undef LANES

#if defined(__x86_64__) || defined(__i386__)
#pragma GCC push_options
#pragma GCC target("avx2")
#define LANES 4
#include "_kernel.c"
#undef LANES
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
#define LANES 8
#include "_kernel.c"
#undef LANES
#pragma GCC pop_options
#endif

/* The widest lane width whose instructions this CPU (and its operating
 * system) supports; every narrower width runs too. */
int adle_lanes(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return __builtin_cpu_supports("avx512f") ? 8 : 4;
#endif
    return 1;
}

#else /* the body, once per lane width */

#define V NAME(vd)
#define M NAME(vm)
#if LANES == 1
/* plain scalars: GCC keeps one-element vectors in memory */
typedef double V;
typedef int64_t M;                   /* a lane mask: all ones or zero */
#define LANE(v, l) (v)
#define GREATER(a, b) (-(M)((a) > (b)))
#define IS_ZERO(a) (-(M)((a) == 0.0))
#define SAME(i, r) (-(M)((i) == (r)))

static inline V NAME(pick)(M on, V a, V b)
{
    return on ? a : b;
}

static inline V NAME(abs)(V v)
{
    return __builtin_fabs(v);
}
#else
typedef double V __attribute__((vector_size(8 * LANES)));
typedef int64_t M __attribute__((vector_size(8 * LANES)));
#define LANE(v, l) ((v)[l])
#define GREATER(a, b) ((a) > (b))
#define IS_ZERO(a) ((a) == 0.0)
#define SAME(i, r) ((i) == (r))

/* a where on, else b, bit for bit */
static inline V NAME(pick)(M on, V a, V b)
{
    return (V)(((M)a & on) | ((M)b & ~on));
}

static inline V NAME(abs)(V v)
{
    return (V)((M)v & INT64_MAX);
}
#endif

static inline M NAME(pick_index)(M on, M a, M b)
{
    return (a & on) | (b & ~on);
}

static inline int NAME(any)(M on)
{
    int64_t acc = 0;
    for (int l = 0; l < LANES; l++)
        acc |= LANE(on, l);
    return acc != 0;
}

static inline V NAME(splat)(double s)
{
    V v;
    for (int l = 0; l < LANES; l++)
        LANE(v, l) = s;
    return v;
}

static inline M NAME(splat_index)(int64_t s)
{
    M v;
    for (int l = 0; l < LANES; l++)
        LANE(v, l) = s;
    return v;
}

/* Solve a z = b for k right-hand sides in every lane by LU with partial
 * pivoting, as LAPACK's dgesv does (multipliers scaled by the pivot's
 * reciprocal, back substitution dividing by it).  a (n x n) is
 * overwritten by its factors and b (n x k) by the solution.  Returns the
 * lanes that met an exactly zero pivot; their results are meaningless. */
static M NAME(solve)(int64_t n, int64_t k, V *a, V *b)
{
    M singular = {0};
    for (int64_t c = 0; c < n; c++) {
        M piv = NAME(splat_index)(c);
        V best = NAME(abs)(a[c * n + c]);
        for (int64_t r = c + 1; r < n; r++) {
            V v = NAME(abs)(a[r * n + c]);
            M better = GREATER(v, best);
            best = NAME(pick)(better, v, best);
            piv = NAME(pick_index)(better, NAME(splat_index)(r), piv);
        }
        singular |= IS_ZERO(best);
        for (int64_t r = c + 1; r < n; r++) {
            M swap = SAME(piv, r);
            if (!NAME(any)(swap))
                continue;
            for (int64_t j = c; j < n; j++) {
                V top = a[c * n + j];
                a[c * n + j] = NAME(pick)(swap, a[r * n + j], top);
                a[r * n + j] = NAME(pick)(swap, top, a[r * n + j]);
            }
            for (int64_t j = 0; j < k; j++) {
                V top = b[c * k + j];
                b[c * k + j] = NAME(pick)(swap, b[r * k + j], top);
                b[r * k + j] = NAME(pick)(swap, top, b[r * k + j]);
            }
        }
        const V inv = 1.0 / a[c * n + c];
        for (int64_t r = c + 1; r < n; r++) {
            V f = a[r * n + c] * inv;
            for (int64_t j = c + 1; j < n; j++)
                a[r * n + j] -= f * a[c * n + j];
            for (int64_t j = 0; j < k; j++)
                b[r * k + j] -= f * b[c * k + j];
        }
    }
    for (int64_t r = n - 1; r >= 0; r--) {
        for (int64_t j = 0; j < k; j++) {
            V s = b[r * k + j];
            for (int64_t c = r + 1; c < n; c++)
                s -= a[r * n + c] * b[c * k + j];
            b[r * k + j] = s / a[r * n + r];
        }
    }
    return singular;
}

/* Gain, innovation and Grammian innovation of one agent from its
 * time-t state: innov = K (y - H x) and gi = H' inv(Q + gamma I) H with
 * K = inv(G + gamma I) H' inv(Q + gamma I).  q0 and h are shared by the
 * lanes.  work holds 2 mx^2 + 2 m mx + m^2 + mx vectors.  Returns the
 * lanes whose solves met a zero pivot. */
static M NAME(agent_terms)(int64_t m, int64_t mx, int64_t count, double gamma,
                           const V *x, const V *g, const V *sums, const V *outer,
                           const double *q0, const double *h, const V *y,
                           V *innov, V *gi, V *work)
{
    V *dq = work;                    /* Q + gamma I, then its factors */
    V *dinv = dq + mx * mx;          /* inv(Q + gamma I) */
    V *bt = dinv + mx * mx;          /* H' inv(Q + gamma I), m x mx */
    V *gain = bt + m * mx;           /* K, m x mx */
    V *ga = gain + m * mx;           /* G + gamma I, then its factors */
    V *res = ga + m * m;             /* y - H x */
    M singular = {0};

    if (count == 0) {
        for (int64_t q = 0; q < mx * mx; q++)
            dq[q] = NAME(splat)(q0[q]);
    } else {
        const double n = (double)count;
        for (int64_t i = 0; i < mx; i++) {
            V mean_i = sums[i] / n;
            for (int64_t j = 0; j < mx; j++)
                dq[i * mx + j] = outer[i * mx + j] / n - mean_i * (sums[j] / n);
        }
    }
    if (mx == 1) {
        dinv[0] = 1.0 / (dq[0] + gamma);
    } else {
        for (int64_t i = 0; i < mx; i++) {
            dq[i * mx + i] += gamma;
            for (int64_t j = 0; j < mx; j++)
                dinv[i * mx + j] = NAME(splat)(i == j ? 1.0 : 0.0);
        }
        singular |= NAME(solve)(mx, mx, dq, dinv);
    }
    for (int64_t i = 0; i < m; i++) {
        for (int64_t j = 0; j < mx; j++) {
            V s = NAME(splat)(0.0);
            for (int64_t k = 0; k < mx; k++)
                s += h[k * m + i] * dinv[k * mx + j];
            bt[i * mx + j] = s;
        }
    }
    for (int64_t i = 0; i < m; i++) {
        for (int64_t j = 0; j < m; j++) {
            V s = NAME(splat)(0.0);
            for (int64_t k = 0; k < mx; k++)
                s += bt[i * mx + k] * h[k * m + j];
            gi[i * m + j] = s;
        }
    }
    memcpy(gain, bt, (size_t)(m * mx) * sizeof(V));
    memcpy(ga, g, (size_t)(m * m) * sizeof(V));
    for (int64_t i = 0; i < m; i++)
        ga[i * m + i] += gamma;
    singular |= NAME(solve)(m, mx, ga, gain);
    for (int64_t k = 0; k < mx; k++) {
        V hx = NAME(splat)(0.0);
        for (int64_t j = 0; j < m; j++)
            hx += h[k * m + j] * x[j];
        res[k] = y[k] - hx;
    }
    for (int64_t i = 0; i < m; i++) {
        V s = NAME(splat)(0.0);
        for (int64_t k = 0; k < mx; k++)
            s += gain[i * mx + k] * res[k];
        innov[i] = s;
    }
    return singular;
}

/* Edge-indexed neighborhood sums: where the edge (i, j) is on, add
 * v_i - v_j to agent i and subtract it from agent j. */
static void NAME(edge_sums)(int64_t width, int64_t i, int64_t j, M on, const V *v, V *out)
{
    const V *vi = v + i * width, *vj = v + j * width;
    V *oi = out + i * width, *oj = out + j * width;
    for (int64_t q = 0; q < width; q++) {
        V d = vi[q] - vj[q];
        oi[q] = NAME(pick)(on, oi[q] + d, oi[q]);
        oj[q] = NAME(pick)(on, oj[q] - d, oj[q]);
    }
}

/* Copy one trial's ``width`` doubles into lane ``l`` of ``lanes``, and back. */
static void NAME(gather)(int64_t width, int l, const double *trial, V *lanes)
{
    for (int64_t q = 0; q < width; q++)
        LANE(lanes[q], l) = trial[q];
}

static void NAME(scatter)(int64_t width, int l, const V *lanes, double *trial)
{
    for (int64_t q = 0; q < width; q++)
        trial[q] = LANE(lanes[q], l);
}

int NAME(adle_advance_bank)(struct adle_bank *b, int64_t start, int64_t stop, int64_t count)
{
    const int64_t bank = b->bank, n = b->n, m = b->m, mx = b->mx, steps = b->steps;
    const int64_t num_edges = b->num_edges, *edges = b->edges;
    const double *q0 = b->q0, *h = b->h, *truth = b->truth, *factor = b->factor;
    const double *noise = b->noise, *w = b->w;
    const uint8_t *active = b->active;
    int64_t *failure = b->failure;
    const int64_t mm = m * m;
    /* the bank state arrays, each with ``width`` doubles per trial */
    double *const state[5] = {b->x, b->g, b->shift, b->sums, b->outer};
    const int64_t width[5] = {n * m, n * mm, n * mx, n * mx, n * mx * mx};
    const int64_t vectors = width[0] + width[1] + width[2] + width[3] + width[4]
                            + 2 * n * m + 2 * n * mm + 2 * n * mx  /* innov, gi, cx, cg, z, y */
                            + 2 * mx * mx + 2 * m * mx + mm + mx;  /* work */
    const size_t bytes = ((size_t)vectors * sizeof(V) + 63) / 64 * 64;
    V *buf = aligned_alloc(64, bytes);
    if (buf == NULL)
        return NO_MEMORY;
    V *lane_state[5];
    lane_state[0] = buf;
    for (int f = 1; f < 5; f++)
        lane_state[f] = lane_state[f - 1] + width[f - 1];
    V *xr = lane_state[0], *gr = lane_state[1];
    V *shr = lane_state[2], *sr = lane_state[3], *orr = lane_state[4];
    V *innov = orr + n * mx * mx;    /* (n, m) */
    V *gi = innov + n * m;           /* (n, m, m) */
    V *cx = gi + n * mm;             /* (n, m) */
    V *cg = cx + n * m;              /* (n, m, m) */
    V *z = cg + n * mm;              /* (n, mx) noise */
    V *y = z + n * mx;               /* (n, mx) observations */
    V *work = y + n * mx;
    int status = OK;

    for (int64_t first = 0; first < bank; first += LANES) {
        /* a dead lane past the bank end reads the last trial's data */
        int64_t trial[LANES];
        M live;
        for (int l = 0; l < LANES; l++) {
            LANE(live, l) = first + l < bank ? -1 : 0;
            trial[l] = first + l < bank ? first + l : bank - 1;
        }
        for (int f = 0; f < 5; f++)
            for (int l = 0; l < LANES; l++)
                NAME(gather)(width[f], l, state[f] + trial[l] * width[f], lane_state[f]);

        for (int64_t s = start; s < stop && NAME(any)(live); s++) {
            const double alpha = w[s], beta = w[steps + s], gamma = w[2 * steps + s];
            const int64_t c = count + (s - start);
            for (int l = 0; l < LANES; l++)
                NAME(gather)(n * mx, l, noise + (trial[l] * steps + s) * n * mx, z);
            for (int64_t a = 0; a < n; a++) {
                const V *za = z + a * mx;
                for (int64_t i = 0; i < mx; i++) {
                    const double *f = factor + (a * mx + i) * mx;
                    V acc = f[0] * za[0];
                    for (int64_t j = 1; j < mx; j++)
                        acc += f[j] * za[j];
                    y[a * mx + i] = truth[a * mx + i] + acc;
                }
            }

            M singular = {0};
            for (int64_t a = 0; a < n; a++)
                singular |= NAME(agent_terms)(m, mx, c, gamma, xr + a * m, gr + a * mm,
                                              sr + a * mx, orr + a * mx * mx, q0 + a * mx * mx,
                                              h + a * mx * m, y + a * mx, innov + a * m,
                                              gi + a * mm, work);
            singular &= live;
            if (NAME(any)(singular)) {
                int l = 0;
                while (!LANE(singular, l))
                    l++;
                if (status == OK || c < failure[1]) {
                    failure[0] = first + l;
                    failure[1] = c;
                }
                status = SINGULAR;
                live &= ~singular;
            }

            memset(cx, 0, (size_t)(n * m) * sizeof(V));
            memset(cg, 0, (size_t)(n * mm) * sizeof(V));
            M on = NAME(splat_index)(-1);
            for (int64_t k = 0; k < num_edges; k++) {
                if (active != NULL) {
                    for (int l = 0; l < LANES; l++)
                        LANE(on, l) = active[(trial[l] * steps + s) * num_edges + k] ? -1 : 0;
                    if (!NAME(any)(on))
                        continue;
                }
                NAME(edge_sums)(m, edges[2 * k], edges[2 * k + 1], on, xr, cx);
                NAME(edge_sums)(mm, edges[2 * k], edges[2 * k + 1], on, gr, cg);
            }

            for (int64_t q = 0; q < n * m; q++)
                xr[q] = NAME(pick)(live, xr[q] - beta * cx[q] + alpha * innov[q], xr[q]);
            for (int64_t q = 0; q < n * mm; q++)
                gr[q] = NAME(pick)(live, gr[q] - beta * cg[q] + alpha * (gi[q] - gr[q]), gr[q]);

            for (int64_t a = 0; a < n; a++) {
                const V *ya = y + a * mx;
                V *sh = shr + a * mx, *su = sr + a * mx, *ou = orr + a * mx * mx;
                if (c == 0)
                    for (int64_t i = 0; i < mx; i++)
                        sh[i] = NAME(pick)(live, ya[i], sh[i]);
                for (int64_t i = 0; i < mx; i++) {
                    V di = ya[i] - sh[i];
                    su[i] = NAME(pick)(live, su[i] + di, su[i]);
                    for (int64_t j = 0; j < mx; j++)
                        ou[i * mx + j] = NAME(pick)(live, ou[i * mx + j] + di * (ya[j] - sh[j]),
                                                    ou[i * mx + j]);
                }
            }
        }

        for (int f = 0; f < 5; f++)
            for (int l = 0; l < LANES && first + l < bank; l++)
                NAME(scatter)(width[f], l, lane_state[f], state[f] + trial[l] * width[f]);
    }
    free(buf);
    return status;
}

#undef V
#undef M
#undef LANE
#undef GREATER
#undef IS_ZERO
#undef SAME

#endif
