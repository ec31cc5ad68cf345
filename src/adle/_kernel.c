/* Fused bank kernel: for a whole bank of trials, the consensus+innovation
 * round of the numpy oracle ``stacked_round`` (``tests/reference.py``)
 * plus the moment update over one segment of steps, each step's weights
 * computed from the schedule and its noise and links drawn from the
 * trials' random streams, and the checkpoint records of
 * ``harness._bank_checkpoint`` at its last step.
 *
 * ``struct adle_bank`` holds the sizes, the horizon and block length,
 * what to draw and the array addresses, set once by the Python loader;
 * every array is C-contiguous float64 (int64 for edges) with the shapes
 * the loader checks, and this file trusts them.
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
 *   edges     (num_edges, 2)       base-graph edges
 *   streams   (bank)               each trial's stream, which draws its noise
 *   link_streams (bank)            each trial's link stream, which draws its links
 *   theta, kopt, gtarget  (m), (n, m, mx), (m, m): truth, optimal gains, mean Grammian
 *   scratch   adle_scratch_vectors() lane vectors, 64-byte aligned
 *   failure   (2,)                 trial and step of a failure
 *
 * The weights of step t (observations folded) are alpha, beta and gamma =
 * scale[k] / pow(t + 1.0, tau[k]): libm's pow, which Python's float power
 * calls, so they are ``WeightSchedule.alpha(t)`` and the others bit for
 * bit.  At each step every trial draws n mx unit-variance values from its
 * stream, standard normals or Laplace draws of scale ``laplace`` (0:
 * normals), and its links from its link stream: ``links`` says which
 * (NO_LINKS: none, every edge on; BELOW: one uniform per edge, on below
 * p; PICK: one edge picked).  The link law is not read here.  Where
 * links are drawn, a block starts at each step s that ``block`` divides:
 * each trial's link stream takes its stream's state, and the stream moves
 * past the block's links, min(block, horizon - s) steps of them, so that
 * a trial's stream holds a block's links, then the block's noise.  The
 * observations are y = truth + sum_j factor[., j] z_j, formed as the
 * oracle's ``observations`` forms them, the products summed left to
 * right, so the bits are the same.  Each checkpoint sum of squares runs in
 * numpy's pairwise order, so only the gain gap differs, in its last bits:
 * LAPACK orders its solves its way.
 *
 * The Grammians stay exactly symmetric, and their m^2 work runs on the
 * upper triangle only: the innovation H' inv(Q + gamma I) H, the consensus
 * edge sums and the update of G.  The gain solve mirrors G's upper
 * triangle into G + gamma I.  After its steps, before its records and its
 * scatter, each lane group copies its upper triangles into the lower ones,
 * so the bank state and the records hold a whole, symmetric G; the loader
 * binds no bank whose Grammians are not exactly symmetric.  Where every
 * sensing entry is 0 or 1 and mx is 1, the whole H' inv(Q + gamma I) H
 * comes out exactly symmetric, so the upper triangle alone gives the bits
 * of a round over every entry.
 *
 * Trial lanes.  A vector of LANES doubles carries one trial per lane,
 * and every lane performs exactly the scalar operations of its own
 * trial, in the same order, so the results do not depend on the lane
 * width.  The body below is stamped out once per width: 1 (any CPU), and
 * on x86 4 (AVX2) and 8 (AVX-512F), as ``adle_advance_bank_<L>``;
 * ``adle_lanes`` names the widest one this CPU runs.
 *
 * The bank is cut into groups of LANES trials (the last group padded
 * with dead lanes, which draw nothing and reread the last trial's noise).
 * Lane groups are the outer loop and steps the inner one: a group's state
 * is gathered into lane-major scratch once per call, its records are read
 * from there, and it is scattered back once, while each step's draws are
 * made one lane at a time into a draw temporary at the head of the scratch
 * and gathered into their lane.  Partial pivoting picks each lane's pivot by
 * compare-and-blend, and a masked-off edge or a dead lane keeps its value
 * by select, never by adding zero (-0.0 + 0.0 is +0.0).  A trial whose
 * gain solve meets a zero pivot stops there while the others go on, so
 * that ``failure`` names the earliest such step and its first trial, as a
 * round-by-round bank would meet it.
 *
 * adle_csv_rows, shared by every width, writes the report tables as CSV
 * text, each double spelt as Python's repr spells it.
 */

/* This file includes itself once per lane width: read without LANES it
 * is the shared part below, with LANES the body after #else. */
#ifndef LANES

#include <math.h>
#include <stdbool.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

enum { OK = 0, SINGULAR = 1, NOT_FINITE = 2 };
enum { NO_LINKS = 0, BELOW = 1, PICK = 2 };

/* Random streams.  struct adle_stream is numpy's PCG64 state with its
 * carried half-word: a stream seeded with the words of
 * SeedSequence.generate_state(4, uint64) draws exactly what
 * np.random.default_rng draws, since the draws below are numpy's own C
 * distributions (libnpyrandom.a, linked into this library) called on it.
 * The loader allocates a bank's states 16-byte aligned. */
typedef __uint128_t u128;

struct adle_stream {
    u128 state, inc;
    int32_t has_half;   /* numpy's has_uint32 and uinteger: the upper half */
    uint32_t half;      /* of an output whose lower half was drawn alone */
};

/* numpy/random/bitgen.h, and the distributions of numpy/random/distributions.h
 * that are used (that header includes Python.h) */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void random_standard_normal_fill(bitgen_t *, ptrdiff_t, double *);
double random_laplace(bitgen_t *, double, double);
uint64_t random_bounded_uint64(bitgen_t *, uint64_t, uint64_t, uint64_t, bool);

#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* PCG64's XSL-RR output of the next state */
static inline uint64_t next64(struct adle_stream *s)
{
    const u128 state = s->state = s->state * PCG_MULT + s->inc;
    const uint64_t folded = (uint64_t)(state >> 64) ^ (uint64_t)state;
    const unsigned rot = (unsigned)(state >> 122);
    return (folded >> rot) | (folded << ((64 - rot) & 63));
}

static uint64_t next_uint64(void *s)
{
    return next64(s);
}

static uint32_t next_uint32(void *st)
{
    struct adle_stream *s = st;
    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    const uint64_t next = next64(s);
    s->has_half = 1;
    s->half = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static inline double to_unit(uint64_t bits)
{
    return (double)(bits >> 11) * (1.0 / 9007199254740992.0);
}

static double next_double(void *s)
{
    return to_unit(next64(s));
}

#define BITGEN(s) {(s), next_uint64, next_uint32, next_double, next_uint64}

/* count unit-variance draws into out: Generator.standard_normal, or at a
 * scale laplace > 0 Generator.laplace(0, laplace) */
static void unit_draws(struct adle_stream *s, int64_t count, double laplace, double *out)
{
    bitgen_t gen = BITGEN(s);
    if (laplace == 0.0)
        random_standard_normal_fill(&gen, count, out);
    else
        for (int64_t i = 0; i < count; i++)
            out[i] = random_laplace(&gen, 0.0, laplace);
}

/* Generator.random() < p, without the uniform */
static inline bool below(struct adle_stream *s, double p)
{
    return to_unit(next64(s)) < p;
}

/* Generator.integers(0, edges) */
static inline int64_t pick_edge(struct adle_stream *s, int64_t edges)
{
    bitgen_t gen = BITGEN(s);
    return (int64_t)random_bounded_uint64(&gen, 0, (uint64_t)edges - 1, 0, false);
}

int64_t adle_stream_bytes(void)
{
    return (int64_t)sizeof(struct adle_stream);
}

/* PCG64's seeding of each of a bank of `rows` streams, consecutive in
 * memory, from two 128-bit words, given as four 64-bit ones, high half
 * first */
void adle_seed(struct adle_stream *s, int64_t rows, const uint64_t *words)
{
    for (int64_t r = 0; r < rows; r++, words += 4) {
        s[r].state = 0;
        s[r].inc = ((((u128)words[2] << 64) | words[3]) << 1) | 1;
        next64(&s[r]);
        s[r].state += ((u128)words[0] << 64) | words[1];
        next64(&s[r]);
        s[r].has_half = 0;
        s[r].half = 0;
    }
}

/* Jump delta outputs ahead, as PCG64.advance does, which also drops the
 * carried half-word. */
static void jump(struct adle_stream *s, uint64_t delta)
{
    u128 mult = PCG_MULT, plus = s->inc, acc_mult = 1, acc_plus = 0;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            acc_mult *= mult;
            acc_plus = acc_plus * mult + plus;
        }
        plus *= mult + 1;
        mult *= mult;
    }
    s->state = acc_mult * s->state + acc_plus;
    s->has_half = 0;
    s->half = 0;
}

/* Mirrored field for field by ``_kernel._BankArgs`` in the loader, which
 * checks its size and this version: bump the version whenever a field, or
 * the meaning of one, changes. */
#define ADLE_LAYOUT 7

struct adle_bank {
    int64_t bank, n, m, mx, num_edges, links, horizon, block;
    double p, laplace;
    double scale[3], tau[3];
    double *x, *g, *shift, *sums, *outer;
    const double *q0, *h, *truth, *factor;
    const int64_t *edges;
    struct adle_stream *streams, *link_streams;
    const double *theta, *kopt, *gtarget;
    void *scratch;
    int64_t failure[2];
};

/* The layout version and size of struct adle_bank, which the loader
 * compares with its own before it binds a bank. */
int64_t adle_layout(void)
{
    return ADLE_LAYOUT;
}

int64_t adle_bank_bytes(void)
{
    return (int64_t)sizeof(struct adle_bank);
}

/* Weight k of step t: alpha, beta or gamma, scale[k] / (t + 1)^tau[k] */
static inline double weight(const struct adle_bank *b, int k, int64_t t)
{
    return b->scale[k] / pow((double)t + 1.0, b->tau[k]);
}

/* Start the link draws of trial r's block at step s, a multiple of the
 * block length: its link stream takes its stream's state, and the stream
 * moves past the block's links, min(block, horizon - s) steps of them: it
 * jumps their E uniforms a step (BELOW), or draws and drops their picks
 * (PICK), which read a varying count of outputs. */
static void start_block(const struct adle_bank *b, int64_t r, int64_t s)
{
    struct adle_stream *stream = &b->streams[r];
    const int64_t steps = b->horizon - s < b->block ? b->horizon - s : b->block;
    b->link_streams[r] = *stream;
    if (b->links == PICK)
        for (int64_t i = 0; i < steps; i++)
            pick_edge(stream, b->num_edges);
    else
        jump(stream, (uint64_t)(steps * b->num_edges));
}

/* Lane vectors of scratch, allocated once per bank by the loader: the
 * layout of adle_advance_bank, of which its records reuse a part. */
int64_t adle_scratch_vectors(const struct adle_bank *b)
{
    const int64_t n = b->n, m = b->m, mx = b->mx;
    return n * (3 * m + 3 * m * m + 5 * mx + mx * mx) + 2 * mx * mx + 2 * m * mx + m * m + mx;
}

/* CSV text of the report tables.  libstdc++'s (GCC >= 11) shortest
 * round-trip std::to_chars(first, last, value, chars_format::scientific),
 * bound by its symbol, gives the digits that repr(float) chooses: the
 * fewest that read back to the value, the closest of them where several
 * are as short (Ryu; Adams, PLDI 2018), as d.ddde+XX. */
struct to_chars_result {
    char *ptr;
    int ec;
};

struct to_chars_result shortest_scientific(char *first, char *last, double value, int format)
    __asm__("_ZSt8to_charsPcS_dSt12chars_format");

enum { SCIENTIFIC = 1 };   /* std::chars_format::scientific */

static char *put(char *out, const char *text, int64_t count)
{
    memcpy(out, text, (size_t)count);
    return out + count;
}

/* value as repr(float(value)) spells it: nan, inf, -0.0, fixed notation
 * for decimal exponents from -4 to 15 (1e-05 and 1e+16 are scientific),
 * at least one digit after the point; at most 24 bytes */
static char *csv_double(char *out, double value)
{
    if (isnan(value))
        return put(out, "nan", 3);
    if (signbit(value)) {
        *out++ = '-';
        value = -value;
    }
    if (isinf(value))
        return put(out, "inf", 3);
    if (value == 0.0)
        return put(out, "0.0", 3);
    char text[32], digits[17];
    const char *end = shortest_scientific(text, text + sizeof text, value, SCIENTIFIC).ptr;
    const char *e = memchr(text, 'e', (size_t)(end - text));
    int64_t exp = 0, count = 0;
    for (const char *c = e + 2; c < end; c++)
        exp = 10 * exp + (*c - '0');
    if (e[1] == '-')
        exp = -exp;
    if (exp < -4 || exp > 15)
        return put(out, text, end - text);
    for (const char *c = text; c < e; c++)
        if (*c != '.')
            digits[count++] = *c;
    if (exp < 0) {   /* 0.000ddd */
        out = put(out, "0.000", 1 - exp);
        return put(out, digits, count);
    }
    const int64_t whole = exp + 1;   /* digits before the point */
    if (count <= whole) {   /* ddd000.0 */
        out = put(out, digits, count);
        memset(out, '0', (size_t)(whole - count));
        return put(out + whole - count, ".0", 2);
    }
    out = put(out, digits, whole);
    *out++ = '.';
    return put(out, digits + whole, count - whole);
}

/* value in decimal; at most 20 bytes */
static char *csv_int(char *out, int64_t value)
{
    uint64_t rest = value < 0 ? 0 - (uint64_t)value : (uint64_t)value;
    char digits[20];
    int count = 0;
    do
        digits[count++] = (char)('0' + rest % 10);
    while (rest /= 10);
    if (value < 0)
        *out++ = '-';
    while (count)
        *out++ = digits[--count];
    return out;
}

/* rows CSV rows into out, each its `lead` ints (rows, lead), then its
 * `cols` values (rows, cols) as repr spells them, comma-joined and ended
 * by \r\n, as csv.writer writes fields that need no quoting; out holds
 * rows (21 lead + 25 cols + 2) bytes, the longest fields' bound.  Returns
 * the bytes written. */
int64_t adle_csv_rows(int64_t rows, int64_t lead, const int64_t *ints, int64_t cols,
                      const double *values, char *out)
{
    char *const start = out;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t j = 0; j < lead; j++) {
            out = csv_int(out, *ints++);
            *out++ = ',';
        }
        for (int64_t j = 0; j < cols; j++) {
            out = csv_double(out, *values++);
            *out++ = ',';
        }
        out = put(out - (lead + cols > 0), "\r\n", 2);
    }
    return out - start;
}

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
#define IS_NAN(a) (-(M)((a) != (a)))

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
#define IS_NAN(a) ((a) != (a))

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

/* One agent's gain K = inv(G + gamma I) H' inv(Q + gamma I) from its
 * time-t state, left in work[0, m mx), and the upper triangle of
 * gi = H' inv(Q + gamma I) H unless gi is NULL.  Only G's upper triangle
 * is read.  q0 and h are shared by the lanes; work holds
 * 2 mx^2 + 2 m mx + m^2 vectors.  Returns the lanes with a zero pivot. */
static M NAME(gain)(int64_t m, int64_t mx, int64_t count, double gamma, const V *g,
                    const V *sums, const V *outer, const double *q0, const double *h,
                    V *gi, V *work)
{
    V *gain = work;                  /* K, m x mx */
    V *dq = gain + m * mx;           /* Q + gamma I, then its factors */
    V *dinv = dq + mx * mx;          /* inv(Q + gamma I) */
    V *bt = dinv + mx * mx;          /* H' inv(Q + gamma I), m x mx */
    V *ga = bt + m * mx;             /* G + gamma I, then its factors */
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
    for (int64_t i = 0; gi != NULL && i < m; i++) {
        for (int64_t j = i; j < m; j++) {
            V s = NAME(splat)(0.0);
            for (int64_t k = 0; k < mx; k++)
                s += bt[i * mx + k] * h[k * m + j];
            gi[i * m + j] = s;
        }
    }
    memcpy(gain, bt, (size_t)(m * mx) * sizeof(V));
    for (int64_t i = 0; i < m; i++) {
        ga[i * m + i] = g[i * m + i] + gamma;
        for (int64_t j = i + 1; j < m; j++)
            ga[i * m + j] = ga[j * m + i] = g[i * m + j];
    }
    return singular | NAME(solve)(m, mx, ga, gain);
}

/* gain(), then innov = K (y - H x); work holds mx more vectors. */
static M NAME(agent_terms)(int64_t m, int64_t mx, int64_t count, double gamma,
                           const V *x, const V *g, const V *sums, const V *outer,
                           const double *q0, const double *h, const V *y,
                           V *innov, V *gi, V *work)
{
    M singular = NAME(gain)(m, mx, count, gamma, g, sums, outer, q0, h, gi, work);
    const V *gain = work;
    V *res = work + 2 * mx * mx + 2 * m * mx + m * m;  /* y - H x */
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

/* Edge-indexed neighborhood sums of ``width`` values an agent, ``stride``
 * apart: where the edge (i, j) is on, add v_i - v_j to agent i and
 * subtract it from agent j. */
static void NAME(edge_sums)(int64_t stride, int64_t width, int64_t i, int64_t j, M on,
                            const V *v, V *out)
{
    const V *vi = v + i * stride, *vj = v + j * stride;
    V *oi = out + i * stride, *oj = out + j * stride;
    for (int64_t q = 0; q < width; q++) {
        V d = vi[q] - vj[q];
        oi[q] = NAME(pick)(on, oi[q] + d, oi[q]);
        oj[q] = NAME(pick)(on, oj[q] - d, oj[q]);
    }
}

/* Copy one trial's ``width`` doubles into lane ``l`` of ``lanes``, and back. */
static void NAME(gather)(int64_t width, int l, const double *trial, V *lanes)
{
    (void)l;                         /* unread at one lane */
    for (int64_t q = 0; q < width; q++)
        LANE(lanes[q], l) = trial[q];
}

static void NAME(scatter)(int64_t width, int l, const V *lanes, double *trial)
{
    (void)l;
    for (int64_t q = 0; q < width; q++)
        trial[q] = LANE(lanes[q], l);
}

/* The five bank state fields x, g, shift, sums and outer, the doubles
 * each holds per trial, and their lane-major copies in the scratch, after
 * its head of n mx vectors, the draw temporary; ``rest`` points past them. */
struct NAME(fields) {
    double *state[5];
    int64_t width[5];
    V *lanes[5], *rest;
};

static struct NAME(fields) NAME(layout)(const struct adle_bank *b)
{
    const int64_t n = b->n, m = b->m, mx = b->mx;
    struct NAME(fields) f = {{b->x, b->g, b->shift, b->sums, b->outer},
                             {n * m, n * m * m, n * mx, n * mx, n * mx * mx}, {0},
                             (V *)b->scratch + n * mx};
    for (int i = 0; i < 5; i++) {
        f.lanes[i] = f.rest;
        f.rest += f.width[i];
    }
    return f;
}

static inline V NAME(sqrt)(V v)
{
    for (int l = 0; l < LANES; l++)
        LANE(v, l) = __builtin_sqrt(LANE(v, l));
    return v;
}

/* The larger of a and b, NaN where either is, as np.maximum. */
static inline V NAME(max)(V a, V b)
{
    return NAME(pick)(GREATER(b, a) | IS_NAN(b), b, a);
}

/* Sum of the squares of d[0, k) in the pairwise order of numpy's
 * add.reduce: eight running sums within blocks of up to 128, halves above. */
static V NAME(sum_squares)(int64_t k, const V *d)
{
    if (k > 128) {
        const int64_t half = k / 2 - k / 2 % 8;
        return NAME(sum_squares)(half, d) + NAME(sum_squares)(k - half, d + half);
    }
    V s = NAME(splat)(0.0);
    int64_t i = 0;
    if (k >= 8) {
        V r[8] = {0};                /* squares are never -0.0: 0 + r is r */
        for (; i < k - k % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += d[i + j] * d[i + j];
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < k; i++)
        s += d[i] * d[i];
    return s;
}

/* Write the records (disagreement, n error norms, gain gap, Grammian gap)
 * of lane group ``first``, at step ``count``, to its live trials'
 * rows out + trial * (n + 3); where still unset, bad[0..2] take its first
 * trial with a non-finite estimate or Grammian, with a zero pivot in a
 * gain solve, and with a non-finite record.  v - v is NaN unless v is finite. */
static void NAME(records)(const struct adle_bank *b, const struct NAME(fields) *f,
                          int64_t first, int64_t count, M live, double *out, int64_t bad[3])
{
    const int64_t bank = b->bank, n = b->n, m = b->m, mx = b->mx, mm = m * m, stride = n + 3;
    const double gamma = weight(b, 2, count);
    V *work = f->rest, *d = work + m * mx;  /* differences, past the gain */
    const V *x = f->lanes[0], *g = f->lanes[1];
    M broken = {0}, singular = {0}, unfit = {0};
    for (int64_t q = 0; q < n * (m + mm); q++)  /* x, then g */
        broken |= IS_NAN(x[q] - x[q]);

    V disagreement = NAME(splat)(0.0), gain_gap = NAME(splat)(0.0);
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = i + 1; j < n; j++) {
            for (int64_t k = 0; k < m; k++)
                d[k] = x[j * m + k] - x[i * m + k];
            disagreement = NAME(max)(disagreement, NAME(sqrt)(NAME(sum_squares)(m, d)));
        }
        for (int64_t k = 0; k < m; k++)
            d[k] = x[i * m + k] - b->theta[k];
        const V error = NAME(sqrt)(NAME(sum_squares)(m, d));
        unfit |= IS_NAN(error - error);
        for (int l = 0; l < LANES && first + l < bank; l++)
            out[(first + l) * stride + 1 + i] = LANE(error, l);

        singular |= NAME(gain)(m, mx, count, gamma, g + i * mm, f->lanes[3] + i * mx,
                               f->lanes[4] + i * mx * mx, b->q0 + i * mx * mx,
                               b->h + i * mx * m, NULL, work);
        for (int64_t q = 0; q < m * mx; q++)
            d[q] = work[q] - b->kopt[i * m * mx + q];
        gain_gap = NAME(max)(gain_gap, NAME(sqrt)(NAME(sum_squares)(m * mx, d)));
    }
    for (int64_t q = 0; q < mm; q++) {
        V sum = g[q];
        for (int64_t i = 1; i < n; i++)
            sum += g[i * mm + q];
        d[q] = sum / (double)n - b->gtarget[q];
    }
    const V grammian_gap = NAME(sqrt)(NAME(sum_squares)(mm, d));

    unfit |= IS_NAN(disagreement - disagreement) | IS_NAN(gain_gap - gain_gap)
             | IS_NAN(grammian_gap - grammian_gap);
    for (int l = 0; l < LANES && first + l < bank; l++) {
        double *row = out + (first + l) * stride;
        row[0] = LANE(disagreement, l);
        row[n + 1] = LANE(gain_gap, l);
        row[n + 2] = LANE(grammian_gap, l);
    }
    const M failed[3] = {broken & live, singular & live, unfit & live};
    for (int k = 0; k < 3; k++)
        for (int l = 0; l < LANES && bad[k] < 0; l++)
            if (LANE(failed[k], l))
                bad[k] = first + l;
}

/* Advance the bank through steps start..stop-1, ``start`` observations
 * folded, drawing each step's noise and links; then, unless ``out`` is
 * NULL, write each lane group's records at step stop.  A zero pivot met
 * advancing wins (SINGULAR); else ``failure`` names the records' step and
 * their first failure by the precedence of bad[]. */
int NAME(adle_advance_bank)(struct adle_bank *b, int64_t start, int64_t stop, double *out)
{
    const int64_t bank = b->bank, n = b->n, m = b->m, mx = b->mx, links = b->links;
    const int64_t num_edges = b->num_edges, *edges = b->edges;
    const double *q0 = b->q0, *h = b->h, *truth = b->truth, *factor = b->factor;
    struct adle_stream *streams = b->streams, *link_streams = b->link_streams;
    int64_t *failure = b->failure;
    const int64_t mm = m * m;
    const struct NAME(fields) fields = NAME(layout)(b);
    /* a lane's draws end where the state copies start, so an overrun shows */
    double *draw = (double *)fields.lanes[0] - n * mx;
    V *xr = fields.lanes[0], *gr = fields.lanes[1], *shr = fields.lanes[2];
    V *sr = fields.lanes[3], *orr = fields.lanes[4];
    V *innov = fields.rest;          /* (n, m) */
    V *gi = innov + n * m;           /* (n, m, m) */
    V *cx = gi + n * mm;             /* (n, m) */
    V *cg = cx + n * m;              /* (n, m, m) */
    V *z = cg + n * mm;              /* (n, mx) noise */
    V *y = z + n * mx;               /* (n, mx) observations */
    V *work = y + n * mx;
    int status = OK;
    int64_t bad[3] = {-1, -1, -1};   /* the first trial of each records failure */

    for (int64_t first = 0; first < bank; first += LANES) {
        int64_t trial[LANES];
        M group;                     /* the trials in the bank; a dead lane reads the last */
        for (int l = 0; l < LANES; l++) {
            LANE(group, l) = first + l < bank ? -1 : 0;
            trial[l] = first + l < bank ? first + l : bank - 1;
        }
        for (int i = 0; i < 5; i++)
            for (int l = 0; l < LANES; l++)
                NAME(gather)(fields.width[i], l, fields.state[i] + trial[l] * fields.width[i],
                             fields.lanes[i]);
        M live = group;

        for (int64_t s = start; s < stop && NAME(any)(live); s++) {
            const double alpha = weight(b, 0, s), beta = weight(b, 1, s), gamma = weight(b, 2, s);
            if (links != NO_LINKS && s % b->block == 0)
                for (int l = 0; l < LANES && first + l < bank; l++)
                    start_block(b, first + l, s);
            for (int l = 0; l < LANES; l++) {
                if (first + l < bank)  /* a dead lane rereads the last trial's draws */
                    unit_draws(&streams[first + l], n * mx, b->laplace, draw);
                NAME(gather)(n * mx, l, draw, z);
            }
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
                singular |= NAME(agent_terms)(m, mx, s, gamma, xr + a * m, gr + a * mm,
                                              sr + a * mx, orr + a * mx * mx, q0 + a * mx * mx,
                                              h + a * mx * m, y + a * mx, innov + a * m,
                                              gi + a * mm, work);
            singular &= live;
            if (NAME(any)(singular)) {
                int l = 0;
                while (!LANE(singular, l))
                    l++;
                if (status == OK || s < failure[1]) {
                    failure[0] = first + l;
                    failure[1] = s;
                }
                status = SINGULAR;
                live &= ~singular;
            }

            memset(cx, 0, (size_t)(n * m) * sizeof(V));
            for (int64_t a = 0; a < n; a++)  /* G's upper triangle, row by row */
                for (int64_t r = 0; r < m; r++)
                    memset(cg + a * mm + r * (m + 1), 0, (size_t)(m - r) * sizeof(V));
            M on = NAME(splat_index)(-1), picked = on;  /* a dead lane picks no edge */
            for (int l = 0; links == PICK && l < LANES && first + l < bank; l++)
                LANE(picked, l) = pick_edge(&link_streams[first + l], num_edges);
            for (int64_t k = 0; k < num_edges; k++) {
                if (links == BELOW)
                    for (int l = 0; l < LANES; l++)
                        LANE(on, l) = first + l < bank && below(&link_streams[first + l], b->p)
                                      ? -1 : 0;
                else if (links == PICK)
                    on = SAME(picked, NAME(splat_index)(k));
                if (!NAME(any)(on))
                    continue;
                NAME(edge_sums)(m, m, edges[2 * k], edges[2 * k + 1], on, xr, cx);
                for (int64_t r = 0; r < m; r++)  /* G's upper triangle, row by row */
                    NAME(edge_sums)(mm, m - r, edges[2 * k], edges[2 * k + 1], on,
                                    gr + r * (m + 1), cg + r * (m + 1));
            }

            for (int64_t q = 0; q < n * m; q++)
                xr[q] = NAME(pick)(live, xr[q] - beta * cx[q] + alpha * innov[q], xr[q]);
            for (int64_t a = 0; a < n; a++)  /* G's upper triangle */
                for (int64_t r = 0; r < m; r++)
                    for (int64_t q = a * mm + r * (m + 1); q < a * mm + (r + 1) * m; q++)
                        gr[q] = NAME(pick)(live, gr[q] - beta * cg[q] + alpha * (gi[q] - gr[q]),
                                           gr[q]);

            for (int64_t a = 0; a < n; a++) {
                const V *ya = y + a * mx;
                V *sh = shr + a * mx, *su = sr + a * mx, *ou = orr + a * mx * mx;
                if (s == 0)
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

        for (int64_t a = 0; a < n; a++)  /* G's lower triangle, mirrored */
            for (int64_t r = 1; r < m; r++)
                for (int64_t c = 0; c < r; c++)
                    gr[a * mm + r * m + c] = gr[a * mm + c * m + r];
        if (out != NULL)
            NAME(records)(b, &fields, first, stop, group, out, bad);
        for (int i = 0; i < 5; i++)
            for (int l = 0; l < LANES && first + l < bank; l++)
                NAME(scatter)(fields.width[i], l, fields.lanes[i],
                              fields.state[i] + trial[l] * fields.width[i]);
    }
    const int k = bad[0] >= 0 ? 0 : bad[1] >= 0 ? 1 : 2;
    if (status != OK || bad[k] < 0)
        return status;
    failure[0] = bad[k];
    failure[1] = stop;
    return k == 1 ? SINGULAR : NOT_FINITE;
}

#undef V
#undef M
#undef LANE
#undef GREATER
#undef IS_ZERO
#undef SAME
#undef IS_NAN

#endif
