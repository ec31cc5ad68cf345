/* Fused bank-step kernel: the consensus+innovation round of
 * ``estimator._advance`` plus the moment update, for a whole bank of
 * trials over one segment of a draw block.
 *
 * Every array is C-contiguous float64 (int64 for edges, one byte per
 * flag for active) with the shapes the Python loader checks; this file
 * trusts them.
 *
 *   x         (bank, n, m)         estimates, updated in place
 *   g         (bank, n, m, m)      Grammians, updated in place
 *   shift     (bank, n, mx)        per-agent moment shift (first observation)
 *   sums      (bank, n, mx)        sum of (y - shift)
 *   outer     (bank, n, mx, mx)    sum of (y - shift)(y - shift)'
 *   q0        (n, mx, mx)          sample covariance before any observation
 *   h         (n, mx, m)           padded sensing matrices
 *   obs       (bank, steps, n, mx) observations of the draw block
 *   w         (3, steps)           alpha, beta, gamma of each block step
 *   edges     (num_edges, 2)       base-graph edges
 *   active    (bank, steps, num_edges)  active-edge masks; NULL: all active
 *   failure   (2,)                 trial and step of a singular gain solve
 *
 * Trials are the outer loop and steps the inner one, so one trial's
 * state stays in cache while it advances through the segment.  A trial
 * whose gain solve meets a zero pivot stops there; the others go on, so
 * that ``failure`` ends up naming the earliest such step (and the first
 * trial at it), as a round-by-round bank would meet it.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OK = 0, SINGULAR = 1, NO_MEMORY = 2 };

/* Solve a z = b for k right-hand sides by LU with partial pivoting, as
 * LAPACK's dgesv does (multipliers scaled by the pivot's reciprocal,
 * back substitution dividing by it).  a (n x n) is overwritten by its
 * factors and b (n x k) by the solution.  Returns SINGULAR on an exactly
 * zero pivot. */
static int solve(int64_t n, int64_t k, double *a, double *b)
{
    for (int64_t c = 0; c < n; c++) {
        int64_t piv = c;
        double best = fabs(a[c * n + c]);
        for (int64_t r = c + 1; r < n; r++) {
            double v = fabs(a[r * n + c]);
            if (v > best) {
                best = v;
                piv = r;
            }
        }
        if (best == 0.0)
            return SINGULAR;
        if (piv != c) {
            for (int64_t j = c; j < n; j++) {
                double tmp = a[c * n + j];
                a[c * n + j] = a[piv * n + j];
                a[piv * n + j] = tmp;
            }
            for (int64_t j = 0; j < k; j++) {
                double tmp = b[c * k + j];
                b[c * k + j] = b[piv * k + j];
                b[piv * k + j] = tmp;
            }
        }
        const double inv = 1.0 / a[c * n + c];
        for (int64_t r = c + 1; r < n; r++) {
            double f = a[r * n + c] * inv;
            for (int64_t j = c + 1; j < n; j++)
                a[r * n + j] -= f * a[c * n + j];
            for (int64_t j = 0; j < k; j++)
                b[r * k + j] -= f * b[c * k + j];
        }
    }
    for (int64_t r = n - 1; r >= 0; r--) {
        for (int64_t j = 0; j < k; j++) {
            double s = b[r * k + j];
            for (int64_t c = r + 1; c < n; c++)
                s -= a[r * n + c] * b[c * k + j];
            b[r * k + j] = s / a[r * n + r];
        }
    }
    return OK;
}

/* Gain, innovation and Grammian innovation of one agent from its
 * time-t state: innov = K (y - H x) and gi = H' inv(Q + gamma I) H with
 * K = inv(G + gamma I) H' inv(Q + gamma I).  work holds
 * 2 mx^2 + 2 m mx + m^2 + mx doubles. */
static int agent_terms(int64_t m, int64_t mx, int64_t count, double gamma,
                       const double *x, const double *g, const double *sums,
                       const double *outer, const double *q0, const double *h,
                       const double *y, double *innov, double *gi, double *work)
{
    double *dq = work;               /* Q + gamma I, then its factors */
    double *dinv = dq + mx * mx;     /* inv(Q + gamma I) */
    double *bt = dinv + mx * mx;     /* H' inv(Q + gamma I), m x mx */
    double *gain = bt + m * mx;      /* K, m x mx */
    double *ga = gain + m * mx;      /* G + gamma I, then its factors */
    double *res = ga + m * m;        /* y - H x */

    if (count == 0) {
        memcpy(dq, q0, (size_t)(mx * mx) * sizeof(double));
    } else {
        for (int64_t i = 0; i < mx; i++) {
            double mean_i = sums[i] / count;
            for (int64_t j = 0; j < mx; j++)
                dq[i * mx + j] = outer[i * mx + j] / count - mean_i * (sums[j] / count);
        }
    }
    if (mx == 1) {
        dinv[0] = 1.0 / (dq[0] + gamma);
    } else {
        for (int64_t i = 0; i < mx; i++) {
            dq[i * mx + i] += gamma;
            for (int64_t j = 0; j < mx; j++)
                dinv[i * mx + j] = i == j ? 1.0 : 0.0;
        }
        if (solve(mx, mx, dq, dinv) != OK)
            return SINGULAR;
    }
    for (int64_t i = 0; i < m; i++) {
        for (int64_t j = 0; j < mx; j++) {
            double s = 0.0;
            for (int64_t k = 0; k < mx; k++)
                s += h[k * m + i] * dinv[k * mx + j];
            bt[i * mx + j] = s;
        }
    }
    for (int64_t i = 0; i < m; i++) {
        for (int64_t j = 0; j < m; j++) {
            double s = 0.0;
            for (int64_t k = 0; k < mx; k++)
                s += bt[i * mx + k] * h[k * m + j];
            gi[i * m + j] = s;
        }
    }
    memcpy(gain, bt, (size_t)(m * mx) * sizeof(double));
    memcpy(ga, g, (size_t)(m * m) * sizeof(double));
    for (int64_t i = 0; i < m; i++)
        ga[i * m + i] += gamma;
    if (solve(m, mx, ga, gain) != OK)
        return SINGULAR;
    for (int64_t k = 0; k < mx; k++) {
        double hx = 0.0;
        for (int64_t j = 0; j < m; j++)
            hx += h[k * m + j] * x[j];
        res[k] = y[k] - hx;
    }
    for (int64_t i = 0; i < m; i++) {
        double s = 0.0;
        for (int64_t k = 0; k < mx; k++)
            s += gain[i * mx + k] * res[k];
        innov[i] = s;
    }
    return OK;
}

/* Edge-indexed neighborhood sums: for an active edge (i, j), add
 * v_i - v_j to agent i and subtract it from agent j. */
static void edge_sums(int64_t width, int64_t i, int64_t j, const double *v, double *out)
{
    const double *vi = v + i * width, *vj = v + j * width;
    double *oi = out + i * width, *oj = out + j * width;
    for (int64_t q = 0; q < width; q++) {
        double d = vi[q] - vj[q];
        oi[q] += d;
        oj[q] -= d;
    }
}

int adle_advance_bank(int64_t bank, int64_t n, int64_t m, int64_t mx, int64_t steps,
                      int64_t start, int64_t stop, int64_t count,
                      double *x, double *g, double *shift, double *sums, double *outer,
                      const double *q0, const double *h, const double *obs, const double *w,
                      int64_t num_edges, const int64_t *edges, const uint8_t *active,
                      int64_t *failure)
{
    const int64_t mm = m * m;
    size_t doubles = (size_t)(2 * n * m + 2 * n * mm + 2 * mx * mx + 2 * m * mx + mm + mx);
    double *buf = malloc(doubles * sizeof(double));
    if (buf == NULL)
        return NO_MEMORY;
    double *innov = buf;             /* (n, m) */
    double *gi = innov + n * m;      /* (n, m, m) */
    double *cx = gi + n * mm;        /* (n, m) */
    double *cg = cx + n * m;         /* (n, m, m) */
    double *work = cg + n * mm;
    int status = OK;

    for (int64_t r = 0; r < bank; r++) {
        double *xr = x + r * n * m, *gr = g + r * n * mm;
        double *shr = shift + r * n * mx, *sr = sums + r * n * mx;
        double *orr = outer + r * n * mx * mx;
        for (int64_t s = start; s < stop; s++) {
            const double alpha = w[s], beta = w[steps + s], gamma = w[2 * steps + s];
            const int64_t c = count + (s - start);
            const double *y = obs + (r * steps + s) * n * mx;

            int singular = 0;
            for (int64_t a = 0; a < n && !singular; a++)
                singular = agent_terms(m, mx, c, gamma, xr + a * m, gr + a * mm, sr + a * mx,
                                       orr + a * mx * mx, q0 + a * mx * mx, h + a * mx * m,
                                       y + a * mx, innov + a * m, gi + a * mm, work) != OK;
            if (singular) {
                if (status == OK || c < failure[1]) {
                    failure[0] = r;
                    failure[1] = c;
                }
                status = SINGULAR;
                break;
            }

            memset(cx, 0, (size_t)(n * m) * sizeof(double));
            memset(cg, 0, (size_t)(n * mm) * sizeof(double));
            const uint8_t *on = active != NULL ? active + (r * steps + s) * num_edges : NULL;
            for (int64_t k = 0; k < num_edges; k++) {
                if (on != NULL && !on[k])
                    continue;
                edge_sums(m, edges[2 * k], edges[2 * k + 1], xr, cx);
                edge_sums(mm, edges[2 * k], edges[2 * k + 1], gr, cg);
            }

            for (int64_t q = 0; q < n * m; q++)
                xr[q] = xr[q] - beta * cx[q] + alpha * innov[q];
            for (int64_t q = 0; q < n * mm; q++)
                gr[q] = gr[q] - beta * cg[q] + alpha * (gi[q] - gr[q]);

            for (int64_t a = 0; a < n; a++) {
                const double *ya = y + a * mx;
                double *sh = shr + a * mx, *su = sr + a * mx, *ou = orr + a * mx * mx;
                if (c == 0)
                    memcpy(sh, ya, (size_t)mx * sizeof(double));
                for (int64_t i = 0; i < mx; i++) {
                    double di = ya[i] - sh[i];
                    su[i] += di;
                    for (int64_t j = 0; j < mx; j++)
                        ou[i * mx + j] += di * (ya[j] - sh[j]);
                }
            }
        }
    }
    free(buf);
    return status;
}
