/* The basic procedure's loop, compiled: the driver of basic._drive and the
 * steps of the four schemes, with the bits of the NumPy code.
 *
 * Every operation is the one NumPy or Python performs, in the same order:
 * elementwise arithmetic in IEEE double without contraction (built with
 * -ffp-contract=off and without fast-math), argmin/argmax with NumPy's
 * first-index and first-NaN rules, np.maximum(x, 0.0) returning 0.0 for
 * a signed zero, NumPy's pairwise summation for the positive-part sum,
 * Python's min/max and theta**2 through libm pow.  Every matrix-vector
 * and dot product goes through the same OpenBLAS routines NumPy's matmul
 * calls, with the arguments it passes; bploop.py hands their addresses
 * to bp_bind.
 *
 * The stop check and the vertex choice share one scan per step.  It reads
 * P z and z once, into four independent lanes, and yields min(P z), the
 * index of that minimum, max(P z), max(z) and whether either vector holds
 * a NaN.  Without NaN the result is exact in any order: the min or max of
 * doubles is the same value whatever order they are compared in, except
 * for the sign of a zero, and nothing that reads these values tells -0.0
 * from 0.0 (the check compares with > 0.0, > bound and <= bound, and the
 * index is chosen with < and ==).  The index is NumPy's argmin, the first
 * index whose value equals the minimum: each lane keeps the first index of
 * its own minimum, and of equal lane minima the lowest index wins.  A NaN
 * in either vector, or n below the lane count, sends the check to the
 * scalar argmin/argmax, whose first-NaN rule the NumPy check follows.  The
 * perceptron, von Neumann and away steps take the index from the check
 * run just before them (after a drift re-check, from the re-check), and
 * do not scan for it again.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t blasint;
typedef void (*gemv_fn)(int order, int trans, blasint m, blasint n, double alpha,
                        const double *a, blasint lda, const double *x, blasint incx,
                        double beta, double *y, blasint incy);
typedef double (*dot_fn)(blasint n, const double *x, blasint incx, const double *y,
                         blasint incy);

enum { CBLAS_COL_MAJOR = 102, CBLAS_TRANS = 112 };

/* schemes, numbered as in basic */
enum { PERCEPTRON = 0, VON_NEUMANN = 1, VON_NEUMANN_AWAY = 2, SMOOTH = 3 };

/* statuses, and the failures of basic._FAILURES (negative codes) */
enum { RUNNING = 0, INTERIOR_FOUND = 1, RESCALE_READY = 2, ITER_LIMIT = 3 };
enum { LINE_SEARCH = -2, ZERO_DIRECTION = -3, EMPTY_SUPPORT = -4, NO_SIMPLEX_THRESHOLD = -5 };

static gemv_fn gemv;
static dot_fn dot_;

void bp_bind(void *gemv_address, void *dot_address)
{
    gemv = (gemv_fn)gemv_address;
    dot_ = (dot_fn)dot_address;
}

/* y = P @ x as np.matmul computes it for a C-ordered (n, n) P: gemv on
 * the column-major transpose, or, for n = 1, its dot loop. */
static void matvec(const double *P, const double *x, double *y, int64_t n)
{
    if (n == 1)
        y[0] = 0.0 + dot_(1, P, 1, x, 1);
    else
        gemv(CBLAS_COL_MAJOR, CBLAS_TRANS, n, n, 1.0, P, n, x, 1, 0.0, y, 1);
}

/* float(x @ y) for vectors of n entries with strides incx and incy:
 * NumPy's dot starts its sum at 0.0 */
static double dot(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy)
{
    return 0.0 + dot_(n, x, incx, y, incy);
}

static int64_t argmin(const double *a, int64_t n)
{
    int64_t best = 0;
    double m = a[0];
    if (isnan(m))
        return 0;
    for (int64_t i = 1; i < n; i++) {
        if (!(a[i] >= m)) {
            if (isnan(a[i]))
                return i;
            m = a[i];
            best = i;
        }
    }
    return best;
}

static int64_t argmax(const double *a, int64_t n)
{
    int64_t best = 0;
    double m = a[0];
    if (isnan(m))
        return 0;
    for (int64_t i = 1; i < n; i++) {
        if (!(a[i] <= m)) {
            if (isnan(a[i]))
                return i;
            m = a[i];
            best = i;
        }
    }
    return best;
}

/* np.maximum(x, 0.0): x when x > 0 or NaN, else the second operand */
static inline double pos(double x)
{
    return (x > 0.0 || isnan(x)) ? x : 0.0;
}

/* np.maximum(a, 0.0).sum(): NumPy's pairwise summation */
static double pos_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += pos(a[i]);
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = pos(a[j]);
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += pos(a[i + j]);
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += pos(a[i]);
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pos_sum(a, n2) + pos_sum(a + n2, n - n2);
}

/* The stop check's scan: min(P z) with its first index, max(P z) and
 * max(z), in one pass over LANES independent accumulators.  A lane is
 * indexed by constants only, so the compiler keeps it in registers. */
enum { LANES = 4 };

struct lane {
    double lo, hi, zhi;
    int64_t ilo;
    int nan;
};

static inline void lane_init(struct lane *a, double v, double w, int64_t i)
{
    a->lo = a->hi = v;
    a->zhi = w;
    a->ilo = i;
    a->nan = isnan(v) | isnan(w);
}

/* element i, with v of P z and w of z; a lane keeps the first index of
 * its minimum */
static inline void lane_take(struct lane *a, double v, double w, int64_t i)
{
    a->ilo = v < a->lo ? i : a->ilo;
    a->lo = v < a->lo ? v : a->lo;
    a->hi = v > a->hi ? v : a->hi;
    a->zhi = w > a->zhi ? w : a->zhi;
    a->nan |= isnan(v) | isnan(w);
}

/* lane b into lane a: of equal minima the lower index */
static inline void lane_join(struct lane *a, const struct lane *b)
{
    if (b->lo < a->lo || (b->lo == a->lo && b->ilo < a->ilo)) {
        a->lo = b->lo;
        a->ilo = b->ilo;
    }
    a->hi = b->hi > a->hi ? b->hi : a->hi;
    a->zhi = b->zhi > a->zhi ? b->zhi : a->zhi;
}

/* the joined lanes of P z and z into *out, n >= LANES; 0 when either
 * holds a NaN */
static int scan(const double *Pz, const double *z, int64_t n, struct lane *out)
{
    struct lane a[LANES];
    lane_init(&a[0], Pz[0], z[0], 0);
    lane_init(&a[1], Pz[1], z[1], 1);
    lane_init(&a[2], Pz[2], z[2], 2);
    lane_init(&a[3], Pz[3], z[3], 3);
    int64_t i = LANES;
    for (; i + LANES <= n; i += LANES) {
        lane_take(&a[0], Pz[i], z[i], i);
        lane_take(&a[1], Pz[i + 1], z[i + 1], i + 1);
        lane_take(&a[2], Pz[i + 2], z[i + 2], i + 2);
        lane_take(&a[3], Pz[i + 3], z[i + 3], i + 3);
    }
    for (; i < n; i++)
        lane_take(&a[0], Pz[i], z[i], i);
    if (a[0].nan | a[1].nan | a[2].nan | a[3].nan)
        return 0;
    lane_join(&a[0], &a[1]);
    lane_join(&a[2], &a[3]);
    lane_join(&a[0], &a[2]);
    *out = a[0];
    return 1;
}

/* basic.stop_check, which also leaves argmin(P z) in *imin when it
 * returns RUNNING, for the step that follows */
static int stop_check(const double *Pz, const double *z, int64_t n, double eps,
                      int64_t *imin)
{
    struct lane s;
    if (n < LANES || !scan(Pz, z, n, &s)) {
        s.ilo = argmin(Pz, n);
        s.lo = Pz[s.ilo];
        s.zhi = z[argmax(z, n)];
        s.hi = Pz[argmax(Pz, n)];
    }
    if (s.lo > 0.0)
        return INTERIOR_FOUND;
    double bound = eps * s.zhi;
    /* NumPy's sum adds its pairwise total to 0.0, which changes no
     * comparison */
    if (!(s.hi > bound) && pos_sum(Pz, n) <= bound)
        return RESCALE_READY;
    *imin = s.ilo;
    return RUNNING;
}

/* Python's max(0.0, x) and min(1.0, x): the first argument unless the
 * second compares strictly greater (smaller) */
static inline double py_max(double a, double b) { return b > a ? b : a; }
static inline double py_min(double a, double b) { return b < a ? b : a; }

/* basic._vertex_move with column i of P */
static void vertex_move(double *z, double *Pz, int64_t n, int64_t i, double theta,
                        const double *P)
{
    double c = 1.0 - theta;
    for (int64_t j = 0; j < n; j++) {
        z[j] *= c;
        Pz[j] = Pz[j] * c + P[j * n + i] * theta;
    }
    z[i] += theta;
}

/* norm2[i] is ||P e_i||^2 once computed (>= 0 or NaN), -1 before */
static int vn_step(const double *P, double *z, double *Pz, int64_t n, int64_t i, double *norm2)
{
    if (norm2[i] < 0.0)
        norm2[i] = dot(n, P + i, n, P + i, n);
    double pu2 = norm2[i];
    double pz2 = dot(n, Pz, 1, Pz, 1);
    double upz = Pz[i];
    double denom = pz2 + pu2 - 2.0 * upz;
    if (denom <= 0.0)
        return LINE_SEARCH;
    double theta = (pz2 - upz) / denom;
    vertex_move(z, Pz, n, i, py_min(1.0, py_max(0.0, theta)), P);
    return 0;
}

/* basic.away_vertex in one pass: argmax of Pz with -inf off the support
 * of z, or -1 when the support is empty.  A NaN of Pz lies on the support,
 * so the scan may stop at the first one. */
static int64_t away_vertex(const double *z, const double *Pz, int64_t n)
{
    int64_t iv = 0;
    int support = z[0] > 0.0;
    double best = support ? Pz[0] : -INFINITY;
    if (isnan(best))
        return 0;
    for (int64_t j = 1; j < n; j++) {
        int on = z[j] > 0.0;
        double v = on ? Pz[j] : -INFINITY;
        support |= on;
        if (!(v <= best)) {
            iv = j;
            if (isnan(v))
                return iv;
            best = v;
        }
    }
    return support ? iv : -1;
}

/* iu is argmin(P z), from the stop check; Pa is a scratch vector; *force
 * is set when the step asks for a refresh */
static int vna_step(const double *P, double *z, double *Pz, int64_t n, int64_t iu, double *Pa,
                    int *force)
{
    double pz2 = dot(n, Pz, 1, Pz, 1);
    int64_t iv = away_vertex(z, Pz, n);
    if (iv < 0)
        return EMPTY_SUPPORT;
    double vz = z[iv];
    int away = !(pz2 - Pz[iu] > Pz[iv] - pz2);
    if (away && vz >= 1.0)
        away = 0;
    double theta_max;
    if (away) {
        for (int64_t j = 0; j < n; j++)
            Pa[j] = Pz[j] - P[j * n + iv];
        theta_max = vz / (1.0 - vz);
    } else {
        for (int64_t j = 0; j < n; j++)
            Pa[j] = P[j * n + iu] - Pz[j];
        theta_max = 1.0;
    }
    double pa2 = dot(n, Pa, 1, Pa, 1);
    if (pa2 <= 0.0)
        return ZERO_DIRECTION;
    double theta = py_min(theta_max, -dot(n, z, 1, Pa, 1) / pa2);
    if (away) {
        vertex_move(z, Pz, n, iv, -theta, P);
        for (int64_t j = 0; j < n; j++)
            z[j] = pos(z[j]);
    } else {
        vertex_move(z, Pz, n, iu, theta, P);
    }
    *force = away && theta > 0.5;
    return 0;
}

/* sorts a[0:n] (no NaN) into decreasing order; tmp holds n doubles */
static void sort_decreasing(double *a, double *tmp, int64_t n)
{
    enum { RUN = 16 };
    for (int64_t lo = 0; lo < n; lo += RUN) {
        int64_t hi = lo + RUN < n ? lo + RUN : n;
        for (int64_t i = lo + 1; i < hi; i++) {
            double v = a[i];
            int64_t j = i;
            for (; j > lo && a[j - 1] < v; j--)
                a[j] = a[j - 1];
            a[j] = v;
        }
    }
    double *src = a, *dst = tmp;
    for (int64_t width = RUN; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                dst[k++] = src[i] >= src[j] ? src[i++] : src[j++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        double *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a)
        memcpy(a, src, (size_t)n * sizeof(double));
}

/* basic.project_simplex of y, which holds no NaN, into out; u holds a copy
 * of y and tmp n doubles.  The order in which equal values (and so signed
 * zeros) sort changes no bit of the result.  A NaN anywhere in y leaves no
 * threshold index in the NumPy code, where NaN sorts first; the caller
 * returns that failure before the sort. */
static int project_simplex(const double *y, double *out, int64_t n, double *u, double *tmp)
{
    sort_decreasing(u, tmp, n);
    /* k is one past the last index where u exceeds its threshold */
    int64_t k = 0;
    double css = 0.0, css_k = 0.0;
    for (int64_t j = 0; j < n; j++) {
        css = j == 0 ? u[0] : css + u[j];
        if (u[j] > (css - 1.0) / (double)(j + 1)) {
            k = j + 1;
            css_k = css;
        }
    }
    if (k == 0)
        return NO_SIMPLEX_THRESHOLD;
    double tau = (css_k - 1.0) / (double)k;
    for (int64_t j = 0; j < n; j++)
        out[j] = pos(y[j] - tau);
    return 0;
}

/* the state of a smooth run after basic.run_smooth's set-up */
struct smooth {
    double *Pu, *w, *Pw;
    const double *ub;
    double *y, *u, *tmp;
    double mu;
};

/* the exponent of theta**2, unknown to the compiler so that pow(x, 2.0)
 * is not rewritten as x * x, which may round differently */
static volatile double two = 2.0;

static int smooth_step(const double *P, double *z, double *Pz, int64_t n, int64_t t,
                       struct smooth *s)
{
    double theta = 2.0 / (double)(t + 3);
    double c = 1.0 - theta;
    double theta2 = pow(theta, two);
    double mu = s->mu = c * s->mu;
    double *Pu = s->Pu, *w = s->w, *Pw = s->Pw, *y = s->y, *u = s->u;
    const double *ub = s->ub;
    /* P u, then the prox argument y = u_bar - P u / mu and its copy to sort */
    int nan = 0;
    for (int64_t j = 0; j < n; j++) {
        Pu[j] = (Pu[j] + Pz[j] * theta) * c + Pw[j] * theta2;
        u[j] = y[j] = ub[j] - Pu[j] / mu;
        nan |= isnan(y[j]);
    }
    if (nan)
        return NO_SIMPLEX_THRESHOLD;
    int err = project_simplex(y, w, n, u, s->tmp);
    if (err)
        return err;
    matvec(P, w, Pw, n);
    for (int64_t j = 0; j < n; j++) {
        z[j] = z[j] * c + w[j] * theta;
        Pz[j] = Pz[j] * c + Pw[j] * theta;
    }
    return 0;
}

/* basic._drive for one scheme.  P is C-ordered (n, n); z and Pz are
 * updated in place, and Pz is recomputed every `refresh` steps (never when
 * refresh is 0).  a..g are the scheme's vectors:
 *   vn      a: ||P e_i||^2 cache (n doubles, -1 until computed)
 *   vna     a: scratch (n doubles)
 *   smooth  a: P u, b: w, c: P w, d: u_bar, e, f, g: scratch (n doubles
 *           each); mu is the smoothing parameter
 * Returns a status or a failure code; *iters receives the number of steps
 * completed, before the failure for a failure code. */
int64_t bp_run(int64_t scheme, int64_t n, const double *P, double *z, double *Pz,
               double eps, int64_t max_iters, int64_t refresh, int64_t *iters,
               void *a, void *b, void *c, void *d, void *e, void *f, void *g, double mu)
{
    struct smooth s = {a, b, c, d, e, f, g, mu};
    int64_t t = 0, since_refresh = 0;
    int status;
    /* argmin(P z), from the check before each step */
    int64_t i = 0;
    for (;;) {
        if (stop_check(Pz, z, n, eps, &i)) {
            matvec(P, z, Pz, n);
            since_refresh = 0;
            status = stop_check(Pz, z, n, eps, &i);
            if (status)
                break;
        }
        if (max_iters && t >= max_iters) {
            matvec(P, z, Pz, n);
            status = stop_check(Pz, z, n, eps, &i);
            if (!status)
                status = ITER_LIMIT;
            break;
        }
        int force = 0, err = 0;
        switch (scheme) {
        case PERCEPTRON:
            /* P z at i is not positive: the check just before said so */
            vertex_move(z, Pz, n, i, 1.0 / (double)(t + 1), P);
            break;
        case VON_NEUMANN:
            err = vn_step(P, z, Pz, n, i, a);
            break;
        case VON_NEUMANN_AWAY:
            err = vna_step(P, z, Pz, n, i, a, &force);
            break;
        default:
            err = smooth_step(P, z, Pz, n, t, &s);
        }
        if (err) {
            status = err;
            break;
        }
        t++;
        since_refresh++;
        if (force || since_refresh == refresh) {
            matvec(P, z, Pz, n);
            since_refresh = 0;
        }
    }
    *iters = t;
    return status;
}
