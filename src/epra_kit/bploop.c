/* The basic procedure's loop, compiled: the driver of basic._drive and the
 * steps of the four schemes, with the bits of the NumPy code; the
 * scaling, normalization and QR factorization of every projector build,
 * in one call; and the round bookkeeping of epra.identify_partition and
 * epra.rescale_update.  Built by bploop.py as the CPython extension module
 * epra_kit._bploop, whose functions (at the end of this file) take only
 * their inputs and return what they make.  An array a function only reads
 * is converted through NumPy's C API, as np.asarray(x, dtype=float) would
 * convert it, into an aligned float64 array in native byte order with the
 * layout the function reads; one that already has it is only referenced.
 * Every buffer a function writes is a NumPy array it allocates through
 * the C API before it releases the interpreter lock, so tracemalloc sees
 * all of it.  A function raises ValueError only for what no caller can
 * mean: a wrong ndim or length, a scheme number outside 0 to 3, a z it
 * cannot write in place, or LAPACK's rejection of an argument.  The loop
 * and the factorization run without the interpreter lock.
 *
 * Every operation is the one NumPy or Python performs, in the same order:
 * elementwise arithmetic in IEEE double without contraction (built with
 * -ffp-contract=off and without fast-math), argmin/argmax with NumPy's
 * first-index and first-NaN rules, np.maximum(x, 0.0) returning 0.0 for
 * a signed zero, NumPy's pairwise summation for the positive-part sum
 * and the column norms,
 * Python's min/max and theta**2 through libm pow.  Every matrix-vector
 * and dot product goes through the same OpenBLAS routines NumPy's matmul
 * calls, with the arguments it passes; bploop.py hands their addresses
 * to bind(), with those of the LAPACK routines np.linalg.qr calls.
 *
 * The stop check and the vertex choice share one scan per step.  It reads
 * P z and z once, with SSE2 min and max on two 2-wide accumulators each,
 * and yields min(P z), max(P z), max(z) and whether either vector holds a
 * NaN.  Without NaN the result is exact in any order: the min or max of
 * doubles is the same value whatever order they are compared in, except
 * for the sign of a zero, and nothing that reads these values tells -0.0
 * from 0.0 (the check compares with > 0.0, > bound and <= bound).  The
 * index of the minimum is then NumPy's argmin, the first entry that
 * compares equal to it (-0.0 == 0.0), found in a second, equality pass.
 * A NaN in either vector, n < 4 or a target without SSE2 sends the check
 * to the scalar argmin/argmax, whose first-NaN rule the NumPy check
 * follows.  The perceptron, von Neumann and away steps take the index
 * from the check run just before them (after a drift re-check, from the
 * re-check), and do not scan for it again.
 *
 * A vertex step reads column i of P from row i, contiguously, when the
 * two hold the same bits, as in the projectors that
 * subspace.rescaled_projectors builds; the run compares them the first
 * time it takes column i and keeps the answer.  Any other P keeps the
 * strided column, with the same bits either way.  The vertex move and the
 * away step's direction are each one loop over the column's stride, which
 * -O3 versions for a stride of 1: a row read runs the contiguous,
 * vectorized copy the compiler makes.
 *
 * The smooth perceptron's prox sorts its argument by one insertion pass,
 * gathered in the order of the last one.  The sorted values, and so every
 * bit of the result, do not depend on the order it starts from.
 *
 * A run's set-up is done here too, with the same matvec and simplex
 * projection as its steps: the starting P z, and for the smooth perceptron
 * P u_bar, the first prox point w and P w.  So a run is one call from
 * Python, given P and z; it allocates P z and one block that holds the
 * scheme's state and scratch.
 *
 * bp_basis makes a projector build's basis in one call: it reads A and
 * the side's diagonal, writes the scaled transpose straight into Q's
 * storage, divides each column by its norm (NumPy's pairwise sum of the
 * squares, as np.linalg.norm takes it) and factors the result there with
 * the LAPACK calls of np.linalg.qr: dgeqrf and dorgqr, with the
 * workspace their queries ask for, so the block size and every bit of Q
 * are numpy's.  It reads the range of |diag R| for the rank test between
 * the two.  Q and the scratch, tau and exactly that workspace, are
 * allocated after the queries.
 *
 * The round bookkeeping makes one pass (two for identify_partition's
 * index arrays) over vectors of n doubles, with NumPy's comparisons,
 * its first-NaN argmax and its pairwise sum, and Python's min and max
 * where the NumPy code takes them.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

typedef int64_t blasint;
typedef void (*gemv_fn)(int order, int trans, blasint m, blasint n, double alpha,
                        const double *a, blasint lda, const double *x, blasint incx,
                        double beta, double *y, blasint incy);
typedef double (*dot_fn)(blasint n, const double *x, blasint incx, const double *y,
                         blasint incy);
typedef void (*geqrf_fn)(const blasint *m, const blasint *n, double *a, const blasint *lda,
                         double *tau, double *work, const blasint *lwork, blasint *info);
typedef void (*orgqr_fn)(const blasint *m, const blasint *n, const blasint *k, double *a,
                         const blasint *lda, const double *tau, double *work,
                         const blasint *lwork, blasint *info);

enum { CBLAS_COL_MAJOR = 102, CBLAS_TRANS = 112 };

/* schemes, numbered as in basic */
enum { PERCEPTRON = 0, VON_NEUMANN = 1, VON_NEUMANN_AWAY = 2, SMOOTH = 3 };

/* statuses, and the failures of basic._FAILURES (negative codes) */
enum { RUNNING = 0, INTERIOR_FOUND = 1, RESCALE_READY = 2, ITER_LIMIT = 3 };
enum { LINE_SEARCH = -2, ZERO_DIRECTION = -3, EMPTY_SUPPORT = -4, NO_SIMPLEX_THRESHOLD = -5 };

static gemv_fn gemv;
static dot_fn dot_;
static geqrf_fn geqrf;
static orgqr_fn orgqr;

/* the workspace np.linalg.qr gives a routine: max(columns, its query) */
static blasint workspace(double query, blasint cols)
{
    blasint lwork = (blasint)query;
    return lwork > cols ? lwork : cols;
}

/* np.maximum(x, 0.0): x when x > 0 or NaN, else the second operand */
static inline double pos(double x)
{
    return (x > 0.0 || isnan(x)) ? x : 0.0;
}

static inline double square(double x)
{
    return x * x;
}

/* `name`(a, n) is the sum of term(a[i]) over n contiguous entries in
 * NumPy's pairwise order, from -0.0: np.maximum(a, 0.0).sum() for pos and
 * (a * a).sum() for square.  One function per term: with one shared
 * function that took the term as a run-time flag, a 1000-step perceptron
 * run, whose stop check sums the positive part of P z on every step, took
 * 2.5 times as long. */
#define PAIRWISE_SUM(name, term)                                                       \
    static double name(const double *a, int64_t n)                                    \
    {                                                                                  \
        if (n < 8) {                                                                   \
            double res = -0.0;                                                         \
            for (int64_t i = 0; i < n; i++)                                            \
                res += term(a[i]);                                                     \
            return res;                                                                \
        }                                                                              \
        if (n <= 128) {                                                                \
            double r[8], res;                                                          \
            int64_t i;                                                                 \
            for (int j = 0; j < 8; j++)                                                \
                r[j] = term(a[j]);                                                     \
            for (i = 8; i < n - (n % 8); i += 8)                                       \
                for (int j = 0; j < 8; j++)                                            \
                    r[j] += term(a[i + j]);                                            \
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));   \
            for (; i < n; i++)                                                         \
                res += term(a[i]);                                                     \
            return res;                                                                \
        }                                                                              \
        int64_t n2 = n / 2;                                                            \
        n2 -= n2 % 8;                                                                  \
        return name(a, n2) + name(a + n2, n - n2);                                     \
    }

PAIRWISE_SUM(pos_sum, pos)
PAIRWISE_SUM(sum_squares, square)

/* bp_basis's scalings of the rows of its matrix, and its failure codes */
enum { UNSCALED = 0, DIVIDE = 1, MULTIPLY = 2 };
enum { ZERO_COLUMN = -1, DGEQRF_REJECTED = -2, DORGQR_REJECTED = -3 };

/* The workspace np.linalg.qr gives dgeqrf and dorgqr for a column-major
 * (rows, cols) matrix in q: lwork[k], max(cols, routine k's query).
 * Returns 0, or DGEQRF_REJECTED or DORGQR_REJECTED when that routine
 * rejects an argument, with minus its number in *info. */
static int64_t bp_workspace(int64_t rows, int64_t cols, double *q, blasint lwork[2],
                            blasint *info)
{
    double query[2], tau;
    blasint ask = -1;
    geqrf(&rows, &cols, q, &rows, &tau, &query[0], &ask, info);
    if (*info < 0)
        return DGEQRF_REJECTED;
    orgqr(&rows, &cols, &cols, q, &rows, &tau, &query[1], &ask, info);
    if (*info < 0)
        return DORGQR_REJECTED;
    lwork[0] = workspace(query[0], cols);
    lwork[1] = workspace(query[1], cols);
    return 0;
}

/* The orthonormal basis of subspace._orthonormal_range_basis for the
 * column-major (rows, cols) matrix a, rows >= cols >= 1, with its rows
 * divided by d, multiplied by d or left as they are (mode), written into
 * q, a column-major (rows, cols) array; a is not written.  Each column of
 * q is the scaled column of a, NumPy's elementwise operation, then
 * divided by its norm, sqrt of the pairwise sum of its squares as
 * np.linalg.norm(M, axis=0) takes it on a Fortran-ordered M.  The reduced
 * QR factorization of the result is then computed in q with the LAPACK
 * calls of np.linalg.qr, dgeqrf and dorgqr, with the workspace
 * bp_workspace found, so the block size and every bit of Q are numpy's.
 *
 * tau holds cols doubles and then the larger workspace.  Returns 0 with
 * min |R_jj| and max |R_jj| in range, NaN when any is NaN, as NumPy's min
 * and max give it; ZERO_COLUMN when a scaled column has norm 0; or
 * DGEQRF_REJECTED or DORGQR_REJECTED when that routine rejects an
 * argument, with minus its number in *info. */
static int64_t bp_basis(int64_t rows, int64_t cols, const double *a, const double *d,
                        int64_t mode, double *q, double *tau, blasint lwork[2], double range[2],
                        blasint *info)
{
    double *work = tau + cols;
    for (int64_t j = 0; j < cols; j++) {
        const double *aj = a + j * rows;
        double *restrict qj = q + j * rows;
        for (int64_t i = 0; i < rows; i++)
            qj[i] = mode == DIVIDE ? aj[i] / d[i] : mode == MULTIPLY ? aj[i] * d[i] : aj[i];
        double norm = sqrt(sum_squares(qj, rows));
        if (norm == 0.0)
            return ZERO_COLUMN;
        for (int64_t i = 0; i < rows; i++)
            qj[i] /= norm;
    }
    geqrf(&rows, &cols, q, &rows, tau, work, &lwork[0], info);
    if (*info < 0)
        return DGEQRF_REJECTED;
    double lo = fabs(q[0]), hi = lo;
    for (int64_t j = 1; j < cols; j++) {
        double r = fabs(q[j * rows + j]);
        lo = r < lo || isnan(r) ? r : lo;
        hi = r > hi || isnan(r) ? r : hi;
    }
    orgqr(&rows, &cols, &cols, q, &rows, tau, work, &lwork[1], info);
    if (*info < 0)
        return DORGQR_REJECTED;
    range[0] = lo;
    range[1] = hi;
    return 0;
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

/* The stop check's scan: min(P z), max(P z) and max(z) in one pass, on
 * two 2-wide accumulators for each, with 0 to 3 entries left to a scalar
 * tail; 0 when either vector holds a NaN, n < 4 or the target has no
 * SSE2.  minpd and maxpd return their second operand on a NaN, so a NaN
 * is flagged apart, by one unordered compare of P z with z. */
static int scan(const double *Pz, const double *z, int64_t n, double *lo, double *hi,
                double *zhi)
{
#ifdef __SSE2__
    if (n < 4)
        return 0;
    __m128d lo0 = _mm_loadu_pd(Pz), lo1 = _mm_loadu_pd(Pz + 2);
    __m128d zhi0 = _mm_loadu_pd(z), zhi1 = _mm_loadu_pd(z + 2);
    __m128d hi0 = lo0, hi1 = lo1;
    __m128d nan = _mm_or_pd(_mm_cmpunord_pd(lo0, zhi0), _mm_cmpunord_pd(lo1, zhi1));
    int64_t i = 4;
    for (; i + 4 <= n; i += 4) {
        __m128d v0 = _mm_loadu_pd(Pz + i), v1 = _mm_loadu_pd(Pz + i + 2);
        __m128d w0 = _mm_loadu_pd(z + i), w1 = _mm_loadu_pd(z + i + 2);
        lo0 = _mm_min_pd(lo0, v0);
        lo1 = _mm_min_pd(lo1, v1);
        hi0 = _mm_max_pd(hi0, v0);
        hi1 = _mm_max_pd(hi1, v1);
        zhi0 = _mm_max_pd(zhi0, w0);
        zhi1 = _mm_max_pd(zhi1, w1);
        nan = _mm_or_pd(nan, _mm_or_pd(_mm_cmpunord_pd(v0, w0), _mm_cmpunord_pd(v1, w1)));
    }
    double a[2], b[2], c[2];
    _mm_storeu_pd(a, _mm_min_pd(lo0, lo1));
    _mm_storeu_pd(b, _mm_max_pd(hi0, hi1));
    _mm_storeu_pd(c, _mm_max_pd(zhi0, zhi1));
    double l = a[1] < a[0] ? a[1] : a[0], h = b[1] > b[0] ? b[1] : b[0];
    double zh = c[1] > c[0] ? c[1] : c[0];
    int bad = _mm_movemask_pd(nan);
    for (; i < n; i++) {
        bad |= isnan(Pz[i]) | isnan(z[i]);
        l = Pz[i] < l ? Pz[i] : l;
        h = Pz[i] > h ? Pz[i] : h;
        zh = z[i] > zh ? z[i] : zh;
    }
    if (bad)
        return 0;
    *lo = l;
    *hi = h;
    *zhi = zh;
    return 1;
#else
    (void)Pz, (void)z, (void)n, (void)lo, (void)hi, (void)zhi;
    return 0;
#endif
}

/* the first index of P z whose entry equals lo, which one entry does, so
 * the last is not tested; -0.0 == 0.0, so this is NumPy's argmin after a
 * scan without NaN.  With SSE2 four entries are compared at a time, and 0
 * to 3 left to the scalar loop. */
static int64_t first_equal(const double *Pz, int64_t n, double lo)
{
    int64_t i = 0;
#ifdef __SSE2__
    __m128d m = _mm_set1_pd(lo);
    for (; i + 4 <= n; i += 4) {
        int hit = _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(Pz + i), m))
                  | _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(Pz + i + 2), m)) << 2;
        if (hit)
            return i + (hit & 1 ? 0 : hit & 2 ? 1 : hit & 4 ? 2 : 3);
    }
#endif
    while (i < n - 1 && Pz[i] != lo)
        i++;
    return i;
}

/* basic.stop_check, which also leaves argmin(P z) in *imin when it
 * returns RUNNING, for the step that follows */
static int stop_check(const double *Pz, const double *z, int64_t n, double eps,
                      int64_t *imin)
{
    double lo, hi, zhi;
    int64_t i = -1;
    if (!scan(Pz, z, n, &lo, &hi, &zhi)) {
        i = argmin(Pz, n);
        lo = Pz[i];
        zhi = z[argmax(z, n)];
        hi = Pz[argmax(Pz, n)];
    }
    if (lo > 0.0)
        return INTERIOR_FOUND;
    double bound = eps * zhi;
    /* NumPy's sum adds its pairwise total to 0.0, which changes no
     * comparison */
    if (!(hi > bound) && pos_sum(Pz, n) <= bound)
        return RESCALE_READY;
    *imin = i < 0 ? first_equal(Pz, n, lo) : i;
    return RUNNING;
}

/* Python's max(0.0, x) and min(1.0, x): the first argument unless the
 * second compares strictly greater (smaller) */
static inline double py_max(double a, double b) { return b > a ? b : a; }
static inline double py_min(double a, double b) { return b < a ? b : a; }

/* column i of P, read from row i when the two hold the same bits, as the
 * projectors of subspace.rescaled_projectors do: sym[i] is 0 until the
 * run first takes column i, then 1 when row i matches it and -1 when it
 * does not.  Returns the column's first entry and its stride in *inc. */
static const double *column(const double *P, int64_t n, int64_t i, double *sym, int64_t *inc)
{
    if (sym[i] == 0.0) {
        int same = 1;
        for (int64_t j = 0; j < n && same; j++) {
            uint64_t row, col;
            memcpy(&row, P + i * n + j, sizeof row);
            memcpy(&col, P + j * n + i, sizeof col);
            same = row == col;
        }
        sym[i] = same ? 1.0 : -1.0;
    }
    *inc = sym[i] > 0.0 ? 1 : n;
    return sym[i] > 0.0 ? P + i * n : P + i;
}

/* basic._vertex_move with column i of P, Pi with stride inc */
static void vertex_move(double *restrict z, double *restrict Pz, int64_t n, int64_t i,
                        double theta, const double *restrict Pi, int64_t inc)
{
    double c = 1.0 - theta;
    for (int64_t j = 0; j < n; j++) {
        z[j] *= c;
        Pz[j] = Pz[j] * c + Pi[j * inc] * theta;
    }
    z[i] += theta;
}

/* column i of P, through column(), into one vertex move */
static void vertex_step(const double *P, double *z, double *Pz, int64_t n, int64_t i,
                        double theta, double *sym)
{
    int64_t inc;
    const double *Pi = column(P, n, i, sym, &inc);
    vertex_move(z, Pz, n, i, theta, Pi, inc);
}

/* norm2[i] is ||P e_i||^2 once computed (>= 0 or NaN), -1 before; sym is
 * column()'s */
static int vn_step(const double *P, double *z, double *Pz, int64_t n, int64_t i, double *norm2,
                   double *sym)
{
    /* the strided dot NumPy takes of the column view, whichever way the
     * move reads it */
    if (norm2[i] < 0.0)
        norm2[i] = dot(n, P + i, n, P + i, n);
    double pu2 = norm2[i];
    double pz2 = dot(n, Pz, 1, Pz, 1);
    double upz = Pz[i];
    double denom = pz2 + pu2 - 2.0 * upz;
    if (denom <= 0.0)
        return LINE_SEARCH;
    double theta = (pz2 - upz) / denom;
    vertex_step(P, z, Pz, n, i, py_min(1.0, py_max(0.0, theta)), sym);
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

/* iu is argmin(P z), from the stop check; Pa is a scratch vector and sym
 * column()'s; *force is set when the step asks for a refresh */
static int vna_step(const double *P, double *z, double *Pz, int64_t n, int64_t iu,
                    double *restrict Pa, double *sym, int *force)
{
    double pz2 = dot(n, Pz, 1, Pz, 1);
    int64_t iv = away_vertex(z, Pz, n);
    if (iv < 0)
        return EMPTY_SUPPORT;
    double vz = z[iv];
    int away = !(pz2 - Pz[iu] > Pz[iv] - pz2);
    if (away && vz >= 1.0)
        away = 0;
    int64_t i = away ? iv : iu, inc;
    const double *restrict Pi = column(P, n, i, sym, &inc);
    double theta_max;
    if (away) {
        for (int64_t j = 0; j < n; j++)
            Pa[j] = Pz[j] - Pi[j * inc];
        theta_max = vz / (1.0 - vz);
    } else {
        for (int64_t j = 0; j < n; j++)
            Pa[j] = Pi[j * inc] - Pz[j];
        theta_max = 1.0;
    }
    double pa2 = dot(n, Pa, 1, Pa, 1);
    if (pa2 <= 0.0)
        return ZERO_DIRECTION;
    double theta = py_min(theta_max, -dot(n, z, 1, Pa, 1) / pa2);
    vertex_move(z, Pz, n, i, away ? -theta : theta, Pi, inc);
    if (away)
        for (int64_t j = 0; j < n; j++)
            z[j] = pos(z[j]);
    *force = away && theta > 0.5;
    return 0;
}

/* the state of a smooth run, in the rows of its block: u holds the last
 * prox argument sorted, and ord its decreasing order, as int32 in one row */
struct smooth {
    double *Pu, *w, *Pw, *ub, *u;
    int32_t *ord;
    double mu;
};

/* sorts the entries of w (no NaN) into u in decreasing order, by one
 * insertion pass that takes them in the order ord gives and leaves their
 * new order in ord: an order that changes little from step to step costs
 * little more than the pass.  The order in which equal values (and so
 * signed zeros) sort changes no bit of the result. */
static void sort_decreasing(const double *restrict w, double *restrict u, int32_t *ord,
                            int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        int32_t o = ord[i];
        double v = w[o];
        int64_t j = i;
        for (; j > 0 && u[j - 1] < v; j--) {
            u[j] = u[j - 1];
            ord[j] = ord[j - 1];
        }
        u[j] = v;
        ord[j] = o;
    }
}

/* w = basic.simplex_prox(P u, mu, u_bar): y = u_bar - P u / mu in w, and
 * basic.project_simplex(y) in place, with y sorted into u from the last
 * prox argument's order.  A NaN anywhere in y leaves no threshold index in
 * the NumPy code, where NaN sorts first; that failure is returned before
 * the sort. */
static int prox(struct smooth *s, int64_t n)
{
    double *restrict w = s->w, *restrict u = s->u;
    int nan = 0;
    for (int64_t j = 0; j < n; j++) {
        w[j] = s->ub[j] - s->Pu[j] / s->mu;
        nan |= isnan(w[j]);
    }
    if (nan)
        return NO_SIMPLEX_THRESHOLD;
    sort_decreasing(w, u, s->ord, n);
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
        w[j] = pos(w[j] - tau);
    return 0;
}

/* basic.run_smooth's set-up from u_bar in z: P u_bar, w and P w, then
 * z = w and P z = P w; the first prox argument is sorted from the order
 * of its indices */
static int smooth_start(const double *P, double *z, double *Pz, int64_t n, struct smooth *s)
{
    for (int64_t j = 0; j < n; j++)
        s->ord[j] = (int32_t)j;
    memcpy(s->ub, z, (size_t)n * sizeof(double));
    matvec(P, s->ub, s->Pu, n);
    int err = prox(s, n);
    if (err)
        return err;
    matvec(P, s->w, s->Pw, n);
    memcpy(z, s->w, (size_t)n * sizeof(double));
    memcpy(Pz, s->Pw, (size_t)n * sizeof(double));
    return 0;
}

/* the exponent of theta**2, unknown to the compiler so that pow(x, 2.0)
 * is not rewritten as x * x, which may round differently */
static volatile double two = 2.0;

static int smooth_step(const double *P, double *z, double *Pz, int64_t n, int64_t t,
                       struct smooth *s)
{
    double theta = 2.0 / (double)(t + 3);
    double c = 1.0 - theta;
    double theta2 = pow(theta, two);
    s->mu = c * s->mu;
    double *Pu = s->Pu, *w = s->w, *Pw = s->Pw;
    for (int64_t j = 0; j < n; j++)
        Pu[j] = (Pu[j] + Pz[j] * theta) * c + Pw[j] * theta2;
    int err = prox(s, n);
    if (err)
        return err;
    matvec(P, w, Pw, n);
    for (int64_t j = 0; j < n; j++) {
        z[j] = z[j] * c + w[j] * theta;
        Pz[j] = Pz[j] * c + Pw[j] * theta;
    }
    return 0;
}

/* basic._run for one scheme: its set-up, then basic._drive.  P is
 * C-ordered (n, n); z holds the checked start, Pz receives P z, and both
 * are updated in place, Pz recomputed every `refresh` steps (never when
 * refresh is 0).  mu0 is the smooth perceptron's first smoothing
 * parameter (basic._MU_0).  block holds the scheme's rows of n doubles:
 *   perceptron  1: column()'s record of which rows match their columns
 *   vn          2: that record, and the ||P e_i||^2 cache, -1 until computed
 *   vna         2: that record, and scratch
 *   smooth      6: P u, w, P w, u_bar, the sorted prox argument, and its
 *                  order as n int32
 * Returns a status or a failure code; *iters receives the number of steps
 * completed, before the failure for a failure code (0 when the set-up
 * fails).  P is read by rows only where column() finds them equal to the
 * columns. */
static int64_t bp_run(int64_t scheme, int64_t n, const double *P, double *z, double *Pz,
                      double eps, int64_t max_iters, int64_t refresh, int64_t *iters,
                      double *block, double mu0)
{
    struct smooth s = {0};
    double *sym = block, *row = block + n;
    int64_t t = 0, since_refresh = 0;
    int status;
    *iters = 0;
    if (scheme == SMOOTH) {
        s = (struct smooth){block, block + n, block + 2 * n, block + 3 * n, block + 4 * n,
                            (int32_t *)(block + 5 * n), mu0};
        status = smooth_start(P, z, Pz, n, &s);
        if (status)
            return status;
    } else {
        matvec(P, z, Pz, n);
        for (int64_t j = 0; j < n; j++)
            sym[j] = 0.0;
    }
    if (scheme == VON_NEUMANN)
        for (int64_t j = 0; j < n; j++)
            row[j] = -1.0;
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
            vertex_step(P, z, Pz, n, i, 1.0 / (double)(t + 1), sym);
            break;
        case VON_NEUMANN:
            err = vn_step(P, z, Pz, n, i, row, sym);
            break;
        case VON_NEUMANN_AWAY:
            err = vna_step(P, z, Pz, n, i, row, sym, &force);
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

/* ------------------------------------------------------------------------
 * The module epra_kit._bploop: the calls of basic.py, subspace.py and
 * epra.py.  Each function takes only its inputs and returns what it makes.
 * ------------------------------------------------------------------------ */

/* o as an aligned float64 array in native byte order, C-contiguous for
 * NPY_ARRAY_IN_ARRAY and Fortran-contiguous for NPY_ARRAY_IN_FARRAY, with
 * ndim dimensions: a new reference to o when it is one, else to the copy
 * np.asarray(o, dtype=float) would make in that layout.  NULL with the
 * error set when o cannot be converted or has another ndim. */
static PyArrayObject *input(PyObject *o, int layout, int ndim, const char *name)
{
    PyArrayObject *a = (PyArrayObject *)PyArray_FROM_OTF(o, NPY_DOUBLE,
                                                         layout | NPY_ARRAY_FORCECAST);
    if (a != NULL && PyArray_NDIM(a) != ndim) {
        Py_DECREF(a);
        PyErr_Format(PyExc_ValueError, "%s must have %d dimensions", name, ndim);
        return NULL;
    }
    return a;
}

static int arguments(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, want, nargs);
    return 0;
}

static PyObject *float64(double v)
{
    static PyArray_Descr *type;
    if (type == NULL)
        type = PyArray_DescrFromType(NPY_DOUBLE);
    return PyArray_Scalar(&v, type, NULL);
}

/* bind(gemv, ddot, dgeqrf, dorgqr): the addresses of the BLAS and LAPACK
 * routines numpy calls (blas.symbols), before any other call */
static PyObject *py_bind(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    void *at[4];
    if (!arguments("bind", nargs, 4))
        return NULL;
    for (int k = 0; k < 4; k++) {
        at[k] = PyLong_AsVoidPtr(args[k]);
        if (at[k] == NULL)
            return PyErr_Occurred() ? NULL : PyErr_Format(PyExc_ValueError, "null address");
    }
    gemv = (gemv_fn)at[0];
    dot_ = (dot_fn)at[1];
    geqrf = (geqrf_fn)at[2];
    orgqr = (orgqr_fn)at[3];
    Py_RETURN_NONE;
}

/* the rows of n doubles of bp_run's block, by scheme number: perceptron,
 * von Neumann, away steps, smooth perceptron */
static const npy_intp block_rows[] = {1, 2, 2, 6};

/* run(scheme, P, z, eps, max_iters, refresh, mu0): bp_run without the
 * interpreter lock on P, an (n, n) matrix converted by input(), and z, a
 * writeable C-contiguous float64 vector of n >= 1 entries updated in
 * place.  Returns (status or failure code, steps, P z, block): P z and the
 * scheme's block are new arrays.  A max_iters beyond int64 is one the loop
 * cannot reach. */
static PyObject *py_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    int overflow;
    if (!arguments("run", nargs, 7))
        return NULL;
    long long scheme = PyLong_AsLongLong(args[0]);
    if (scheme == -1 && PyErr_Occurred())
        return NULL;
    if (scheme < PERCEPTRON || scheme > SMOOTH)
        return PyErr_Format(PyExc_ValueError, "no scheme number %lld: bp_run has 0 to %d",
                            scheme, SMOOTH);
    double eps, mu0;
    long long max_iters, refresh;
    if (((eps = PyFloat_AsDouble(args[3])) == -1.0 && PyErr_Occurred())
        || ((max_iters = PyLong_AsLongLongAndOverflow(args[4], &overflow)) == -1
            && PyErr_Occurred())
        || ((refresh = PyLong_AsLongLong(args[5])) == -1 && PyErr_Occurred())
        || ((mu0 = PyFloat_AsDouble(args[6])) == -1.0 && PyErr_Occurred()))
        return NULL;
    if (overflow)
        max_iters = overflow > 0 ? INT64_MAX : INT64_MIN;
    PyArrayObject *z = (PyArrayObject *)args[2];
    if (!PyArray_Check(args[2]) || PyArray_TYPE(z) != NPY_DOUBLE || !PyArray_ISNOTSWAPPED(z)
        || PyArray_NDIM(z) != 1 || !PyArray_ISCARRAY(z) || PyArray_DIM(z, 0) == 0)
        return PyErr_Format(PyExc_ValueError, "run needs z, a writeable float64 vector");
    npy_intp n = PyArray_DIM(z, 0), shape[2] = {block_rows[scheme], n};
    PyArrayObject *P = input(args[1], NPY_ARRAY_IN_ARRAY, 2, "P");
    if (P == NULL)
        return NULL;
    if (PyArray_DIM(P, 0) != n || PyArray_DIM(P, 1) != n) {
        Py_DECREF(P);
        return PyErr_Format(PyExc_ValueError, "run needs P of shape (%zd, %zd)",
                            (Py_ssize_t)n, (Py_ssize_t)n);
    }
    PyArrayObject *Pz = (PyArrayObject *)PyArray_SimpleNew(1, &n, NPY_DOUBLE),
                  *block = (PyArrayObject *)PyArray_SimpleNew(2, shape, NPY_DOUBLE);
    if (Pz == NULL || block == NULL) {
        Py_DECREF(P);
        Py_XDECREF(Pz);
        Py_XDECREF(block);
        return NULL;
    }
    int64_t code, iters;
    Py_BEGIN_ALLOW_THREADS
    code = bp_run(scheme, n, PyArray_DATA(P), PyArray_DATA(z), PyArray_DATA(Pz), eps, max_iters,
                  refresh, &iters, PyArray_DATA(block), mu0);
    Py_END_ALLOW_THREADS
    Py_DECREF(P);
    return Py_BuildValue("(LLNN)", (long long)code, (long long)iters, Pz, block);
}

/* basis(M, scale, divide): bp_basis without the interpreter lock for M, a
 * matrix with rows >= columns >= 1 converted by input() to Fortran order
 * (not written), with its rows divided by scale (divide true) or
 * multiplied by it, or unscaled for a scale of None; scale is a vector of
 * M's rows, converted likewise.  Q and the scratch of tau and the
 * workspace LAPACK's two queries ask for are new arrays.  Returns (Q, min
 * |diag R|, max |diag R|), the two as NumPy float64s, or None for a scaled
 * column of norm 0.  ValueError when LAPACK rejects an argument. */
static PyObject *py_basis(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (!arguments("basis", nargs, 3))
        return NULL;
    PyArrayObject *M = input(args[0], NPY_ARRAY_IN_FARRAY, 2, "M"), *scale = NULL, *Q = NULL,
                  *scratch = NULL;
    PyObject *out = NULL;
    if (M == NULL)
        return NULL;
    npy_intp rows = PyArray_DIM(M, 0), cols = PyArray_DIM(M, 1);
    int64_t mode = UNSCALED, code;
    blasint info = 0, lwork[2];
    double range[2];
    if (!(rows >= cols && cols >= 1)) {
        PyErr_Format(PyExc_ValueError, "basis needs rows >= columns >= 1, got %zd x %zd",
                     (Py_ssize_t)rows, (Py_ssize_t)cols);
        goto done;
    }
    if (args[1] != Py_None) {
        scale = input(args[1], NPY_ARRAY_IN_ARRAY, 1, "scale");
        if (scale == NULL)
            goto done;
        if (PyArray_DIM(scale, 0) != rows) {
            PyErr_Format(PyExc_ValueError, "basis needs a scale of %zd entries",
                         (Py_ssize_t)rows);
            goto done;
        }
        int divide = PyObject_IsTrue(args[2]);
        if (divide < 0)
            goto done;
        mode = divide ? DIVIDE : MULTIPLY;
    }
    npy_intp shape[2] = {rows, cols};
    Q = (PyArrayObject *)PyArray_EMPTY(2, shape, NPY_DOUBLE, 1);
    if (Q == NULL)
        goto done;
    code = bp_workspace(rows, cols, PyArray_DATA(Q), lwork, &info);
    if (code == 0) {
        npy_intp size = cols + (lwork[0] > lwork[1] ? lwork[0] : lwork[1]);
        scratch = (PyArrayObject *)PyArray_SimpleNew(1, &size, NPY_DOUBLE);
        if (scratch == NULL)
            goto done;
        Py_BEGIN_ALLOW_THREADS
        code = bp_basis(rows, cols, PyArray_DATA(M), scale ? PyArray_DATA(scale) : NULL, mode,
                        PyArray_DATA(Q), PyArray_DATA(scratch), lwork, range, &info);
        Py_END_ALLOW_THREADS
    }
    if (code == ZERO_COLUMN)
        out = Py_NewRef(Py_None);
    else if (code < 0)
        PyErr_Format(PyExc_ValueError, "LAPACK %s rejected argument %lld",
                     code == DGEQRF_REJECTED ? "dgeqrf" : "dorgqr", (long long)-info);
    else
        out = Py_BuildValue("(ONN)", Q, float64(range[0]), float64(range[1]));
done:
    Py_DECREF(M);
    Py_XDECREF(scale);
    Py_XDECREF(Q);
    Py_XDECREF(scratch);
    return out;
}

/* np.max(np.abs(x)) of n >= 1 entries: NaN when any is NaN */
static double max_abs(const double *x, npy_intp n)
{
    double m = fabs(x[0]);
    for (npy_intp i = 1; i < n; i++) {
        double v = fabs(x[i]);
        m = v > m || isnan(v) ? v : m;
    }
    return m;
}

/* identify_partition(x, x_hat, U): epra.identify_partition for x and
 * x_hat, vectors of one size n >= 1 converted by input(), and U a real
 * number: (B, N, is_partition), B and N new intp arrays. */
static PyObject *py_identify_partition(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (!arguments("identify_partition", nargs, 3))
        return NULL;
    double U = PyFloat_AsDouble(args[2]);
    if (U == -1.0 && PyErr_Occurred())
        return NULL;
    PyArrayObject *xa = input(args[0], NPY_ARRAY_IN_ARRAY, 1, "x"),
                  *ha = xa ? input(args[1], NPY_ARRAY_IN_ARRAY, 1, "x_hat") : NULL;
    PyObject *sets[2] = {NULL, NULL}, *out = NULL;
    if (ha == NULL)
        goto done;
    npy_intp n = PyArray_DIM(xa, 0), counts[2] = {0, 0};
    if (n == 0 || PyArray_DIM(ha, 0) != n) {
        PyErr_Format(PyExc_ValueError, "identify_partition needs x and x_hat of one size >= 1");
        goto done;
    }
    /* B holds the indices where |x_hat| is below its bound, N those of x */
    const double *x = PyArray_DATA(xa), *x_hat = PyArray_DATA(ha), *v[2] = {x_hat, x};
    double bound[2] = {max_abs(x_hat, n) / U, max_abs(x, n) / U};
    int partition = 1;
    for (npy_intp i = 0; i < n; i++) {
        int b = fabs(x_hat[i]) < bound[0], m = fabs(x[i]) < bound[1];
        counts[0] += b;
        counts[1] += m;
        partition &= b != m;
    }
    for (int k = 0; k < 2; k++) {
        sets[k] = PyArray_SimpleNew(1, &counts[k], NPY_INTP);
        if (sets[k] == NULL)
            goto done;
        npy_intp *at = PyArray_DATA((PyArrayObject *)sets[k]);
        for (npy_intp i = 0; i < n; i++)
            if (fabs(v[k][i]) < bound[k])
                *at++ = i;
    }
    out = Py_BuildValue("(OOO)", sets[0], sets[1], partition ? Py_True : Py_False);
done:
    Py_XDECREF(xa);
    Py_XDECREF(ha);
    Py_XDECREF(sets[0]);
    Py_XDECREF(sets[1]);
    return out;
}

/* rescale_update(z, Pz, D, U, single, floor): epra.rescale_update for z
 * and D, vectors of one size n converted by input(), Pz (read in the
 * all-directions mode only) a vector converted likewise, U a real number
 * and floor epra._ALPHA_FLOOR, in the single-direction mode, which needs
 * n >= 1, when `single` is true: the grown diagonal, a new float64
 * array. */
static PyObject *py_rescale_update(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    if (!arguments("rescale_update", nargs, 6))
        return NULL;
    int single = PyObject_IsTrue(args[4]);
    if (single < 0)
        return NULL;
    double U = PyFloat_AsDouble(args[3]), floor;
    if ((U == -1.0 && PyErr_Occurred())
        || ((floor = PyFloat_AsDouble(args[5])) == -1.0 && PyErr_Occurred()))
        return NULL;
    PyArrayObject *za = input(args[0], NPY_ARRAY_IN_ARRAY, 1, "z"),
                  *Da = za ? input(args[2], NPY_ARRAY_IN_ARRAY, 1, "D") : NULL,
                  *Pza = Da && !single ? input(args[1], NPY_ARRAY_IN_ARRAY, 1, "Pz") : NULL;
    PyObject *out = NULL;
    if (Da == NULL || (!single && Pza == NULL))
        goto done;
    npy_intp n = PyArray_DIM(za, 0);
    if (PyArray_DIM(Da, 0) != n || (single && n == 0)) {
        PyErr_Format(PyExc_ValueError, "rescale_update needs z and D of one size%s",
                     single ? " n >= 1" : "");
        goto done;
    }
    out = PyArray_SimpleNew(1, &n, NPY_DOUBLE);
    if (out == NULL)
        goto done;
    const double *z = PyArray_DATA(za), *D = PyArray_DATA(Da);
    double *restrict e = PyArray_DATA((PyArrayObject *)out);
    if (single) {
        /* D, with 2 D_i capped at U by Python's min at the first index of
         * max(z) */
        memcpy(e, D, (size_t)n * sizeof(double));
        int64_t i = argmax(z, n);
        e[i] = py_min(2.0 * D[i], U);
        goto done;
    }
    /* alpha = max(float(np.maximum(Pz, 0.0).sum()), _ALPHA_FLOOR) */
    double alpha = py_max(pos_sum(PyArray_DATA(Pza), PyArray_DIM(Pza, 0)), floor);
    for (npy_intp i = 0; i < n; i++) {
        double v = (1.0 + pos(z[i] / alpha - 1.0)) * D[i];
        /* np.minimum(v, U): v when it is NaN */
        e[i] = v < U || isnan(v) ? v : U;
    }
done:
    Py_XDECREF(za);
    Py_XDECREF(Da);
    Py_XDECREF(Pza);
    return out;
}

static PyMethodDef methods[] = {
    {"bind", (PyCFunction)(void (*)(void))py_bind, METH_FASTCALL, NULL},
    {"run", (PyCFunction)(void (*)(void))py_run, METH_FASTCALL, NULL},
    {"basis", (PyCFunction)(void (*)(void))py_basis, METH_FASTCALL, NULL},
    {"identify_partition", (PyCFunction)(void (*)(void))py_identify_partition, METH_FASTCALL,
     NULL},
    {"rescale_update", (PyCFunction)(void (*)(void))py_rescale_update, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_bploop", NULL, -1, methods,
                                    NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__bploop(void)
{
    import_array();
    return PyModule_Create(&module);
}
