/* Compiled counting kernels: the same contract as ``_kernels_py``.
 *
 * Counts stay exact: the kernels count in one unsigned ``word`` of
 * WORD_BITS bits, and only at weights up to SAFE_WEIGHT.  Word arithmetic
 * is exact mod 2**WORD_BITS, so intermediate entries may wrap.  Each output
 * counts partitions of weight at most the target weight, so it is at most
 * p(weight), and p(SAFE_WEIGHT) < 2**WORD_BITS <= p(SAFE_WEIGHT + 1): every
 * output fits, and SAFE_WEIGHT is the largest weight for which that holds.
 * With 64-bit words that is p(416) < 2**64 <= p(417).  Both constants are
 * module attributes.  Every weight and box side is read through ``weight``,
 * which refuses one past SAFE_WEIGHT.  Every other call (a larger weight, a
 * negative or non-int argument, a wrong number of arguments) goes to the
 * function of ``_kernels_py`` named ``__func__``, so big results and errors
 * come from one place.
 *
 * Two loops serve the seven entry points.  The 2-D ``part_rows`` serves
 * only set-exact counts.  The 1-D ``series`` serves the other six, whose
 * counts are coefficients of prod_g (1 - q^g) / prod_v (1 - q^v): a box is
 * a Gaussian binomial, and set-any counts and p(n) have no numerator.  Five
 * return through ``series_result``; ``box_sum`` chains one ``series`` per
 * term.  Each call owns its tables and touches no Python object while it
 * fills them, so it releases the GIL: threads run in parallel. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

typedef uint64_t word; /* the unsigned machine word the kernels count in */
#define WORD_BITS 64     /* its width in bits */
#define SAFE_WEIGHT 416  /* largest n with p(n) < 2**WORD_BITS */

static PyObject *kernels_py; /* charrank._kernels_py, set once at import */

/* Fills rows 0..rows of a zeroed table of (rows + 1) * width entries with
 * the counts of partitions into exactly p parts from ``parts``, indexed
 * [p][weight].  ``parts`` must be ascending and below ``width``.  Adding
 * part v splits on whether v occurs:
 *     f(v, p, w) = f(v-1, p, w) + f(v, p-1, w-v),
 * and rows go with p ascending, so row p - 1 already holds f(v, p-1, .).
 * Once every part up to v is in, row p is zero outside [p * least, p * v],
 * so part v changes row p only on [v + (p-1) * least, p * v], and no row
 * past the first whose window starts at ``width`` or beyond. */
static void
part_rows(word *table, const long *parts, long nparts, long rows,
          long width)
{
    table[0] = 1;
    for (long i = 0; i < nparts; i++) {
        long v = parts[i];
        for (long p = 1, lo = v; p <= rows && lo < width; p++, lo += parts[0]) {
            word *row = table + p * width, *below = row - width;
            long hi = p * v < width ? p * v : width - 1;
            for (long w = lo; w <= hi; w++)
                row[w] += below[w - v];
        }
    }
}

/* Fills a zeroed ``dp`` of ``width`` entries with the coefficients of
 *     prod_{g=from..to} (1 - q^g) / prod_{i<nparts} (1 - q^parts[i]),
 * where a NULL ``parts`` stands for 1..nparts.  A numerator factor g runs
 * dp[w] -= dp[w - g] over w descending, so dp[w - g] is still old; a part
 * v runs dp[w] += dp[w - v] over w ascending, so dp[w - v] already uses v.
 * With from > to there is no numerator: partitions into the parts. */
static void
series(word *dp, long width, long from, long to, const long *parts,
       long nparts)
{
    dp[0] = 1;
    for (long g = from; g <= to && g < width; g++)
        for (long w = width - 1; w >= g; w--)
            dp[w] -= dp[w - g];
    for (long i = 0; i < nparts; i++)
        for (long w = parts ? parts[i] : i + 1; w < width; w++)
            dp[w] += dp[w - (parts ? parts[i] : i + 1)];
}

/* ``o`` clamped to at most ``cap``; -1 if ``o`` is not a nonnegative int. */
static long
clamp(PyObject *o, long cap)
{
    int overflow;
    long v;

    if (!PyLong_Check(o))
        return -1;
    v = PyLong_AsLongAndOverflow(o, &overflow);
    if (overflow > 0)
        return cap;
    if (overflow < 0 || v < 0)
        return -1;
    return v < cap ? v : cap;
}

/* ``o`` as a weight or a box side the word path takes: -1 past SAFE_WEIGHT,
 * as for anything ``clamp`` refuses, so every such call is handed on. */
static long
weight(PyObject *o)
{
    long v = clamp(o, SAFE_WEIGHT + 1);

    return v > SAFE_WEIGHT ? -1 : v;
}

static PyObject *
delegate(const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *fn = PyObject_GetAttrString(kernels_py, name), *out;

    if (fn == NULL)
        return NULL;
    out = PyObject_Vectorcall(fn, args, nargs, NULL);
    Py_DECREF(fn);
    return out;
}

/* The n ints table[at], table[at + step], .. as a list.  Frees ``table``,
 * which the caller owns. */
static PyObject *
to_list(word *table, long at, long step, long n)
{
    PyObject *out = PyList_New(n), *item;

    for (long i = 0; out != NULL && i < n; i++) {
        item = PyLong_FromUnsignedLongLong(table[at + i * step]);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    free(table);
    return out;
}

/* The coefficients of ``series`` for weights 0..top, as a list, or only
 * the one of weight top if ``last``. */
static PyObject *
series_result(long top, long from, long to, const long *parts, long nparts,
              int last)
{
    word *dp = calloc((size_t)top + 1, sizeof *dp), count;

    if (dp == NULL)
        return PyErr_NoMemory();
    Py_BEGIN_ALLOW_THREADS
    series(dp, top + 1, from, to, parts, nparts);
    Py_END_ALLOW_THREADS
    if (!last)
        return to_list(dp, 0, 1, top + 1);
    count = dp[top];
    free(dp);
    return PyLong_FromUnsignedLongLong(count);
}

/* Reads the ascending ``tuple`` into ``parts`` and returns their number.
 * Parts above ``top`` never fit and are dropped; at most ``top`` parts
 * come before them.  Returns -1 on a part that is not a positive int. */
static long
read_parts(PyObject *tuple, long top, long *parts)
{
    long v, n = 0;

    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(tuple); i++) {
        v = clamp(PyTuple_GET_ITEM(tuple, i), top + 1);
        if (v > top)
            break;
        if (v < 1 || n == top)
            return -1;
        parts[n++] = v;
    }
    return n;
}

/* The counts in an a-by-b box are the coefficients of the Gaussian binomial
 * prod_{i=1..lo} (1 - q^(hi+i)) / (1 - q^i), with lo <= hi (conjugation). */
static PyObject *
box_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* parts are >= 1: bounds beyond c are inert */
    long c = nargs == 3 ? weight(args[2]) : -1,
         a = nargs == 3 ? clamp(args[0], c) : -1,
         b = nargs == 3 ? clamp(args[1], c) : -1, lo;

    if (c < 0 || a < 0 || b < 0)
        return delegate(__func__, args, nargs);
    if (c > a * b)
        return PyLong_FromLong(0);
    c = c < a * b - c ? c : a * b - c; /* the row is a palindrome */
    lo = a < b ? a : b;
    return series_result(c, a + b - lo + 1, a + b, NULL, lo, 1);
}

static PyObject *
box_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long a = nargs == 2 ? weight(args[0]) : -1,
         b = nargs == 2 ? weight(args[1]) : -1, lo;

    if (a < 0 || b < 0 || a * b > SAFE_WEIGHT)
        return delegate(__func__, args, nargs);
    lo = a < b ? a : b;
    return series_result(a * b, a + b - lo + 1, a + b, NULL, lo, 0);
}

/* The paper's sum over s of the counts of w - lo*s in an m-by-s box, m =
 * hi - lo, on one row cut to the weights left: [m+s, s]_q = [m+s-1, s-1]_q
 * (1 - q^(m+s)) / (1 - q^s).  Each entry and the sum count partitions of w.
 * Terms with m*s < w - lo*s are zero, so the row starts as the m-by-s0 box,
 * s0 = ceil(w/hi) - 1 (0 for w = 0); s = 0 adds the empty partition. */
static PyObject *
box_sum(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long lo = nargs == 3 ? weight(args[0]) : -1,
         hi = nargs == 3 ? weight(args[1]) : -1,
         w = nargs == 3 ? weight(args[2]) : -1, m, s0;
    word *dp, total = w == 0;

    if (lo < 1 || hi < lo || w < 0)
        return delegate(__func__, args, nargs);
    if ((dp = calloc((size_t)w + 1, sizeof *dp)) == NULL)
        return PyErr_NoMemory();
    m = hi - lo;
    s0 = w > 0 ? (w - 1) / hi : 0;
    Py_BEGIN_ALLOW_THREADS
    series(dp, w - lo * s0 + 1, (m > s0 ? m : s0) + 1, m + s0, NULL,
           m < s0 ? m : s0);
    for (long s = s0 + 1; lo * s <= w; s++) {
        series(dp, w - lo * s + 1, hi - lo + s, hi - lo + s, &s, 1);
        total += dp[w - lo * s];
    }
    Py_END_ALLOW_THREADS
    free(dp);
    return PyLong_FromUnsignedLongLong(total);
}

static PyObject *
set_exact_counts(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long b = nargs == 3 && PyTuple_Check(args[0]) ? weight(args[1]) : -1,
         c = nargs == 3 ? weight(args[2]) : -1, n, parts[SAFE_WEIGHT];
    word *table;

    if (b < 0 || c < 0 || (n = read_parts(args[0], c, parts)) < 0)
        return delegate(__func__, args, nargs);
    if ((table = calloc((size_t)(b + 1) * (c + 1), sizeof *table)) == NULL)
        return PyErr_NoMemory();
    Py_BEGIN_ALLOW_THREADS
    part_rows(table, parts, n, b, c + 1);
    Py_END_ALLOW_THREADS
    return to_list(table, c, c + 1, b + 1);
}

static PyObject *
set_any_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long top = nargs == 2 && PyTuple_Check(args[0]) ? weight(args[1]) : -1, n,
         parts[SAFE_WEIGHT];

    if (top < 0 || (n = read_parts(args[0], top, parts)) < 0)
        return delegate(__func__, args, nargs);
    return series_result(top, 1, 0, parts, n, 1);
}

static PyObject *
partition_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long n = nargs == 1 ? weight(args[0]) : -1;

    if (n < 0)
        return delegate(__func__, args, nargs);
    return series_result(n, 1, 0, NULL, n, 0); /* parts above n never fit */
}

/* p(n) alone, from the same row; past SAFE_WEIGHT the pure
 * ``partition_count`` picks its own route. */
static PyObject *
partition_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long n = nargs == 1 ? weight(args[0]) : -1;

    if (n < 0)
        return delegate(__func__, args, nargs);
    return series_result(n, 1, 0, NULL, n, 1);
}

#define FASTCALL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    FASTCALL(box_count, "Partitions of c into at most b parts, each <= a."),
    FASTCALL(box_table, "Partition counts in an a-by-b box, by weight 0..a*b."),
    FASTCALL(box_sum, "Partitions of w into parts lo..hi, as a sum of boxes."),
    FASTCALL(set_exact_counts,
             "Partitions of c into exactly s parts from parts, for s in 0..b."),
    FASTCALL(set_any_count,
             "Partitions of weight into any number of parts from parts."),
    FASTCALL(partition_table, "Unrestricted partition numbers p(0..n)."),
    FASTCALL(partition_count, "The unrestricted partition number p(n)."),
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "charrank._kernels_c",
    "Compiled counting kernels; same contract as ``_kernels_py``.", -1,
    methods};

PyMODINIT_FUNC
PyInit__kernels_c(void)
{
    PyObject *m;

    if (kernels_py == NULL
        && (kernels_py = PyImport_ImportModule("charrank._kernels_py")) == NULL)
        return NULL;
    m = PyModule_Create(&module);
    if (m != NULL
        && (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
            || PyModule_AddIntConstant(m, "WORD_BITS", WORD_BITS) < 0
            || PyModule_AddIntConstant(m, "SAFE_WEIGHT", SAFE_WEIGHT) < 0))
        Py_CLEAR(m);
    return m;
}
