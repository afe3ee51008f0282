/* Compiled search kernel: a port of ``_pysearch.solve`` (see its module
 * docstring) with the same propagation (one cyclic pass to the fixpoint),
 * branching order, witnesses and node counts.  It rebuilds the reach table
 * after each commit, where the pure kernel refreshes the changed rows and
 * logs the rows it overwrites; the two tables are equal.  ``removable``
 * skips the cut-arc search of a source hit at k <= d - 2 that is in
 * shared[k + 1][b] and in ``slack`` (within d - 1 steps of every vertex):
 * a path through a->b to b's other in-neighbour is longer than k + 1, so
 * cutting the arc delays that source by at most one step, which keeps it
 * within d of every vertex.  A cut-arc search stops as soon as the rows it
 * has expanded cover every vertex, partway through a level if need be.  A
 * vertex set is one 64-bit word, so n is limited to 62; ``_backend``
 * routes larger inputs to the pure kernel.  Budget exhaustion unwinds the
 * search with longjmp, where the pure kernel raises ``_BudgetExceeded``.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <setjmp.h>
#include <stdint.h>
#include <time.h>

typedef uint64_t u64;

enum { STATUS_NO = 0, STATUS_YES = 1, STATUS_BUDGET = 2 };

#define TICK_INTERVAL 2048
#define MAX_VERTICES 62
#define BIT(v) ((u64)1 << (v))
#define LOWEST(x) __builtin_ctzll(x)

typedef struct {
    int n, m, d;
    u64 full;
    u64 out[MAX_VERTICES];  /* committed out-arcs */
    u64 und[MAX_VERTICES];  /* endpoints of still-undirected incident edges */
    u64 adj[MAX_VERTICES];  /* all neighbours */
    int *ep, *eq;           /* edges[i] = (ep[i], eq[i]) */
    int *assigned;
    int *trail;
    int trail_len;
    long long nodes, max_nodes;
    int has_deadline;
    double deadline;
    jmp_buf budget_exceeded;
    /* reach[k * n + v], k = 0..d: the sources within k potential steps of v.
     * shared[k * n + v], k = 0..d-1: the sources within k steps of two or
     * more potential in-neighbours of v.  pout[v]: v's potential out-row.
     * slack: the sources within d - 1 steps of every vertex. */
    u64 *reach, *shared;
    u64 pout[MAX_VERTICES];
    u64 slack;
    int table_valid;
} Solver;

static double monotonic(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + ts.tv_nsec * 1e-9;
}

static void tick(Solver *s)
{
    s->nodes += 1;
    if (s->nodes > s->max_nodes)
        longjmp(s->budget_exceeded, 1);
    if (s->has_deadline && s->nodes % TICK_INTERVAL == 0 && monotonic() > s->deadline)
        longjmp(s->budget_exceeded, 1);
}

static void reach_table(Solver *s)
{
    int n = s->n;
    if (s->table_valid)
        return;
    for (int v = 0; v < n; v++) {
        s->reach[v] = BIT(v);
        s->pout[v] = s->out[v] | s->und[v];
    }
    for (int k = 0; k < s->d; k++) {
        const u64 *level = s->reach + k * n;
        u64 *nxt = s->reach + (k + 1) * n, *two = s->shared + k * n;
        for (int v = 0; v < n; v++) {
            /* v's potential in-neighbours: every neighbour but its committed out-arcs */
            u64 pin = s->adj[v] & ~s->out[v], once = 0, twice = 0;
            while (pin) {
                u64 x = level[LOWEST(pin)];
                twice |= once & x;
                once |= x;
                pin &= pin - 1;
            }
            nxt[v] = level[v] | once;
            two[v] = twice;
        }
    }
    s->slack = s->full;
    if (s->d > 0) {
        for (int v = 0; v < n; v++)
            s->slack &= s->reach[(s->d - 1) * n + v];
    }
    s->table_valid = 1;
}

/* Does the current, feasible state stay feasible without the potential
 * arc a->b?  ``_pysearch``'s module docstring gives the test. */
static int removable(Solver *s, int a, int b)
{
    int n = s->n, last = s->d - 1;
    const u64 *reach, *shared;
    reach_table(s);
    reach = s->reach;
    shared = s->shared;
    if (reach[last * n + a] & ~reach[last * n + b] & ~shared[last * n + b])
        return 0;
    u64 abit = BIT(a), slack = s->slack;
    /* k = 0: a itself always loses its direct arc.  A source with slack
     * that reaches a second in-neighbour of b within k + 1 steps is safe. */
    u64 hit = abit & ~(shared[n + b] & slack);
    for (int k = 1; k < last; k++)
        hit |= reach[k * n + a] & ~reach[k * n + b] & ~shared[k * n + b] & ~(shared[(k + 1) * n + b] & slack);
    u64 cut = s->pout[a] & ~BIT(b);
    while (hit) {
        u64 seen = hit & -hit, frontier = seen;
        hit ^= seen;
        for (int step = 0; step < s->d; step++) {
            u64 nxt = 0;
            if (frontier & abit) {
                nxt = cut;
                frontier ^= abit;
            }
            while (frontier && (nxt | seen) != s->full) {
                nxt |= s->pout[LOWEST(frontier)];
                frontier &= frontier - 1;
            }
            frontier = nxt & ~seen;
            if (!frontier)
                break;
            seen |= frontier;
            if (seen == s->full)
                break;
        }
        if (seen != s->full)
            return 0;
    }
    return 1;
}

static void set_arc(Solver *s, int i, int direction)
{
    int p = s->ep[i], q = s->eq[i];
    if (direction) {
        p = s->eq[i];
        q = s->ep[i];
    }
    s->out[p] |= BIT(q);
    s->und[p] &= ~BIT(q);
    s->und[q] &= ~BIT(p);
    s->assigned[i] = direction;
    s->trail[s->trail_len++] = i;
    s->table_valid = 0;
}

static void undo_to(Solver *s, int mark)
{
    while (s->trail_len > mark) {
        int i = s->trail[--s->trail_len];
        int p = s->ep[i], q = s->eq[i];
        if (s->assigned[i]) {
            p = s->eq[i];
            q = s->ep[i];
        }
        s->out[p] &= ~BIT(q);
        s->und[p] |= BIT(q);
        s->und[q] |= BIT(p);
        s->assigned[i] = -1;
        s->table_valid = 0;
    }
}

/* assumes the current state is feasible; one cyclic scan that commits
 * each forced edge where it finds it and stops after m quiet indices */
static int propagate(Solver *s)
{
    for (int i = 0, quiet = 0; quiet < s->m; i = i + 1 < s->m ? i + 1 : 0) {
        quiet++;
        if (s->assigned[i] >= 0)
            continue;
        int p = s->ep[i], q = s->eq[i];
        int ok0 = removable(s, q, p); /* p->q drops the potential arc q->p */
        int ok1 = removable(s, p, q);
        if (!ok0 && !ok1)
            return 0;
        if (ok0 != ok1) {
            set_arc(s, i, ok0 ? 0 : 1);
            tick(s);
            quiet = 0;
        }
    }
    return 1;
}

static int search(Solver *s)
{
    int mark = s->trail_len, branch = -1;
    if (!propagate(s)) {
        undo_to(s, mark);
        return 0;
    }
    for (int i = 0; i < s->m; i++) {
        if (s->assigned[i] < 0) {
            branch = i;
            break;
        }
    }
    if (branch < 0)
        return 1;
    /* propagate() left both directions of every open edge feasible */
    for (int direction = 0; direction < 2; direction++) {
        int submark = s->trail_len;
        set_arc(s, branch, direction);
        tick(s);
        if (search(s))
            return 1;
        undo_to(s, submark);
    }
    undo_to(s, mark);
    return 0;
}

/* The status of the search; fills ``s->assigned`` on YES. */
static int run(Solver *s)
{
    if (setjmp(s->budget_exceeded))
        return STATUS_BUDGET;
    reach_table(s);
    for (int v = 0; v < s->n; v++) {
        if (s->reach[s->d * s->n + v] != s->full)
            return STATUS_NO;
    }
    if (s->m == 0)
        return STATUS_YES;
    /* Reversing every arc preserves the diameter, so the first edge's
     * direction can be fixed without losing any solutions. */
    int ok = removable(s, s->eq[0], s->ep[0]);
    set_arc(s, 0, 0);
    tick(s);
    if (ok && search(s))
        return STATUS_YES;
    return STATUS_NO;
}

/* Reads ``edges`` into s->ep and s->eq and the rows of s->und and s->adj;
 * returns -1 with an exception set on a malformed edge. */
static int read_edges(Solver *s, PyObject *seq)
{
    for (int i = 0; i < s->m; i++) {
        PyObject *pair = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, i), "an edge must be a pair");
        if (pair == NULL)
            return -1;
        long p = -1, q = -1;
        if (PySequence_Fast_GET_SIZE(pair) == 2) {
            p = PyLong_AsLong(PySequence_Fast_GET_ITEM(pair, 0));
            if (!PyErr_Occurred())
                q = PyLong_AsLong(PySequence_Fast_GET_ITEM(pair, 1));
        }
        Py_DECREF(pair);
        if (PyErr_Occurred())
            return -1;
        if (p < 0 || p >= s->n || q < 0 || q >= s->n || p == q) {
            PyErr_Format(PyExc_ValueError, "edge %d is not a pair of distinct vertices in 0..%d", i, s->n - 1);
            return -1;
        }
        if (s->adj[p] & BIT(q)) {
            PyErr_Format(PyExc_ValueError, "edge %d repeats {%ld, %ld}", i, p, q);
            return -1;
        }
        s->ep[i] = (int)p;
        s->eq[i] = (int)q;
        s->adj[p] |= BIT(q);
        s->adj[q] |= BIT(p);
        s->und[p] |= BIT(q);
        s->und[q] |= BIT(p);
        s->assigned[i] = -1;
    }
    return 0;
}

PyDoc_STRVAR(solve_doc,
"solve(n, edges, d, max_nodes, time_limit=None)\n--\n\n"
"Same contract as ``_pysearch.solve``; requires n <= 62.  A max_nodes too\n"
"large for a C long long is no limit.");

static PyObject *solve(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "edges", "d", "max_nodes", "time_limit", NULL};
    int n, d, overflow;
    PyObject *edges, *max_nodes, *time_limit = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOiO|O:solve", kwlist, &n, &edges, &d, &max_nodes, &time_limit))
        return NULL;
    if (n < 0 || n > MAX_VERTICES)
        return PyErr_Format(PyExc_ValueError, "compiled kernel supports 0..%d vertices, not %d", MAX_VERTICES, n);
    if (d < 0)
        return PyErr_Format(PyExc_ValueError, "diameter bound must be non-negative, not %d", d);

    Solver s = {.n = n, .d = d, .full = BIT(n) - 1};
    s.max_nodes = PyLong_AsLongLongAndOverflow(max_nodes, &overflow);
    if (s.max_nodes == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        s.max_nodes = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    if (time_limit != Py_None) {
        double limit = PyFloat_AsDouble(time_limit);
        if (limit == -1.0 && PyErr_Occurred())
            return NULL;
        s.has_deadline = 1;
        s.deadline = monotonic() + limit;
    }

    PyObject *seq = PySequence_Fast(edges, "edges must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(seq);
    if (m > INT_MAX / 4) {
        Py_DECREF(seq);
        return PyErr_Format(PyExc_ValueError, "too many edges: %zd", m);
    }
    s.m = (int)m;
    PyObject *result = NULL;
    int *ints = PyMem_Calloc(4 * (size_t)s.m + 1, sizeof(int));
    u64 *rows = PyMem_Calloc((2 * (size_t)d + 1) * n + 1, sizeof(u64));
    if (ints == NULL || rows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s.ep = ints;
    s.eq = ints + s.m;
    s.assigned = ints + 2 * s.m;
    s.trail = ints + 3 * s.m;
    s.reach = rows;
    s.shared = rows + ((size_t)d + 1) * n;
    if (read_edges(&s, seq) < 0)
        goto done;

    int status = run(&s);
    if (status != STATUS_YES) {
        result = Py_BuildValue("(iOL)", status, Py_None, s.nodes);
        goto done;
    }
    PyObject *dirs = PyList_New(s.m);
    if (dirs == NULL)
        goto done;
    for (int i = 0; i < s.m; i++) {
        PyObject *dir = PyLong_FromLong(s.assigned[i]);
        if (dir == NULL) {
            Py_DECREF(dirs);
            goto done;
        }
        PyList_SET_ITEM(dirs, i, dir);
    }
    result = Py_BuildValue("(iNL)", status, dirs, s.nodes);
done:
    PyMem_Free(ints);
    PyMem_Free(rows);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef methods[] = {
    {"solve", (PyCFunction)(void (*)(void))solve, METH_VARARGS | METH_KEYWORDS, solve_doc},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {
    {0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "Compiled search kernel; the same search as ``_pysearch.solve``.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    return PyModuleDef_Init(&module);
}
