/* Compiled ordered-tree edit distance kernel.
 *
 * Same keyroot/forest recurrence (Zhang & Shasha, SIAM J. Comput. 1989) as
 * _ted_py.tree_distance, which stays the reference and the fallback.
 * tsrkit.teds.distance.backend_name() chooses between the two on every
 * distance call; this one whenever it is built and TSRKIT_PURE_PYTHON is
 * unset. Every edit has cost 1: insert, delete, and a rename between
 * unequal labels. Trees arrive flattened in postorder: leftmost-leaf-
 * descendant indices, interned label ids and keyroots, each a 1-d
 * C-contiguous int64 buffer.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

/* Acquire a buffer of native 8-byte integers; TypeError for anything else. */
static int get_int64(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *f = view->format[0] == '@' ? view->format + 1 : view->format;
    if (view->ndim != 1 || view->itemsize != 8 || (f[0] != 'l' && f[0] != 'q') || f[1] != '\0'
        || !PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_TypeError, "expected a 1-d C-contiguous int64 buffer, got format "
                     "'%s' with %d dimension(s)", view->format, view->ndim);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Reject arrays that would send the DP outside its tables: labels must match
 * lmld in length, every subtree [lmld[k], k] must lie inside the tree and
 * nest, and every keyroot must be a node. a and len hold lmld, labels and
 * keyroots. Costs n times the tree depth, which table trees cap at 3. */
static int check_tree(const int64_t *const *a, const Py_ssize_t *len)
{
    const int64_t *lmld = a[0];
    if (len[1] != len[0])
        goto bad;
    for (Py_ssize_t k = 0; k < len[0]; k++) {
        if (lmld[k] < 0 || lmld[k] > k)
            goto bad;
        for (Py_ssize_t t = lmld[k]; t < k; t++)
            if (lmld[t] < lmld[k])
                goto bad;
    }
    for (Py_ssize_t k = 0; k < len[2]; k++)
        if (a[2][k] < 0 || a[2][k] >= len[0])
            goto bad;
    return 0;
bad:
    PyErr_SetString(PyExc_ValueError, "lmld, labels and keyroots do not describe a postorder tree");
    return -1;
}

/* a and len hold lmld1, labels1, keyroots1, lmld2, labels2, keyroots2. */
static double distance(const int64_t *const *a, const Py_ssize_t *len, double *td, double *fd)
{
    const int64_t *lmld1 = a[0], *labels1 = a[1], *lmld2 = a[3], *labels2 = a[4];
    Py_ssize_t n1 = len[0], n2 = len[3], fs = n2 + 1;
    for (Py_ssize_t ki = 0; ki < len[2]; ki++) {
        Py_ssize_t i = a[2][ki], li = lmld1[i], m = i - li + 2;
        for (Py_ssize_t kj = 0; kj < len[5]; kj++) {
            Py_ssize_t j = a[5][kj], lj = lmld2[j], n = j - lj + 2;
            fd[0] = 0.0;
            for (Py_ssize_t x = 1; x < m; x++)
                fd[x * fs] = fd[(x - 1) * fs] + 1.0;
            for (Py_ssize_t y = 1; y < n; y++)
                fd[y] = fd[y - 1] + 1.0;
            for (Py_ssize_t x = 1; x < m; x++) {
                Py_ssize_t node1 = x + li - 1, p = lmld1[node1] - li;
                int whole1 = lmld1[node1] == li;
                double *row = fd + x * fs, *prev = row - fs;
                for (Py_ssize_t y = 1; y < n; y++) {
                    Py_ssize_t node2 = y + lj - 1, q = lmld2[node2] - lj;
                    double best, alt;
                    if (whole1 && q == 0)
                        best = prev[y - 1] + (labels1[node1] == labels2[node2] ? 0.0 : 1.0);
                    else
                        best = fd[p * fs + q] + td[node1 * n2 + node2];
                    alt = prev[y] + 1.0;
                    if (alt < best)
                        best = alt;
                    alt = row[y - 1] + 1.0;
                    if (alt < best)
                        best = alt;
                    row[y] = best;
                    if (whole1 && q == 0)
                        td[node1 * n2 + node2] = best;
                }
            }
        }
    }
    return td[(n1 - 1) * n2 + (n2 - 1)];
}

static PyObject *tree_distance(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *objs[6];
    Py_buffer views[6];
    int got = 0;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "OOOOOO:tree_distance", &objs[0], &objs[1], &objs[2],
                          &objs[3], &objs[4], &objs[5]))
        return NULL;
    for (; got < 6; got++)
        if (get_int64(objs[got], &views[got]) < 0)
            goto done;
    const int64_t *a[6];
    Py_ssize_t len[6];
    for (int k = 0; k < 6; k++) {
        a[k] = views[k].buf;
        len[k] = views[k].shape[0];
    }
    if (check_tree(a, len) < 0 || check_tree(a + 3, len + 3) < 0)
        goto done;
    if (len[0] == 0 || len[3] == 0) {
        result = PyFloat_FromDouble((double)(len[0] + len[3]));
        goto done;
    }
    /* calloc checks the products for overflow; zeroed td keeps reads defined */
    double *td = calloc((size_t)len[0], (size_t)len[3] * sizeof(double));
    double *fd = calloc((size_t)len[0] + 1, ((size_t)len[3] + 1) * sizeof(double));
    if (td != NULL && fd != NULL)
        result = PyFloat_FromDouble(distance(a, len, td, fd));
    else
        PyErr_NoMemory();
    free(td);
    free(fd);
done:
    while (got > 0)
        PyBuffer_Release(&views[--got]);
    return result;
}

static PyMethodDef methods[] = {
    {"tree_distance", tree_distance, METH_VARARGS,
     "tree_distance(lmld1, labels1, keyroots1, lmld2, labels2, keyroots2)\n--\n\n"
     "Minimal unit-cost edit distance between two flattened trees."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_speedup", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__speedup(void)
{
    return PyModule_Create(&module);
}
