/* Compiled paths for the three hot loops: the ordered-tree edit distance
 * kernel, the corpus loader's column packer and the structure-HTML parser.
 *
 * Each has a pure-Python twin, which stays its reference and fallback.
 * tsrkit.teds.distance.compiled() is the one rule that picks this module or
 * the twins for all three; its module docstring states it.
 *
 * tree_distance has the same keyroot/forest recurrence (Zhang & Shasha,
 * SIAM J. Comput. 1989) as its twin _ted_py.tree_distance. Every edit has
 * cost 1: insert, delete, and a rename between unequal labels. Trees arrive
 * flattened in postorder: leftmost-leaf-descendant indices, interned label
 * ids and keyroots, each a 1-d C-contiguous int64 buffer.
 *
 * pack_columns is the twin of tsrkit.formats._columns, with the same
 * arguments and checks: it fills one image's box, class and score or
 * content-box columns from its parsed JSON instances, or declines, so that
 * the loader parses the image one instance at a time.
 *
 * parse_canonical reads exactly the HTML that TableTree.to_html writes and
 * declines everything else to tsrkit.teds.tree.parse_table_html, which stays
 * the grammar, the reference and the only source of parse errors.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Acquire a C-contiguous buffer of ndim dimensions whose items are itemsize
 * bytes in one of the struct formats listed in formats; with cols > 0 its
 * last dimension must be cols long, and with writable set it must be
 * writable. TypeError for anything else. */
static int get_buffer(PyObject *obj, Py_buffer *view, const char *formats, Py_ssize_t itemsize, int ndim,
                      Py_ssize_t cols, int writable)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *f = view->format[0] == '@' ? view->format + 1 : view->format;
    if (view->ndim != ndim || view->itemsize != itemsize || f[0] == '\0' || f[1] != '\0'
        || strchr(formats, f[0]) == NULL || (cols > 0 && view->shape[ndim - 1] != cols)
        || (writable && view->readonly) || !PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_TypeError, "expected a %s%d-d C-contiguous buffer of format '%s', got format "
                     "'%s' with %d dimension(s)", writable ? "writable " : "", ndim, formats, view->format,
                     view->ndim);
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
        if (get_buffer(objs[got], &views[got], "lq", 8, 1, 0, 0) < 0)
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

/* ---------------------------------------------------------- column packer */

#define EXACT_INT (1LL << 53) /* every int up to this size is exactly a double */

/* Column-wide state of one box column: an int anywhere in it, and its largest right or bottom edge. */
struct box_column {
    int any_int;
    double max_edge;
};

/* Store a corpus number, an exact float or an exact int (not a bool), in *out;
 * 0 for anything else. An int beyond 2**53 is refused too: in a box it leaves
 * the image or makes the column's largest edge pass 2**53 beside an int,
 * which _columns refuses, and a score must lie in [0, 1]. */
static int read_number(PyObject *obj, double *out, int *any_int)
{
    if (PyFloat_CheckExact(obj)) {
        *out = PyFloat_AS_DOUBLE(obj);
        return 1;
    }
    if (!PyLong_CheckExact(obj))
        return 0;
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow || value > EXACT_INT || value < -EXACT_INT)
        return 0;
    *out = (double)value;
    *any_int = 1;
    return 1;
}

/* Store one box, an exact list of four numbers, ordered and inside the image,
 * in out; 0 for anything else. NaN fails every comparison. */
static int read_box(PyObject *obj, double width, double height, double *out, struct box_column *column)
{
    if (!PyList_CheckExact(obj) || PyList_GET_SIZE(obj) != 4)
        return 0;
    for (Py_ssize_t k = 0; k < 4; k++)
        if (!read_number(PyList_GET_ITEM(obj, k), &out[k], &column->any_int))
            return 0;
    if (!(0.0 <= out[0] && out[0] <= out[2] && out[2] <= width && 0.0 <= out[1] && out[1] <= out[3]
          && out[3] <= height))
        return 0;
    if (out[2] > column->max_edge)
        column->max_edge = out[2];
    if (out[3] > column->max_edge)
        column->max_edge = out[3];
    return 1;
}

/* The index among the n names of a field key, or -1. A key matched once is
 * kept in seen, so the key objects json.loads shares between the instances
 * of one document are then matched by identity. */
static int field_index(PyObject *key, const char *const *names, PyObject **seen, int n)
{
    for (int k = 0; k < n; k++)
        if (key == seen[k])
            return k;
    if (!PyUnicode_CheckExact(key))
        return -1;
    for (int k = 0; k < n; k++)
        if (PyUnicode_CompareWithASCIIString(key, names[k]) == 0) {
            seen[k] = key;
            return k;
        }
    return -1;
}

/* Fill the columns from raws, an exact list, or return 0 where _columns
 * returns False. No Python code runs here, so the borrowed references stay
 * valid throughout. */
static int pack(PyObject *raws, double width, double height, long max_class, int ground_truth,
                double *boxes, int8_t *classes, double *optional)
{
    const char *const names[3] = {"bbox", "class_id", ground_truth ? "content_bbox" : "score"};
    PyObject *seen[3] = {NULL, NULL, NULL}, *key, *value;
    struct box_column box_column = {0, 0.0}, content_column = {0, 0.0};
    Py_ssize_t n = PyList_GET_SIZE(raws), pos = 0;
    if (n == 0)
        return 1;
    /* the first instance decides whether every instance carries the optional field */
    PyObject *first = PyList_GET_ITEM(raws, 0);
    if (!PyDict_CheckExact(first))
        return 0;
    int n_fields = 2;
    while (PyDict_Next(first, &pos, &key, &value))
        if (field_index(key, names + 2, seen + 2, 1) == 0)
            n_fields = 3;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *raw = PyList_GET_ITEM(raws, i), *fields[3] = {NULL, NULL, NULL};
        /* dict keys are distinct, so n_fields keys that each name a field name every field once */
        if (!PyDict_CheckExact(raw) || PyDict_GET_SIZE(raw) != n_fields)
            return 0;
        for (pos = 0; PyDict_Next(raw, &pos, &key, &value);) {
            int k = field_index(key, names, seen, n_fields);
            if (k < 0)
                return 0;
            fields[k] = value;
        }
        if (!read_box(fields[0], width, height, boxes + 4 * i, &box_column))
            return 0;
        if (!PyLong_CheckExact(fields[1]))
            return 0;
        int overflow;
        long class_id = PyLong_AsLongAndOverflow(fields[1], &overflow);
        if (overflow || class_id < 0 || class_id > max_class)
            return 0;
        classes[i] = (int8_t)class_id;
        if (n_fields == 2)
            continue;
        if (ground_truth) {
            if (!read_box(fields[2], width, height, optional + 4 * i, &content_column))
                return 0;
        } else {
            int any_int = 0;
            if (!read_number(fields[2], &optional[i], &any_int) || !(0.0 <= optional[i] && optional[i] <= 1.0))
                return 0;
        }
    }
    return !(box_column.any_int && box_column.max_edge > (double)EXACT_INT)
        && !(content_column.any_int && content_column.max_edge > (double)EXACT_INT);
}

static PyObject *pack_columns(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *raws, *objs[3];
    double width, height;
    int max_class, ground_truth;
    Py_buffer views[3];
    int got = 0;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "O!ddipOOO:pack_columns", &PyList_Type, &raws, &width, &height, &max_class,
                          &ground_truth, &objs[0], &objs[1], &objs[2]))
        return NULL;
    if (get_buffer(objs[0], &views[0], "d", 8, 2, 4, 1) < 0)
        goto done;
    got++;
    if (get_buffer(objs[1], &views[1], "b", 1, 1, 0, 1) < 0)
        goto done;
    got++;
    if (get_buffer(objs[2], &views[2], "d", 8, ground_truth ? 2 : 1, ground_truth ? 4 : 0, 1) < 0)
        goto done;
    got++;
    Py_ssize_t n = PyList_GET_SIZE(raws);
    for (int k = 0; k < 3; k++)
        if (views[k].shape[0] != n) {
            PyErr_Format(PyExc_TypeError, "expected output buffers of %zd rows, got %zd", n, views[k].shape[0]);
            goto done;
        }
    result = PyBool_FromLong(pack(raws, width, height, max_class, ground_truth, views[0].buf, views[1].buf,
                                  views[2].buf));
done:
    while (got > 0)
        PyBuffer_Release(&views[--got]);
    return result;
}

/* --------------------------------------------------------- canonical parser */

/* The tag names, interned once at import. */
enum { TABLE, THEAD, TBODY, TR, TD, N_TAGS };
static const char *const tag_names[N_TAGS] = {"table", "thead", "tbody", "tr", "td"};
static PyObject *tags[N_TAGS];

struct cursor {
    const char *text;
    Py_ssize_t pos, len;
};

/* Step past literal when the text continues with it; 0 otherwise. */
static int take(struct cursor *c, const char *literal)
{
    size_t n = strlen(literal);
    if ((size_t)(c->len - c->pos) < n || memcmp(c->text + c->pos, literal, n) != 0)
        return 0;
    c->pos += (Py_ssize_t)n;
    return 1;
}

/* Step past a span value and its closing quote: a decimal number from 2 to
 * limit without a leading zero, the only values to_html writes. 0 for
 * anything else. */
static long take_span(struct cursor *c, long limit)
{
    long value = 0;
    if (c->pos == c->len || c->text[c->pos] < '1' || c->text[c->pos] > '9')
        return 0;
    while (c->pos < c->len && c->text[c->pos] >= '0' && c->text[c->pos] <= '9') {
        value = value * 10 + (c->text[c->pos++] - '0');
        if (value > limit)
            return 0;
    }
    return value > 1 && take(c, "\"") ? value : 0;
}

/* node_class(tag, colspan, rowspan, children); steals children, which may be NULL. */
static PyObject *make_node(PyObject *node_class, int tag, long colspan, long rowspan, PyObject *children)
{
    PyObject *result = NULL, *args[4] = {tags[tag], PyLong_FromLong(colspan), PyLong_FromLong(rowspan), children};
    if (children != NULL && args[1] != NULL && args[2] != NULL)
        result = PyObject_Vectorcall(node_class, args, 4, NULL);
    Py_XDECREF(args[1]);
    Py_XDECREF(args[2]);
    Py_XDECREF(children);
    return result;
}

/* One cell, <td>, with a colspan and then a rowspan attribute where they are
 * not 1, and </td> right after. NULL with *declined set for anything else. */
static PyObject *cell(struct cursor *c, PyObject *node_class, int *declined)
{
    long colspan = 1, rowspan = 1;
    if (!take(c, "<td") || (take(c, " colspan=\"") && !(colspan = take_span(c, 1000)))
        || (take(c, " rowspan=\"") && !(rowspan = take_span(c, 65534))) || !take(c, "></td>")) {
        *declined = 1;
        return NULL;
    }
    return make_node(node_class, TD, colspan, rowspan, PyList_New(0));
}

/* The children of an open table (tag TABLE), section (THEAD or TBODY) or
 * row (TR), up to and past the element's closing tag. A new list; NULL with
 * an exception set, or with *declined set and no exception. */
static PyObject *children(struct cursor *c, PyObject *node_class, int tag, int *declined)
{
    static const char *const closing[N_TAGS] = {"</table>", "</thead>", "</tbody>", "</tr>", NULL};
    PyObject *list = PyList_New(0), *child;
    while (list != NULL && !take(c, closing[tag])) {
        if (tag == TR)
            child = cell(c, node_class, declined);
        else if (tag == TABLE && take(c, "<thead>"))
            child = make_node(node_class, THEAD, 1, 1, children(c, node_class, THEAD, declined));
        else if (tag == TABLE && take(c, "<tbody>"))
            child = make_node(node_class, TBODY, 1, 1, children(c, node_class, TBODY, declined));
        else if (tag != TABLE && take(c, "<tr>"))
            child = make_node(node_class, TR, 1, 1, children(c, node_class, TR, declined));
        else {
            *declined = 1;
            child = NULL;
        }
        if (child == NULL || PyList_Append(list, child) < 0)
            Py_CLEAR(list);
        Py_XDECREF(child);
    }
    return list;
}

static PyObject *parse_canonical(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *fragment, *node_class;
    int declined = 0;
    if (!PyArg_ParseTuple(args, "OO:parse_canonical", &fragment, &node_class))
        return NULL;
    /* to_html writes ASCII only, so every other str is declined unread */
    if (!PyUnicode_CheckExact(fragment) || !PyUnicode_IS_ASCII(fragment))
        Py_RETURN_NONE;
    struct cursor c = {(const char *)PyUnicode_1BYTE_DATA(fragment), 0, PyUnicode_GET_LENGTH(fragment)};
    if (!take(&c, "<table>"))
        Py_RETURN_NONE;
    PyObject *root = make_node(node_class, TABLE, 1, 1, children(&c, node_class, TABLE, &declined));
    if (root != NULL && c.pos != c.len) {
        Py_CLEAR(root);
        declined = 1;
    }
    if (declined)
        Py_RETURN_NONE;
    return root;
}

static PyMethodDef methods[] = {
    {"tree_distance", tree_distance, METH_VARARGS,
     "tree_distance(lmld1, labels1, keyroots1, lmld2, labels2, keyroots2)\n--\n\n"
     "Minimal unit-cost edit distance between two flattened trees."},
    {"pack_columns", pack_columns, METH_VARARGS,
     "pack_columns(raws, width, height, max_class, ground_truth, boxes, classes, optional)\n--\n\n"
     "Fill the (n, 4) float64 boxes, the int8 classes and the optional column, (n,) float64 scores or,\n"
     "in ground truth, (n, 4) float64 content boxes, from an image's n parsed JSON instances and\n"
     "return True; return False, leaving them partly filled, where its twin tsrkit.formats._columns does."},
    {"parse_canonical", parse_canonical, METH_VARARGS,
     "parse_canonical(fragment, node_class)\n--\n\n"
     "The structure tree of fragment, built by calling node_class(tag, colspan, rowspan, children) for\n"
     "each node, when fragment is exactly what TableTree.to_html writes; None for any other argument."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_speedup", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__speedup(void)
{
    for (int k = 0; k < N_TAGS; k++)
        if (tags[k] == NULL && (tags[k] = PyUnicode_InternFromString(tag_names[k])) == NULL)
            return NULL;
    return PyModule_Create(&module);
}
