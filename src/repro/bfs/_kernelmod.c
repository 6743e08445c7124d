/* Compiled frontier kernel for the delayed-start shifted BFS.
 *
 * This module implements the two hot phases of
 * ``repro.bfs.delayed.delayed_multisource_bfs`` — frontier arc gathering
 * and the CRCW claim-resolution priority write — as one fused pass each
 * over raw C buffers, where the numpy engine sorts packed bid keys.
 *
 * Bit-exactness contract: a round's winner set is, per vertex, the
 * unique minimum ``(tie_key[center], center)`` pair over all bids.  The
 * numpy engine orders the same pairs by a per-BFS priority rank; the
 * comparisons here are the same IEEE-754 double comparisons (``-0.0 ==
 * 0.0``; NaN keys are rejected upstream), and winners are emitted in
 * ascending vertex order like the numpy engine's, so every intermediate
 * frontier matches bit for bit.  tests/test_conformance.py pins this.
 *
 * The module deliberately uses only the CPython buffer protocol — no
 * numpy C API — so it compiles against any numpy version the package
 * supports.  Arrays must be C-contiguous int64 (``l``/``q``) or float64
 * (``d``); the callers in ``repro.bfs.delayed`` guarantee that.
 *
 * All hot loops run with the GIL released.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* "no bid yet" sentinel in the best_center scratch array; real center ids
 * are vertex ids < n, so the sentinel can never win a comparison. */
#define NO_CENTER INT64_MAX

/* ------------------------------------------------------------------ */
/* buffer helpers                                                      */
/* ------------------------------------------------------------------ */

static int
get_buffer(PyObject *obj, Py_buffer *view, int writable, char kind,
           const char *name, void **data, Py_ssize_t *len)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a C-contiguous %s array%s", name,
                     kind == 'i' ? "int64" : "float64",
                     writable ? " (writable)" : "");
        return -1;
    }
    const char *fmt = view->format ? view->format : "B";
    int ok;
    if (kind == 'i')
        ok = view->itemsize == 8 && (fmt[0] == 'l' || fmt[0] == 'q') &&
             fmt[1] == '\0';
    else
        ok = view->itemsize == 8 && fmt[0] == 'd' && fmt[1] == '\0';
    if (!ok) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a C-contiguous %s array, got format '%s'",
                     name, kind == 'i' ? "int64" : "float64", fmt);
        PyBuffer_Release(view);
        return -1;
    }
    *data = view->buf;
    *len = view->len / 8;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the CRCW priority write: min (key, center) per vertex               */
/* ------------------------------------------------------------------ */

static inline Py_ssize_t
bid(int64_t v, double key, int64_t c, double *best_key,
    int64_t *best_center, int64_t *touched, Py_ssize_t n_touched)
{
    if (best_center[v] == NO_CENTER) {
        touched[n_touched++] = v;
        best_key[v] = key;
        best_center[v] = c;
    } else if (key < best_key[v] ||
               (key == best_key[v] && c < best_center[v])) {
        best_key[v] = key;
        best_center[v] = c;
    }
    return n_touched;
}

static int
cmp_int64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* ------------------------------------------------------------------ */
/* scatter_bids: wake-up + frontier-arc gathering, fused with the      */
/* priority write into the (best_key, best_center) scratch arrays      */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(scatter_bids_doc,
"scatter_bids(indptr, indices, frontier, waking, center, tie_key,\n"
"             best_key, best_center, touched) -> (n_touched, arcs, wake_bids)\n"
"\n"
"One round's gather phase: every still-unowned vertex in ``waking`` bids\n"
"for itself, every arc out of ``frontier`` bids for its unowned target on\n"
"behalf of the source's center.  Bids priority-write into the pristine\n"
"(best_key=+inf, best_center=NO_CENTER) scratch arrays; first-touched\n"
"vertices are appended to ``touched``.  Returns the number of touched\n"
"vertices, the number of arcs scanned, and the number of wake-up bids\n"
"(the round's work contributions).");

static PyObject *
py_scatter_bids(PyObject *self, PyObject *args)
{
    PyObject *o_indptr, *o_indices, *o_frontier, *o_waking, *o_center,
        *o_tie_key, *o_best_key, *o_best_center, *o_touched;
    if (!PyArg_ParseTuple(args, "OOOOOOOOO", &o_indptr, &o_indices,
                          &o_frontier, &o_waking, &o_center, &o_tie_key,
                          &o_best_key, &o_best_center, &o_touched))
        return NULL;

    Py_buffer b[9];
    int nb = 0;
    int64_t *indptr, *indices, *frontier, *waking, *center, *best_center,
        *touched;
    double *tie_key, *best_key;
    Py_ssize_t len_indptr, len_indices, len_frontier, len_waking, n,
        len_tie_key, len_best_key, len_best_center, len_touched;

#define GRAB(obj, writable, kind, name, ptr, len)                       \
    do {                                                                \
        if (get_buffer(obj, &b[nb], writable, kind, name,               \
                       (void **)(ptr), (len)) < 0)                      \
            goto fail;                                                  \
        nb++;                                                           \
    } while (0)

    GRAB(o_indptr, 0, 'i', "indptr", &indptr, &len_indptr);
    GRAB(o_indices, 0, 'i', "indices", &indices, &len_indices);
    GRAB(o_frontier, 0, 'i', "frontier", &frontier, &len_frontier);
    GRAB(o_waking, 0, 'i', "waking", &waking, &len_waking);
    GRAB(o_center, 0, 'i', "center", &center, &n);
    GRAB(o_tie_key, 0, 'd', "tie_key", &tie_key, &len_tie_key);
    GRAB(o_best_key, 1, 'd', "best_key", &best_key, &len_best_key);
    GRAB(o_best_center, 1, 'i', "best_center", &best_center,
         &len_best_center);
    GRAB(o_touched, 1, 'i', "touched", &touched, &len_touched);

    if (len_indptr != n + 1 || len_tie_key != n || len_best_key != n ||
        len_best_center != n || len_touched < n) {
        PyErr_SetString(PyExc_ValueError,
                        "scatter_bids: array lengths are inconsistent "
                        "with the vertex count");
        goto fail;
    }

    Py_ssize_t n_touched = 0;
    int64_t arcs = 0, wake_bids = 0;
    const char *err = NULL;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < len_waking; i++) {
        int64_t w = waking[i];
        if (w < 0 || w >= n) {
            err = "waking vertex id out of range";
            break;
        }
        if (center[w] != -1)
            continue;
        wake_bids++;
        n_touched = bid(w, tie_key[w], w, best_key, best_center, touched,
                        n_touched);
    }
    if (err == NULL) {
        for (Py_ssize_t i = 0; i < len_frontier; i++) {
            int64_t u = frontier[i];
            if (u < 0 || u >= n) {
                err = "frontier vertex id out of range";
                break;
            }
            int64_t c = center[u];
            if (c < 0 || c >= n) {
                err = "frontier vertex has no owner";
                break;
            }
            double key = tie_key[c];
            int64_t lo = indptr[u], hi = indptr[u + 1];
            if (lo < 0 || hi < lo || hi > len_indices) {
                err = "corrupt CSR offsets";
                break;
            }
            arcs += hi - lo;
            for (int64_t a = lo; a < hi; a++) {
                int64_t v = indices[a];
                if (v < 0 || v >= n) {
                    err = "arc target out of range";
                    break;
                }
                if (center[v] != -1)
                    continue;
                n_touched = bid(v, key, c, best_key, best_center, touched,
                                n_touched);
            }
            if (err != NULL)
                break;
        }
    }
    Py_END_ALLOW_THREADS

    if (err != NULL) {
        PyErr_SetString(PyExc_ValueError, err);
        goto fail;
    }
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return Py_BuildValue("nLL", n_touched, (long long)arcs,
                         (long long)wake_bids);

fail:
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* commit_winners: claim resolution commit + scratch reset             */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(commit_winners_doc,
"commit_winners(touched, n_touched, best_key, best_center, center,\n"
"               round_claimed, t, winners) -> n_winners\n"
"\n"
"One round's resolve phase: every touched vertex is claimed by its\n"
"winning bidder (``center``/``round_claimed`` are written in place),\n"
"winners are emitted into ``winners`` in ascending vertex order (the\n"
"order the numpy paths produce), and the touched scratch entries are\n"
"reset to their pristine state so the scratch can be reused next round.");

static PyObject *
py_commit_winners(PyObject *self, PyObject *args)
{
    PyObject *o_touched, *o_best_key, *o_best_center, *o_center,
        *o_round_claimed, *o_winners;
    Py_ssize_t n_touched;
    long long t;
    if (!PyArg_ParseTuple(args, "OnOOOOLO", &o_touched, &n_touched,
                          &o_best_key, &o_best_center, &o_center,
                          &o_round_claimed, &t, &o_winners))
        return NULL;

    Py_buffer b[6];
    int nb = 0;
    int64_t *touched, *best_center, *center, *round_claimed, *winners;
    double *best_key;
    Py_ssize_t len_touched, n, len_best_center, len_center, len_round,
        len_winners;

    GRAB(o_touched, 1, 'i', "touched", &touched, &len_touched);
    GRAB(o_best_key, 1, 'd', "best_key", &best_key, &n);
    GRAB(o_best_center, 1, 'i', "best_center", &best_center,
         &len_best_center);
    GRAB(o_center, 1, 'i', "center", &center, &len_center);
    GRAB(o_round_claimed, 1, 'i', "round_claimed", &round_claimed,
         &len_round);
    GRAB(o_winners, 1, 'i', "winners", &winners, &len_winners);

    if (n_touched < 0 || n_touched > len_touched || len_winners < n_touched ||
        len_best_center != n || len_center != n || len_round != n) {
        PyErr_SetString(PyExc_ValueError,
                        "commit_winners: array lengths are inconsistent");
        goto fail;
    }
    const char *err = NULL;
    Py_BEGIN_ALLOW_THREADS
    qsort(touched, (size_t)n_touched, sizeof(int64_t), cmp_int64);
    for (Py_ssize_t i = 0; i < n_touched; i++) {
        int64_t v = touched[i];
        if (v < 0 || v >= n) {
            err = "touched vertex id out of range";
            break;
        }
        center[v] = best_center[v];
        round_claimed[v] = (int64_t)t;
        winners[i] = v;
        best_key[v] = INFINITY;
        best_center[v] = NO_CENTER;
    }
    Py_END_ALLOW_THREADS
    if (err != NULL) {
        PyErr_SetString(PyExc_ValueError, err);
        goto fail;
    }
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return PyLong_FromSsize_t(n_touched);

fail:
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* standalone resolve_claims: the public CRCW priority write           */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(resolve_claims_doc,
"resolve_claims(cand_vertex, cand_center, tie_key, best_key, best_center,\n"
"               touched, winners, owners) -> n_winners\n"
"\n"
"Resolve a candidate multiset in one pass: per vertex the minimum\n"
"``(tie_key[center], center)`` pair wins.  Winners (ascending) and their\n"
"owners are written into the output buffers; the scratch arrays are left\n"
"pristine.  Bit-identical to both numpy implementations in\n"
"``repro.bfs.delayed.resolve_claims``.");

static PyObject *
py_resolve_claims(PyObject *self, PyObject *args)
{
    PyObject *o_cand_v, *o_cand_c, *o_tie_key, *o_best_key, *o_best_center,
        *o_touched, *o_winners, *o_owners;
    if (!PyArg_ParseTuple(args, "OOOOOOOO", &o_cand_v, &o_cand_c,
                          &o_tie_key, &o_best_key, &o_best_center,
                          &o_touched, &o_winners, &o_owners))
        return NULL;

    Py_buffer b[8];
    int nb = 0;
    int64_t *cand_v, *cand_c, *best_center, *touched, *winners, *owners;
    double *tie_key, *best_key;
    Py_ssize_t len_cand, len_cand_c, len_tie_key, n, len_best_center,
        len_touched, len_winners, len_owners;

    GRAB(o_cand_v, 0, 'i', "cand_vertex", &cand_v, &len_cand);
    GRAB(o_cand_c, 0, 'i', "cand_center", &cand_c, &len_cand_c);
    GRAB(o_tie_key, 0, 'd', "tie_key", &tie_key, &len_tie_key);
    GRAB(o_best_key, 1, 'd', "best_key", &best_key, &n);
    GRAB(o_best_center, 1, 'i', "best_center", &best_center,
         &len_best_center);
    GRAB(o_touched, 1, 'i', "touched", &touched, &len_touched);
    GRAB(o_winners, 1, 'i', "winners", &winners, &len_winners);
    GRAB(o_owners, 1, 'i', "owners", &owners, &len_owners);

    Py_ssize_t cap = len_cand < n ? len_cand : n;
    if (len_cand_c != len_cand || len_best_center != n || len_touched < cap ||
        len_winners < cap || len_owners < cap) {
        PyErr_SetString(PyExc_ValueError,
                        "resolve_claims: array lengths are inconsistent");
        goto fail;
    }

    Py_ssize_t n_touched = 0;
    const char *err = NULL;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < len_cand; i++) {
        int64_t v = cand_v[i], c = cand_c[i];
        if (v < 0 || v >= n) {
            err = "candidate vertex id out of range";
            break;
        }
        if (c < 0 || c >= len_tie_key) {
            err = "candidate center id out of range";
            break;
        }
        n_touched = bid(v, tie_key[c], c, best_key, best_center, touched,
                        n_touched);
    }
    if (err == NULL) {
        qsort(touched, (size_t)n_touched, sizeof(int64_t), cmp_int64);
        for (Py_ssize_t i = 0; i < n_touched; i++) {
            int64_t v = touched[i];
            winners[i] = v;
            owners[i] = best_center[v];
            best_key[v] = INFINITY;
            best_center[v] = NO_CENTER;
        }
    }
    Py_END_ALLOW_THREADS

    if (err != NULL) {
        /* leave no stale scratch behind: reset everything we touched */
        for (Py_ssize_t i = 0; i < n_touched; i++) {
            int64_t v = touched[i];
            if (v >= 0 && v < n) {
                best_key[v] = INFINITY;
                best_center[v] = NO_CENTER;
            }
        }
        PyErr_SetString(PyExc_ValueError, err);
        goto fail;
    }
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return PyLong_FromSsize_t(n_touched);

fail:
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return NULL;
}

#undef GRAB

/* ------------------------------------------------------------------ */
/* module scaffolding                                                  */
/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"scatter_bids", py_scatter_bids, METH_VARARGS, scatter_bids_doc},
    {"commit_winners", py_commit_winners, METH_VARARGS, commit_winners_doc},
    {"resolve_claims", py_resolve_claims, METH_VARARGS, resolve_claims_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(module_doc,
"Compiled frontier kernel for the delayed-start shifted BFS.\n"
"\n"
"Internal module — use :mod:`repro.bfs.kernels` for dispatch and\n"
":func:`repro.bfs.delayed.delayed_multisource_bfs` with ``kernel=...``\n"
"for the user-facing switch.");

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.bfs._kernel",
    module_doc,
    0,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
