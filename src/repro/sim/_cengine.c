/* The C engine of repro.sim: run loop, port and queue.
 *
 * Used exactly when it is built (see repro/sim/backend.py, the only
 * Python module that imports it).  ALL authoritative simulator state
 * lives in plain attributes on the Simulator instance — the heap list
 * (`_heap`), the sequence counter (`_seq`), the clock (`now`), the stop
 * flag (`_stopped`), the dead-entry count (`_dead`) and the lifetime
 * event count (`_events_executed`).  This module never keeps shadow
 * copies: it reads and writes the instance __dict__ with interned keys,
 * so the pure-Python scheduling and handle API (schedule/after,
 * schedule_handle, rearm, step, compaction) interleaves freely with the
 * C paths and both engines stay bit-identical.
 *
 * Four things are provided:
 *
 *   run_loop(sim, until, limit, dispatch) -> int
 *       The drain loop, semantically identical to
 *       backend._python_run_loop: batched same-timestamp dispatch,
 *       horizon push-back, lazy cancel/re-arm handling, partial event
 *       counts folded into _events_executed even on callback exceptions.
 *
 *   SimRef(sim)
 *       Per-simulator state shared by the loop and every CPort of that
 *       simulator (backend.attach stores it as sim._cref): the heap
 *       push CPort schedules through, the clock cache the loop
 *       publishes each timestamp to, and the stop flag behind the
 *       bound sim.stop().
 *
 *   CQueue(capacity_bytes)
 *       The per-packet queue arithmetic of net.queue.DropTailQueue in
 *       C: a ring buffer plus the byte/packet counters, ECN threshold
 *       compare, and the rare-path hooks (flight recorder,
 *       on_backlog_change) with identical semantics.  net.queue
 *       subclasses it into DropTailQueue/EcnQueue when the extension
 *       imports, and keeps the pure-Python classes as the fallback.
 *
 *   CPort(device, index, rate_bps, queue, sim, ser_table, simref)
 *       The transmit chain of net.device.Port in C: send -> enqueue ->
 *       serialize (per-size table) -> the arrival entry, which calls
 *       the peer device's receive(packet, peer) directly, scheduling
 *       follow-ups by pushing heap entries through the SimRef push.
 *       Event entries, counter updates, and PFC pause/park semantics
 *       are bit-identical to the Python Port (same push order, same seq
 *       consumption), so simulations agree packet-for-packet whether
 *       or not the extension is present.  CPort calls the C queue
 *       implementation directly — Python-level overrides of
 *       enqueue/dequeue on a CQueue subclass are not consulted.
 *
 * Heap entries are 4-tuples ordered by (time_ps, seq); both are Python
 * ints that fit in long long for any realistic simulation (2^63 ps is
 * over 100 days of sim time).  Comparisons extract the two leading
 * slots as long long; on overflow they fall back to tuple rich
 * comparison, which is exactly what heapq would have done.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* ---- module state (single-phase init; simple C globals) -------------- */

static PyObject *g_handle_marker;   /* repro.sim.backend.HANDLE */
static PyObject *g_config_error;    /* repro.errors.ConfigError */

/* ECN constants from repro.net.packet, loaded lazily on the first
 * threshold crossing (by which point the packet module is necessarily
 * imported — a Packet instance is in hand — so no import cycles). */
static PyObject *g_ce_obj;          /* packet.CE as a Python int */
static long long g_ect_ll;

static PyObject *k_heap, *k_seq_ctr, *k_now, *k_stopped, *k_dead,
    *k_events_executed, *k_cref;    /* interned dict keys on sim.__dict__ */
static PyObject *a_seq, *a_target_ps, *a_time_ps, *a_fn, *a_args;
                                    /* interned EventHandle attr names */

/* ---- heap primitives -------------------------------------------------- */

/* -1 error, 0 false, 1 true for a < b over (time, seq). */
static int
entry_lt(PyObject *a, PyObject *b)
{
    long long at, bt;
    at = PyLong_AsLongLong(PyTuple_GET_ITEM(a, 0));
    if (at == -1 && PyErr_Occurred())
        goto fallback;
    bt = PyLong_AsLongLong(PyTuple_GET_ITEM(b, 0));
    if (bt == -1 && PyErr_Occurred())
        goto fallback;
    if (at != bt)
        return at < bt;
    at = PyLong_AsLongLong(PyTuple_GET_ITEM(a, 1));
    if (at == -1 && PyErr_Occurred())
        goto fallback;
    bt = PyLong_AsLongLong(PyTuple_GET_ITEM(b, 1));
    if (bt == -1 && PyErr_Occurred())
        goto fallback;
    return at < bt;
fallback:
    if (!PyErr_ExceptionMatches(PyExc_OverflowError) &&
        !PyErr_ExceptionMatches(PyExc_TypeError))
        return -1;
    PyErr_Clear();
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heapq.heappush equivalent.  0 on success, -1 on error. */
static int
heap_push(PyObject *heap, PyObject *item)
{
    Py_ssize_t pos, parent;
    PyObject **ob_item;
    if (PyList_Append(heap, item) < 0)
        return -1;
    pos = PyList_GET_SIZE(heap) - 1;
    ob_item = ((PyListObject *)heap)->ob_item;
    while (pos > 0) {
        int lt;
        parent = (pos - 1) >> 1;
        lt = entry_lt(ob_item[pos], ob_item[parent]);
        if (lt < 0)
            return -1;
        if (!lt)
            break;
        PyObject *tmp = ob_item[pos];
        ob_item[pos] = ob_item[parent];
        ob_item[parent] = tmp;
        pos = parent;
    }
    return 0;
}

/* heapq.heappop equivalent.  New reference, or NULL on error/empty
 * (empty sets IndexError only if raise_empty). */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject **ob_item = ((PyListObject *)heap)->ob_item;
    PyObject *last, *result;

    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from empty heap");
        return NULL;
    }
    /* Detach the final element by shrinking the size in place (the
     * allocation is retained — the heap regrows constantly, and the
     * list object's identity must be preserved anyway).  We steal the
     * reference the list held. */
    last = ob_item[n - 1];
    Py_SET_SIZE(heap, n - 1);
    n -= 1;
    if (n == 0)
        return last;

    result = ob_item[0];          /* steal root out, sift `last` down   */
    Py_INCREF(result);
    Py_DECREF(ob_item[0]);
    ob_item[0] = last;            /* heap owns `last`'s earlier INCREF  */

    /* _siftup(heap, 0): walk smaller child up, then place `last`. */
    {
        Py_ssize_t pos = 0, child;
        while ((child = 2 * pos + 1) < n) {
            Py_ssize_t right = child + 1;
            int lt;
            if (right < n) {
                lt = entry_lt(ob_item[right], ob_item[child]);
                if (lt < 0)
                    goto error;
                if (lt)
                    child = right;
            }
            lt = entry_lt(ob_item[child], ob_item[pos]);
            if (lt < 0)
                goto error;
            if (!lt)
                break;
            PyObject *tmp = ob_item[pos];
            ob_item[pos] = ob_item[child];
            ob_item[child] = tmp;
            pos = child;
        }
    }
    return result;
error:
    Py_DECREF(result);
    return NULL;
}

/* ---- small dict helpers ----------------------------------------------- */

static int
dict_get_ll(PyObject *dict, PyObject *key, long long *out)
{
    PyObject *v = PyDict_GetItemWithError(dict, key);   /* borrowed */
    if (v == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_AttributeError,
                         "simulator state missing %U", key);
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
dict_set_ll(PyObject *dict, PyObject *key, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyDict_SetItem(dict, key, v);
    Py_DECREF(v);
    return rc;
}

static int
dict_add_ll(PyObject *dict, PyObject *key, long long delta)
{
    long long v;
    if (dict_get_ll(dict, key, &v) < 0)
        return -1;
    return dict_set_ll(dict, key, v + delta);
}

/* ---- SimRef struct (methods further down) ------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *dict;    /* the Simulator instance __dict__ */
    PyObject *heap;    /* the Simulator's _heap list      */
    /* Clock cache, valid only while run_loop is live on this simulator:
     * the loop publishes each distinct timestamp here so CPort skips
     * the `now` dict lookup and int conversion.  The dict stays
     * authoritative for everything outside the loop. */
    int now_valid;
    long long now_ll;
    /* Mirror of `_stopped`, maintained by the rebound ``stop()`` so the
     * run loop checks a plain int per event instead of a dict lookup.
     * The dict copy is always written too; this flag is just a fast
     * read path, reset at every run_loop entry (run() clears the dict
     * copy right before). */
    int stop_flag;
} SimRefObject;

static PyTypeObject SimRefType;

/* ---- the run loop ------------------------------------------------------ */

/* Mirrors backend._python_run_loop; see that function for the
 * semantics discussion.  Returns events executed this call. */
static PyObject *
cengine_run_loop(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *sim, *dispatch, *dict = NULL, *heap = NULL, *entry = NULL;
    SimRefObject *cref = NULL;
    long long until, limit, executed = 0;
    int failed = 0;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "run_loop(sim, until, limit, dispatch)");
        return NULL;
    }
    sim = args[0];
    until = PyLong_AsLongLong(args[1]);
    if (until == -1 && PyErr_Occurred())
        return NULL;
    limit = PyLong_AsLongLong(args[2]);
    if (limit == -1 && PyErr_Occurred())
        return NULL;
    dispatch = args[3];

    dict = PyObject_GetAttrString(sim, "__dict__");
    if (dict == NULL || !PyDict_Check(dict))
        goto fail;
    heap = PyDict_GetItemWithError(dict, k_heap);       /* borrowed */
    if (heap == NULL || !PyList_Check(heap)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError, "simulator has no _heap");
        goto fail;
    }
    Py_INCREF(heap);

    /* backend.attach hung the simulator's SimRef off it: the loop
     * publishes each timestamp there (CPort's clock cache) and reads
     * the stop flag that the bound stop() sets. */
    {
        PyObject *cref_obj = PyDict_GetItemWithError(dict, k_cref);
        if (cref_obj == NULL || Py_TYPE(cref_obj) != &SimRefType) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError,
                                "simulator has no SimRef in _cref");
            goto fail;
        }
        cref = (SimRefObject *)cref_obj;
        Py_INCREF(cref);
        /* run() cleared sim._stopped just before entering. */
        cref->stop_flag = 0;
    }

    while (PyList_GET_SIZE(heap) > 0) {
        long long time_ps;

        entry = heap_pop(heap);
        if (entry == NULL)
            goto fail;
        time_ps = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
        if (time_ps == -1 && PyErr_Occurred())
            goto fail;
        if (time_ps > until) {
            /* Past the horizon: push the entry back (same seq) and stop. */
            if (heap_push(heap, entry) < 0)
                goto fail;
            Py_CLEAR(entry);
            break;
        }
        /* sim.now = time_ps (reuse the entry's int object). */
        if (PyDict_SetItem(dict, k_now, PyTuple_GET_ITEM(entry, 0)) < 0)
            goto fail;
        cref->now_ll = time_ps;
        cref->now_valid = 1;

        for (;;) {
            PyObject *eargs = PyTuple_GET_ITEM(entry, 3);
            if (eargs != g_handle_marker) {
                PyObject *fn = PyTuple_GET_ITEM(entry, 2);
                PyObject *res;
                if (dispatch == Py_None)
                    res = PyTuple_GET_SIZE(eargs) == 0
                              ? PyObject_CallNoArgs(fn)
                              : PyObject_CallObject(fn, eargs);
                else
                    res = PyObject_CallFunctionObjArgs(dispatch, fn, eargs,
                                                       NULL);
                if (res == NULL)
                    goto fail;
                Py_DECREF(res);
                executed++;
            }
            else {
                PyObject *handle = PyTuple_GET_ITEM(entry, 2);
                PyObject *hseq_obj = PyObject_GetAttr(handle, a_seq);
                long long hseq, eseq;
                if (hseq_obj == NULL)
                    goto fail;
                hseq = PyLong_AsLongLong(hseq_obj);
                Py_DECREF(hseq_obj);
                if (hseq == -1 && PyErr_Occurred())
                    goto fail;
                eseq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
                if (eseq == -1 && PyErr_Occurred())
                    goto fail;
                if (hseq != eseq) {
                    /* Lazily cancelled/superseded: skip silently. */
                    if (dict_add_ll(dict, k_dead, -1) < 0)
                        goto fail;
                }
                else {
                    PyObject *target_obj =
                        PyObject_GetAttr(handle, a_target_ps);
                    long long target;
                    if (target_obj == NULL)
                        goto fail;
                    target = PyLong_AsLongLong(target_obj);
                    if (target == -1 && PyErr_Occurred()) {
                        Py_DECREF(target_obj);
                        goto fail;
                    }
                    if (target > time_ps) {
                        /* Lazy re-arm: push the reused entry at its new
                         * time with a fresh seq. */
                        long long seq;
                        PyObject *seq_obj, *rearm;
                        if (dict_get_ll(dict, k_seq_ctr, &seq) < 0 ||
                            dict_set_ll(dict, k_seq_ctr, seq + 1) < 0) {
                            Py_DECREF(target_obj);
                            goto fail;
                        }
                        seq_obj = PyLong_FromLongLong(seq);
                        if (seq_obj == NULL) {
                            Py_DECREF(target_obj);
                            goto fail;
                        }
                        if (PyObject_SetAttr(handle, a_seq, seq_obj) < 0 ||
                            PyObject_SetAttr(handle, a_time_ps,
                                             target_obj) < 0) {
                            Py_DECREF(seq_obj);
                            Py_DECREF(target_obj);
                            goto fail;
                        }
                        rearm = PyTuple_Pack(4, target_obj, seq_obj, handle,
                                             g_handle_marker);
                        Py_DECREF(seq_obj);
                        Py_DECREF(target_obj);
                        if (rearm == NULL)
                            goto fail;
                        if (heap_push(heap, rearm) < 0) {
                            Py_DECREF(rearm);
                            goto fail;
                        }
                        Py_DECREF(rearm);
                    }
                    else {
                        PyObject *fn, *hargs, *res, *neg;
                        Py_DECREF(target_obj);
                        neg = PyLong_FromLong(-1);
                        if (neg == NULL)
                            goto fail;
                        if (PyObject_SetAttr(handle, a_seq, neg) < 0) {
                            Py_DECREF(neg);
                            goto fail;
                        }
                        Py_DECREF(neg);
                        fn = PyObject_GetAttr(handle, a_fn);
                        if (fn == NULL)
                            goto fail;
                        hargs = PyObject_GetAttr(handle, a_args);
                        if (hargs == NULL) {
                            Py_DECREF(fn);
                            goto fail;
                        }
                        if (dispatch == Py_None)
                            res = PyTuple_GET_SIZE(hargs) == 0
                                      ? PyObject_CallNoArgs(fn)
                                      : PyObject_CallObject(fn, hargs);
                        else
                            res = PyObject_CallFunctionObjArgs(dispatch, fn,
                                                               hargs, NULL);
                        Py_DECREF(fn);
                        Py_DECREF(hargs);
                        if (res == NULL)
                            goto fail;
                        Py_DECREF(res);
                        executed++;
                    }
                }
            }

            /* Post-event checks: stop()/budget, then same-timestamp
             * batching without re-storing the clock. */
            if (cref->stop_flag || executed == limit)
                goto done;
            if (PyList_GET_SIZE(heap) == 0)
                break;
            {
                PyObject *root = PyList_GET_ITEM(heap, 0);
                long long root_time =
                    PyLong_AsLongLong(PyTuple_GET_ITEM(root, 0));
                if (root_time == -1 && PyErr_Occurred())
                    goto fail;
                if (root_time != time_ps)
                    break;
            }
            Py_CLEAR(entry);
            entry = heap_pop(heap);
            if (entry == NULL)
                goto fail;
        }
        Py_CLEAR(entry);
    }
    goto done;

fail:
    failed = 1;
done:
    Py_CLEAR(entry);
    if (cref != NULL) {
        /* The clock cache is only valid while this loop is live. */
        cref->now_valid = 0;
        Py_DECREF(cref);
    }
    if (dict != NULL && executed != 0) {
        /* Fold partial counts in even on failure (historical run()
         * contract).  Preserve any pending exception across it. */
        PyObject *t, *v, *tb;
        PyErr_Fetch(&t, &v, &tb);
        if (dict_add_ll(dict, k_events_executed, executed) < 0) {
            if (t == NULL)
                PyErr_Fetch(&t, &v, &tb);   /* keep the fold error */
            else
                PyErr_Clear();
        }
        PyErr_Restore(t, v, tb);
        if (t != NULL)
            failed = 1;
    }
    Py_XDECREF(heap);
    Py_XDECREF(dict);
    if (failed)
        return NULL;
    return PyLong_FromLongLong(executed);
}

/* ---- SimRef: per-instance C scheduling fast paths ---------------------- */

static int
simref_traverse(SimRefObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->dict);
    Py_VISIT(self->heap);
    return 0;
}

static int
simref_clear_slots(SimRefObject *self)
{
    Py_CLEAR(self->dict);
    Py_CLEAR(self->heap);
    return 0;
}

static void
simref_dealloc(SimRefObject *self)
{
    PyObject_GC_UnTrack(self);
    simref_clear_slots(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
simref_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *dict, *heap;
    SimRefObject *self;
    static char *kwlist[] = {"sim", NULL};

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &sim))
        return NULL;
    dict = PyObject_GetAttrString(sim, "__dict__");
    if (dict == NULL)
        return NULL;
    if (!PyDict_Check(dict)) {
        Py_DECREF(dict);
        PyErr_SetString(PyExc_TypeError, "sim.__dict__ is not a dict");
        return NULL;
    }
    heap = PyDict_GetItemWithError(dict, k_heap);       /* borrowed */
    if (heap == NULL || !PyList_Check(heap)) {
        Py_DECREF(dict);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "simulator has no _heap list");
        return NULL;
    }
    self = (SimRefObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        Py_DECREF(dict);
        return NULL;
    }
    self->dict = dict;                 /* already a new reference */
    Py_INCREF(heap);
    self->heap = heap;
    self->now_valid = 0;
    self->now_ll = 0;
    self->stop_flag = 0;
    return (PyObject *)self;
}

/* Push (time, seq, fn, args[0..n)) and bump _seq: the entry
 * Simulator.at would push.  `time_obj` is a borrowed reference.
 * 0 on success, -1 on error. */
static int
simref_push(SimRefObject *self, PyObject *time_obj, PyObject *fn,
            PyObject *const *args, Py_ssize_t n)
{
    long long seq;
    PyObject *seq_obj, *fnargs, *entry;
    Py_ssize_t i;

    if (dict_get_ll(self->dict, k_seq_ctr, &seq) < 0)
        return -1;
    seq_obj = PyLong_FromLongLong(seq);
    if (seq_obj == NULL)
        return -1;
    fnargs = PyTuple_New(n);
    if (fnargs == NULL) {
        Py_DECREF(seq_obj);
        return -1;
    }
    for (i = 0; i < n; i++) {
        PyObject *a = args[i];
        Py_INCREF(a);
        PyTuple_SET_ITEM(fnargs, i, a);
    }
    entry = PyTuple_New(4);
    if (entry == NULL) {
        Py_DECREF(seq_obj);
        Py_DECREF(fnargs);
        return -1;
    }
    Py_INCREF(time_obj);
    PyTuple_SET_ITEM(entry, 0, time_obj);
    PyTuple_SET_ITEM(entry, 1, seq_obj);    /* stolen */
    Py_INCREF(fn);
    PyTuple_SET_ITEM(entry, 2, fn);
    PyTuple_SET_ITEM(entry, 3, fnargs);     /* stolen */
    if (heap_push(self->heap, entry) < 0) {
        Py_DECREF(entry);
        return -1;
    }
    Py_DECREF(entry);
    /* _seq += 1: only bump after the push succeeded, mirroring
     * Simulator.at. */
    return dict_set_ll(self->dict, k_seq_ctr, seq + 1);
}

/* stop() — sets the C fast flag AND the dict copy (Python readers). */
static PyObject *
simref_stop(SimRefObject *self, PyObject *Py_UNUSED(ignored))
{
    self->stop_flag = 1;
    if (PyDict_SetItem(self->dict, k_stopped, Py_True) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef simref_methods[] = {
    {"stop", (PyCFunction)simref_stop,
     METH_NOARGS, "stop() — C fast path"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SimRefType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.SimRef",
    .tp_basicsize = sizeof(SimRefObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Per-simulator heap push, clock cache and stop flag",
    .tp_new = simref_new,
    .tp_dealloc = (destructor)simref_dealloc,
    .tp_traverse = (traverseproc)simref_traverse,
    .tp_clear = (inquiry)simref_clear_slots,
    .tp_methods = simref_methods,
};

/* ---- CQueue: DropTailQueue arithmetic in C ----------------------------- */

#include <structmember.h>

typedef struct {
    PyObject_HEAD
    /* FIFO ring buffer of owned packet references. */
    PyObject **ring;
    Py_ssize_t ring_cap, head, count;
    long long capacity_bytes, backlog_bytes;
    long long enqueued_packets, enqueued_bytes;
    long long dequeued_packets, dequeued_bytes;
    long long dropped_packets, dropped_bytes;
    long long ecn_marked_packets, max_backlog_bytes;
    /* CE-mark threshold: the exposed object (None or int) plus the
     * unpacked fast-path pair kept in sync by the getset setter. */
    PyObject *ecn_obj;
    long long ecn_thr;
    int ecn_on;
    PyObject *on_backlog_change;    /* None or callable(backlog)       */
    PyObject *flight;               /* _flight: None or FlightRecorder */
    PyObject *flight_label;
    PyObject *stats;                /* set by the Python wrapper       */
} CQueueObject;

static PyTypeObject CQueueType;

static int
ensure_ecn_consts(void)
{
    PyObject *m, *ect, *ce;
    if (g_ce_obj != NULL)
        return 0;
    m = PyImport_ImportModule("repro.net.packet");
    if (m == NULL)
        return -1;
    ect = PyObject_GetAttrString(m, "ECT");
    ce = PyObject_GetAttrString(m, "CE");
    Py_DECREF(m);
    if (ect == NULL || ce == NULL) {
        Py_XDECREF(ect);
        Py_XDECREF(ce);
        return -1;
    }
    g_ect_ll = PyLong_AsLongLong(ect);
    Py_DECREF(ect);
    if (g_ect_ll == -1 && PyErr_Occurred()) {
        Py_DECREF(ce);
        return -1;
    }
    g_ce_obj = ce;                  /* publish last: the readiness flag */
    return 0;
}

static int
attr_as_ll(PyObject *obj, const char *name, long long *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* flight.note("queue", event, queue=label, [size_bytes=...,]
 * backlog_bytes=..., flow=packet.flow_id) — the rare-path hook. */
static int
cq_flight_note(CQueueObject *q, const char *event, long long size_bytes,
               int have_size, long long backlog, PyObject *packet)
{
    PyObject *meth = NULL, *args = NULL, *kwargs = NULL, *v = NULL,
        *flow = NULL, *res = NULL;
    int rc = -1;

    meth = PyObject_GetAttrString(q->flight, "note");
    if (meth == NULL)
        goto done;
    args = Py_BuildValue("(ss)", "queue", event);
    kwargs = PyDict_New();
    if (args == NULL || kwargs == NULL)
        goto done;
    if (PyDict_SetItemString(kwargs, "queue", q->flight_label) < 0)
        goto done;
    if (have_size) {
        v = PyLong_FromLongLong(size_bytes);
        if (v == NULL || PyDict_SetItemString(kwargs, "size_bytes", v) < 0)
            goto done;
        Py_CLEAR(v);
    }
    v = PyLong_FromLongLong(backlog);
    if (v == NULL || PyDict_SetItemString(kwargs, "backlog_bytes", v) < 0)
        goto done;
    Py_CLEAR(v);
    flow = PyObject_GetAttrString(packet, "flow_id");
    if (flow == NULL || PyDict_SetItemString(kwargs, "flow", flow) < 0)
        goto done;
    res = PyObject_Call(meth, args, kwargs);
    if (res == NULL)
        goto done;
    rc = 0;
done:
    Py_XDECREF(meth);
    Py_XDECREF(args);
    Py_XDECREF(kwargs);
    Py_XDECREF(v);
    Py_XDECREF(flow);
    Py_XDECREF(res);
    return rc;
}

static int
cq_ring_grow(CQueueObject *q)
{
    Py_ssize_t new_cap = q->ring_cap ? q->ring_cap * 2 : 8;
    PyObject **fresh = PyMem_New(PyObject *, new_cap);
    Py_ssize_t i;
    if (fresh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < q->count; i++)
        fresh[i] = q->ring[(q->head + i) % q->ring_cap];
    PyMem_Free(q->ring);
    q->ring = fresh;
    q->ring_cap = new_cap;
    q->head = 0;
    return 0;
}

/* Core enqueue: -1 error, 0 dropped, 1 accepted.  Mirrors
 * DropTailQueue.enqueue statement for statement. */
static int
cq_enqueue_impl(CQueueObject *q, PyObject *packet)
{
    long long size, backlog;

    if (attr_as_ll(packet, "size_bytes", &size) < 0)
        return -1;
    backlog = q->backlog_bytes + size;
    if (backlog > q->capacity_bytes) {
        q->dropped_packets += 1;
        q->dropped_bytes += size;
        if (q->flight != Py_None && q->flight != NULL) {
            if (cq_flight_note(q, "drop", size, 1, q->backlog_bytes,
                               packet) < 0)
                return -1;
        }
        return 0;
    }
    if (q->count == q->ring_cap && cq_ring_grow(q) < 0)
        return -1;
    Py_INCREF(packet);
    q->ring[(q->head + q->count) % q->ring_cap] = packet;
    q->count += 1;
    q->backlog_bytes = backlog;
    if (q->ecn_on && backlog >= q->ecn_thr) {
        if (ensure_ecn_consts() < 0)
            return -1;
        /* Only an ECT -> CE transition marks (and counts). */
        long long ecn;
        if (attr_as_ll(packet, "ecn", &ecn) < 0)
            return -1;
        if (ecn == g_ect_ll) {
            if (PyObject_SetAttrString(packet, "ecn", g_ce_obj) < 0)
                return -1;
            q->ecn_marked_packets += 1;
            if (q->flight != Py_None && q->flight != NULL &&
                cq_flight_note(q, "ecn_mark", 0, 0, backlog, packet) < 0)
                return -1;
        }
    }
    q->enqueued_packets += 1;
    q->enqueued_bytes += size;
    if (backlog > q->max_backlog_bytes)
        q->max_backlog_bytes = backlog;
    if (q->on_backlog_change != Py_None && q->on_backlog_change != NULL) {
        PyObject *bl = PyLong_FromLongLong(backlog);
        PyObject *res;
        if (bl == NULL)
            return -1;
        res = PyObject_CallFunctionObjArgs(q->on_backlog_change, bl, NULL);
        Py_DECREF(bl);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    return 1;
}

/* Core dequeue: new reference (size written to *size_out), or NULL with
 * no exception set when empty, NULL with an exception on error. */
static PyObject *
cq_dequeue_impl(CQueueObject *q, long long *size_out)
{
    PyObject *packet;
    long long size, backlog;

    if (q->count == 0)
        return NULL;
    packet = q->ring[q->head];          /* take over the ring's ref */
    q->ring[q->head] = NULL;
    q->head = (q->head + 1) % q->ring_cap;
    q->count -= 1;
    if (attr_as_ll(packet, "size_bytes", &size) < 0) {
        Py_DECREF(packet);
        return NULL;
    }
    backlog = q->backlog_bytes - size;
    q->backlog_bytes = backlog;
    q->dequeued_packets += 1;
    q->dequeued_bytes += size;
    if (q->on_backlog_change != Py_None && q->on_backlog_change != NULL) {
        PyObject *bl = PyLong_FromLongLong(backlog);
        PyObject *res;
        if (bl == NULL) {
            Py_DECREF(packet);
            return NULL;
        }
        res = PyObject_CallFunctionObjArgs(q->on_backlog_change, bl, NULL);
        Py_DECREF(bl);
        if (res == NULL) {
            Py_DECREF(packet);
            return NULL;
        }
        Py_DECREF(res);
    }
    if (size_out != NULL)
        *size_out = size;
    return packet;
}

static PyObject *
cqueue_enqueue(CQueueObject *self, PyObject *packet)
{
    int rc = cq_enqueue_impl(self, packet);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

static PyObject *
cqueue_dequeue(CQueueObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *packet = cq_dequeue_impl(self, NULL);
    if (packet == NULL) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;
    }
    return packet;
}

static int
cqueue_init(CQueueObject *self, PyObject *args, PyObject *kwds)
{
    long long capacity;
    static char *kwlist[] = {"capacity_bytes", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L", kwlist, &capacity))
        return -1;
    if (capacity <= 0) {
        PyErr_Format(PyExc_ValueError,
                     "capacity must be positive, got %lld", capacity);
        return -1;
    }
    self->capacity_bytes = capacity;
    Py_XSETREF(self->ecn_obj, Py_NewRef(Py_None));
    self->ecn_on = 0;
    Py_XSETREF(self->on_backlog_change, Py_NewRef(Py_None));
    Py_XSETREF(self->flight, Py_NewRef(Py_None));
    Py_XSETREF(self->flight_label, PyUnicode_FromString(""));
    if (self->flight_label == NULL)
        return -1;
    Py_XSETREF(self->stats, Py_NewRef(Py_None));
    return 0;
}

static Py_ssize_t
cqueue_len(CQueueObject *self)
{
    return self->count;
}

static PyObject *
cqueue_get_empty(CQueueObject *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(self->count == 0);
}

static PyObject *
cqueue_get_ecn(CQueueObject *self, void *Py_UNUSED(closure))
{
    PyObject *v = self->ecn_obj ? self->ecn_obj : Py_None;
    return Py_NewRef(v);
}

static int
cqueue_set_ecn(CQueueObject *self, PyObject *value,
               void *Py_UNUSED(closure))
{
    if (value == NULL || value == Py_None) {
        Py_XSETREF(self->ecn_obj, Py_NewRef(Py_None));
        self->ecn_on = 0;
        return 0;
    }
    long long thr = PyLong_AsLongLong(value);
    if (thr == -1 && PyErr_Occurred())
        return -1;
    Py_INCREF(value);
    Py_XSETREF(self->ecn_obj, value);
    self->ecn_thr = thr;
    self->ecn_on = 1;
    return 0;
}

static int
cqueue_traverse(CQueueObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < self->count; i++)
        Py_VISIT(self->ring[(self->head + i) % self->ring_cap]);
    Py_VISIT(self->ecn_obj);
    Py_VISIT(self->on_backlog_change);
    Py_VISIT(self->flight);
    Py_VISIT(self->flight_label);
    Py_VISIT(self->stats);
    return 0;
}

static int
cqueue_clear(CQueueObject *self)
{
    Py_ssize_t i;
    for (i = 0; i < self->count; i++)
        Py_CLEAR(self->ring[(self->head + i) % self->ring_cap]);
    self->count = 0;
    self->head = 0;
    Py_CLEAR(self->ecn_obj);
    Py_CLEAR(self->on_backlog_change);
    Py_CLEAR(self->flight);
    Py_CLEAR(self->flight_label);
    Py_CLEAR(self->stats);
    return 0;
}

static void
cqueue_dealloc(CQueueObject *self)
{
    PyObject_GC_UnTrack(self);
    cqueue_clear(self);
    PyMem_Free(self->ring);
    self->ring = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef cqueue_members[] = {
    {"capacity_bytes", T_LONGLONG, offsetof(CQueueObject, capacity_bytes),
     0, "byte capacity bound"},
    {"backlog_bytes", T_LONGLONG, offsetof(CQueueObject, backlog_bytes),
     0, "current queued bytes"},
    {"enqueued_packets", T_LONGLONG,
     offsetof(CQueueObject, enqueued_packets), 0, NULL},
    {"enqueued_bytes", T_LONGLONG,
     offsetof(CQueueObject, enqueued_bytes), 0, NULL},
    {"dequeued_packets", T_LONGLONG,
     offsetof(CQueueObject, dequeued_packets), 0, NULL},
    {"dequeued_bytes", T_LONGLONG,
     offsetof(CQueueObject, dequeued_bytes), 0, NULL},
    {"dropped_packets", T_LONGLONG,
     offsetof(CQueueObject, dropped_packets), 0, NULL},
    {"dropped_bytes", T_LONGLONG,
     offsetof(CQueueObject, dropped_bytes), 0, NULL},
    {"ecn_marked_packets", T_LONGLONG,
     offsetof(CQueueObject, ecn_marked_packets), 0, NULL},
    {"max_backlog_bytes", T_LONGLONG,
     offsetof(CQueueObject, max_backlog_bytes), 0, NULL},
    {"on_backlog_change", T_OBJECT,
     offsetof(CQueueObject, on_backlog_change), 0,
     "optional observer called with the new backlog"},
    {"_flight", T_OBJECT, offsetof(CQueueObject, flight), 0,
     "optional FlightRecorder"},
    {"flight_label", T_OBJECT, offsetof(CQueueObject, flight_label), 0, NULL},
    {"stats", T_OBJECT, offsetof(CQueueObject, stats), 0,
     "QueueStats view (set by the Python wrapper)"},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef cqueue_getset[] = {
    {"empty", (getter)cqueue_get_empty, NULL, "True when no packets queued",
     NULL},
    {"ecn_threshold_bytes", (getter)cqueue_get_ecn, (setter)cqueue_set_ecn,
     "CE-mark threshold; None disables marking", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods cqueue_as_sequence = {
    .sq_length = (lenfunc)cqueue_len,
};

static PyMethodDef cqueue_methods[] = {
    {"enqueue", (PyCFunction)cqueue_enqueue, METH_O,
     "enqueue(packet) -> bool — False (and a drop count) when full"},
    {"dequeue", (PyCFunction)cqueue_dequeue, METH_NOARGS,
     "dequeue() -> Packet | None"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CQueueType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.CQueue",
    .tp_basicsize = sizeof(CQueueObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_doc = "C drop-tail/ECN queue core (subclassed by net.queue)",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)cqueue_init,
    .tp_dealloc = (destructor)cqueue_dealloc,
    .tp_traverse = (traverseproc)cqueue_traverse,
    .tp_clear = (inquiry)cqueue_clear,
    .tp_methods = cqueue_methods,
    .tp_members = cqueue_members,
    .tp_getset = cqueue_getset,
    .tp_as_sequence = &cqueue_as_sequence,
};

/* ---- CPort: the Port transmit chain in C -------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *device;
    Py_ssize_t index;
    long long rate_bps;
    PyObject *queue;                /* CQueue (or subclass) instance   */
    PyObject *link;                 /* None until a Link attaches      */
    PyObject *sim;
    PyObject *ser_table;            /* datapath.SerTable of the rate   */
    PyObject *simref;               /* SimRef used for heap pushes     */
    PyObject *tx_cb;                /* bound self._transmit_next       */
    /* Set by Link.__init__: the far end, its device's receive, and the
     * departure-to-receive offset (propagation + its rx latency). */
    PyObject *peer;
    PyObject *peer_receive;
    long long to_peer_ps;
    char busy, paused;
    long long busy_until_ps;
    long long pause_events;
    long long tx_packets, tx_bytes;
} CPortObject;

static PyTypeObject CPortType;

static int
cport_now(CPortObject *self, long long *now)
{
    SimRefObject *sr = (SimRefObject *)self->simref;
    if (sr->now_valid) {
        *now = sr->now_ll;
        return 0;
    }
    return dict_get_ll(sr->dict, k_now, now);
}

/* Push (time, seq, fn, args) through the shared SimRef tail.  The
 * entries are identical to what the pure-Python Port pushes, so the
 * event stream matches it bit for bit. */
static int
cport_push(CPortObject *self, long long time_ll, PyObject *fn,
           PyObject **args, Py_ssize_t nargs)
{
    PyObject *time_obj = PyLong_FromLongLong(time_ll);
    int rc;
    if (time_obj == NULL)
        return -1;
    rc = simref_push((SimRefObject *)self->simref, time_obj, fn, args,
                     nargs);
    Py_DECREF(time_obj);
    return rc;
}

/* The Port._transmit_next body.  Mirrors the Python implementation
 * statement for statement, including the order the two heap pushes
 * consume sequence numbers (deliver first, then the chain wakeup). */
static int
cport_transmit_impl(CPortObject *self)
{
    CQueueObject *q;
    PyObject *packet, *size_obj = NULL, *tx_obj;
    long long size, tx_time, now, depart;

    if (self->paused) {
        self->busy = 0;
        return 0;
    }
    if (!PyObject_TypeCheck(self->queue, &CQueueType)) {
        PyErr_SetString(PyExc_TypeError, "CPort requires a CQueue queue");
        return -1;
    }
    q = (CQueueObject *)self->queue;
    packet = cq_dequeue_impl(q, &size);
    if (packet == NULL) {
        if (PyErr_Occurred())
            return -1;
        self->busy = 0;
        return 0;
    }
    size_obj = PyLong_FromLongLong(size);
    if (size_obj == NULL)
        goto fail;
    /* The first frame of a size fills the table through __missing__. */
    tx_obj = PyObject_GetItem(self->ser_table, size_obj);
    if (tx_obj == NULL)
        goto fail;
    tx_time = PyLong_AsLongLong(tx_obj);
    Py_DECREF(tx_obj);
    if (tx_time == -1 && PyErr_Occurred())
        goto fail;
    self->tx_packets += 1;
    self->tx_bytes += size;
    if (cport_now(self, &now) < 0)
        goto fail;
    depart = now + tx_time;
    /* The arrival: the peer device's receive(packet, peer) at depart +
     * propagation + its ingress latency, straight onto the heap. */
    if (self->peer_receive == NULL || self->peer == NULL) {
        PyErr_SetString(g_config_error, "port is not connected to a link");
        goto fail;
    }
    {
        PyObject *arrival[2] = {packet, self->peer};
        if (cport_push(self, depart + self->to_peer_ps, self->peer_receive,
                       arrival, 2) < 0)
            goto fail;
    }
    self->busy_until_ps = depart;
    if (q->count > 0) {
        self->busy = 1;
        if (cport_push(self, depart, self->tx_cb, NULL, 0) < 0)
            goto fail;
    }
    else
        self->busy = 0;
    Py_DECREF(size_obj);
    Py_DECREF(packet);
    return 0;
fail:
    Py_XDECREF(size_obj);
    Py_DECREF(packet);
    return -1;
}

static PyObject *
cport_transmit_next(CPortObject *self, PyObject *Py_UNUSED(ignored))
{
    if (cport_transmit_impl(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Restart a parked transmit chain no earlier than busy_until (shared by
 * send and resume). */
static int
cport_kick(CPortObject *self)
{
    long long now;
    if (cport_now(self, &now) < 0)
        return -1;
    if (now >= self->busy_until_ps)
        return cport_transmit_impl(self);
    self->busy = 1;
    return cport_push(self, self->busy_until_ps, self->tx_cb, NULL, 0);
}

static PyObject *
cport_send(CPortObject *self, PyObject *packet)
{
    int accepted;
    if (self->link == Py_None || self->link == NULL) {
        PyObject *name = PyObject_GetAttrString((PyObject *)self, "name");
        if (name == NULL)
            return NULL;
        PyErr_Format(g_config_error, "port %U is not connected to a link",
                     name);
        Py_DECREF(name);
        return NULL;
    }
    if (!PyObject_TypeCheck(self->queue, &CQueueType)) {
        PyErr_SetString(PyExc_TypeError, "CPort requires a CQueue queue");
        return NULL;
    }
    accepted = cq_enqueue_impl((CQueueObject *)self->queue, packet);
    if (accepted < 0)
        return NULL;
    if (accepted && !self->busy && !self->paused) {
        if (cport_kick(self) < 0)
            return NULL;
    }
    return PyBool_FromLong(accepted);
}

static PyObject *
cport_pause(CPortObject *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->paused) {
        self->paused = 1;
        self->pause_events += 1;
    }
    Py_RETURN_NONE;
}

static PyObject *
cport_resume(CPortObject *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->paused)
        Py_RETURN_NONE;
    self->paused = 0;
    if (!self->busy && PyObject_TypeCheck(self->queue, &CQueueType) &&
        ((CQueueObject *)self->queue)->count > 0) {
        if (cport_kick(self) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static int
cport_init(CPortObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *device, *queue, *sim, *ser_table, *simref;
    Py_ssize_t index;
    long long rate_bps;
    static char *kwlist[] = {
        "device", "index", "rate_bps", "queue", "sim", "ser_table",
        "simref", NULL,
    };

    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OnLOOOO", kwlist, &device, &index, &rate_bps,
            &queue, &sim, &ser_table, &simref))
        return -1;
    if (!PyObject_TypeCheck(queue, &CQueueType)) {
        PyErr_SetString(PyExc_TypeError,
                        "queue must be a CQueue (DropTailQueue) instance");
        return -1;
    }
    if (Py_TYPE(simref) != &SimRefType) {
        PyErr_SetString(PyExc_TypeError, "simref must be a SimRef");
        return -1;
    }
    self->index = index;
    self->rate_bps = rate_bps;
    Py_INCREF(device);
    Py_XSETREF(self->device, device);
    Py_INCREF(queue);
    Py_XSETREF(self->queue, queue);
    Py_XSETREF(self->link, Py_NewRef(Py_None));
    Py_INCREF(sim);
    Py_XSETREF(self->sim, sim);
    Py_INCREF(ser_table);
    Py_XSETREF(self->ser_table, ser_table);
    Py_INCREF(simref);
    Py_XSETREF(self->simref, simref);
    Py_XSETREF(self->tx_cb,
               PyObject_GetAttrString((PyObject *)self, "_transmit_next"));
    if (self->tx_cb == NULL)
        return -1;
    self->busy = 0;
    self->paused = 0;
    self->busy_until_ps = 0;
    return 0;
}

static int
cport_traverse(CPortObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->device);
    Py_VISIT(self->queue);
    Py_VISIT(self->link);
    Py_VISIT(self->sim);
    Py_VISIT(self->ser_table);
    Py_VISIT(self->simref);
    Py_VISIT(self->tx_cb);
    Py_VISIT(self->peer);
    Py_VISIT(self->peer_receive);
    return 0;
}

static int
cport_clear(CPortObject *self)
{
    Py_CLEAR(self->device);
    Py_CLEAR(self->queue);
    Py_CLEAR(self->link);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->ser_table);
    Py_CLEAR(self->simref);
    Py_CLEAR(self->tx_cb);
    Py_CLEAR(self->peer);
    Py_CLEAR(self->peer_receive);
    return 0;
}

static void
cport_dealloc(CPortObject *self)
{
    PyObject_GC_UnTrack(self);
    cport_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef cport_members[] = {
    {"device", T_OBJECT, offsetof(CPortObject, device), 0, NULL},
    {"index", T_PYSSIZET, offsetof(CPortObject, index), 0, NULL},
    {"rate_bps", T_LONGLONG, offsetof(CPortObject, rate_bps), READONLY,
     NULL},
    {"queue", T_OBJECT, offsetof(CPortObject, queue), 0, NULL},
    {"link", T_OBJECT, offsetof(CPortObject, link), 0,
     "the attached Link, or None"},
    {"sim", T_OBJECT, offsetof(CPortObject, sim), 0, NULL},
    {"_ser_ps", T_OBJECT, offsetof(CPortObject, ser_table), 0, NULL},
    {"_busy", T_BOOL, offsetof(CPortObject, busy), 0, NULL},
    {"_busy_until_ps", T_LONGLONG, offsetof(CPortObject, busy_until_ps),
     0, NULL},
    {"paused", T_BOOL, offsetof(CPortObject, paused), 0, NULL},
    {"pause_events", T_LONGLONG, offsetof(CPortObject, pause_events), 0,
     NULL},
    {"tx_packets", T_LONGLONG, offsetof(CPortObject, tx_packets), 0, NULL},
    {"tx_bytes", T_LONGLONG, offsetof(CPortObject, tx_bytes), 0, NULL},
    {"_peer", T_OBJECT, offsetof(CPortObject, peer), 0, NULL},
    {"_peer_receive", T_OBJECT, offsetof(CPortObject, peer_receive), 0,
     NULL},
    {"_to_peer_ps", T_LONGLONG, offsetof(CPortObject, to_peer_ps), 0,
     NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef cport_methods[] = {
    {"send", (PyCFunction)cport_send, METH_O,
     "send(packet) -> bool — enqueue for transmission"},
    {"pause", (PyCFunction)cport_pause, METH_NOARGS, "PFC XOFF"},
    {"resume", (PyCFunction)cport_resume, METH_NOARGS, "PFC XON"},
    {"_transmit_next", (PyCFunction)cport_transmit_next, METH_NOARGS,
     "dequeue and serialize the next frame"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject CPortType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._cengine.CPort",
    .tp_basicsize = sizeof(CPortObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_doc = "C port transmit chain (subclassed by net.device)",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)cport_init,
    .tp_dealloc = (destructor)cport_dealloc,
    .tp_traverse = (traverseproc)cport_traverse,
    .tp_clear = (inquiry)cport_clear,
    .tp_methods = cport_methods,
    .tp_members = cport_members,
};

/* ---- module ------------------------------------------------------------ */

static PyMethodDef cengine_methods[] = {
    {"run_loop", (PyCFunction)(void (*)(void))cengine_run_loop,
     METH_FASTCALL,
     "run_loop(sim, until, limit, dispatch) -> events executed"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cengine_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._cengine",
    .m_doc = "C run loop, port and queue for repro.sim",
    .m_size = -1,
    .m_methods = cengine_methods,
};

static PyObject *
intern_or_null(const char *s)
{
    return PyUnicode_InternFromString(s);
}

PyMODINIT_FUNC
PyInit__cengine(void)
{
    PyObject *m = NULL, *backend = NULL, *errors = NULL;

    k_heap = intern_or_null("_heap");
    k_seq_ctr = intern_or_null("_seq");
    k_now = intern_or_null("now");
    k_stopped = intern_or_null("_stopped");
    k_dead = intern_or_null("_dead");
    k_events_executed = intern_or_null("_events_executed");
    k_cref = intern_or_null("_cref");
    a_seq = intern_or_null("seq");
    a_target_ps = intern_or_null("target_ps");
    a_time_ps = intern_or_null("time_ps");
    a_fn = intern_or_null("fn");
    a_args = intern_or_null("args");
    if (!k_heap || !k_seq_ctr || !k_now || !k_stopped || !k_dead ||
        !k_events_executed || !k_cref || !a_seq || !a_target_ps ||
        !a_time_ps || !a_fn || !a_args)
        return NULL;

    /* The marker and exception live in pure-Python modules.  This
     * module is imported only by repro.sim.backend, which defines
     * HANDLE before that import, so the partially initialised module
     * already carries it. */
    backend = PyImport_ImportModule("repro.sim.backend");
    if (backend == NULL)
        goto fail;
    g_handle_marker = PyObject_GetAttrString(backend, "HANDLE");
    if (g_handle_marker == NULL)
        goto fail;
    errors = PyImport_ImportModule("repro.errors");
    if (errors == NULL)
        goto fail;
    g_config_error = PyObject_GetAttrString(errors, "ConfigError");
    if (g_config_error == NULL)
        goto fail;

    if (PyType_Ready(&SimRefType) < 0 || PyType_Ready(&CQueueType) < 0 ||
        PyType_Ready(&CPortType) < 0)
        goto fail;

    m = PyModule_Create(&cengine_module);
    if (m == NULL)
        goto fail;
    Py_INCREF(&SimRefType);
    if (PyModule_AddObject(m, "SimRef", (PyObject *)&SimRefType) < 0) {
        Py_DECREF(&SimRefType);
        goto fail;
    }
    Py_INCREF(&CQueueType);
    if (PyModule_AddObject(m, "CQueue", (PyObject *)&CQueueType) < 0) {
        Py_DECREF(&CQueueType);
        goto fail;
    }
    Py_INCREF(&CPortType);
    if (PyModule_AddObject(m, "CPort", (PyObject *)&CPortType) < 0) {
        Py_DECREF(&CPortType);
        goto fail;
    }
    Py_XDECREF(backend);
    Py_XDECREF(errors);
    return m;

fail:
    Py_XDECREF(backend);
    Py_XDECREF(errors);
    Py_XDECREF(m);
    return NULL;
}
