/* Compiled dispatch core for repro.sim.engine.Simulator.
 *
 * One CPython type, ``Engine``, owns the hot dispatch state that the
 * pure-Python engine keeps in Python objects:
 *
 *   - the pending timer population as a packed binary min-heap of
 *     ``{time, seq, slot}`` C structs ordered by (time, seq) -- no
 *     per-entry Python list, no PyLong boxing on the comparison path;
 *   - the zero-delay *ready* FIFO as a ring buffer of the same packed
 *     items (the timer-before-ready rule of the Python engine is
 *     preserved: timers due at the current time predate every ready
 *     entry by construction, see engine.py module notes);
 *   - a slot table holding the only per-event Python state (callback,
 *     argument, single-arg flag) plus the occupant's sequence number,
 *     recycled through a free list.
 *
 * Cancellation hands out integer handles encoding ``(slot, seq)``;
 * cancelling frees the slot immediately and the stale heap/ring item
 * is purged lazily when it surfaces (or eagerly by drain_cancelled),
 * exactly mirroring the Python engine's lazy ``entry[2] = None``
 * discipline -- including the ``_cancelled`` accounting the automatic
 * drain threshold reads.
 *
 * Error-message parity: every SimulationError raised here formats the
 * same text as engine.py, so tests asserting on messages pass on both
 * cores.  The SimulationError class itself is injected by the Python
 * wrapper at construction (this file deliberately does not import
 * repro.sim.engine, which would recurse).
 *
 * Divergence (documented, loud): delays/times must be Python ints
 * (anything accepting ``__index__``).  The Python engine's generic
 * ``schedule()`` would silently truncate a float delay; the compiled
 * core raises TypeError instead of risking a silent timing divergence
 * between cores.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Handle layout: (slot << HANDLE_SEQ_BITS) | (seq & HANDLE_SEQ_MASK).
 * 44 bits of sequence number (~1.7e13 events) and 20 bits of slot
 * index (~1M concurrently pending events); both are checked. */
#define HANDLE_SEQ_BITS 44
#define HANDLE_SEQ_MASK (((uint64_t)1 << HANDLE_SEQ_BITS) - 1)
#define MAX_SLOTS ((Py_ssize_t)1 << 20)

/* Mirrors of engine.py tuning constants (names kept in sync). */
#define AUTO_DRAIN_MIN_CANCELLED 512

typedef struct {
    long long time;
    long long seq;
    int32_t slot;
} Item;

typedef struct {
    PyObject_HEAD
    PyObject *sim_error;        /* SimulationError class (strong ref) */
    long long now_ns;
    long long next_seq;
    long long event_count;
    long long cancelled;        /* cancelled-but-not-yet-purged entries */
    int running;
    /* timer heap */
    Item *heap;
    Py_ssize_t heap_len, heap_cap;
    /* ready ring buffer */
    Item *ready;
    Py_ssize_t ready_head, ready_len, ready_cap;
    /* slot table */
    PyObject **s_cb;
    PyObject **s_arg;
    long long *s_seq;           /* occupant's seq, -1 when free */
    uint8_t *s_single;
    Py_ssize_t slot_cap;
    int32_t *free_slots;
    Py_ssize_t free_len;
} Engine;

/* ------------------------------------------------------------------ */
/* Small helpers                                                       */
/* ------------------------------------------------------------------ */

static inline int
item_lt(const Item *a, const Item *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* A heap/ring item is live while the slot it points at still holds the
 * same occupant; cancel() frees the slot, so a mismatch marks the item
 * stale (the compiled equivalent of entry[_CALLBACK] is None). */
static inline int
item_live(Engine *self, const Item *it)
{
    return self->s_seq[it->slot] == it->seq;
}

static int
grow_slots(Engine *self)
{
    Py_ssize_t new_cap = self->slot_cap ? self->slot_cap * 2 : 1024;
    if (new_cap > MAX_SLOTS) {
        if (self->slot_cap >= MAX_SLOTS) {
            PyErr_SetString(self->sim_error,
                            "compiled core slot table exhausted "
                            "(more than 2**20 events pending)");
            return -1;
        }
        new_cap = MAX_SLOTS;
    }
    PyObject **cb = PyMem_Realloc(self->s_cb, new_cap * sizeof(PyObject *));
    if (!cb) { PyErr_NoMemory(); return -1; }
    self->s_cb = cb;
    PyObject **arg = PyMem_Realloc(self->s_arg, new_cap * sizeof(PyObject *));
    if (!arg) { PyErr_NoMemory(); return -1; }
    self->s_arg = arg;
    long long *seq = PyMem_Realloc(self->s_seq, new_cap * sizeof(long long));
    if (!seq) { PyErr_NoMemory(); return -1; }
    self->s_seq = seq;
    uint8_t *single = PyMem_Realloc(self->s_single, new_cap * sizeof(uint8_t));
    if (!single) { PyErr_NoMemory(); return -1; }
    self->s_single = single;
    int32_t *fs = PyMem_Realloc(self->free_slots, new_cap * sizeof(int32_t));
    if (!fs) { PyErr_NoMemory(); return -1; }
    self->free_slots = fs;
    /* Push the fresh slots in descending order so they are handed out
     * ascending -- keeps handles compact, nothing depends on it. */
    for (Py_ssize_t i = new_cap - 1; i >= self->slot_cap; i--) {
        self->s_cb[i] = NULL;
        self->s_arg[i] = NULL;
        self->s_seq[i] = -1;
        self->s_single[i] = 0;
        self->free_slots[self->free_len++] = (int32_t)i;
    }
    self->slot_cap = new_cap;
    return 0;
}

/* Claim a slot for (callback, arg); steals no references (incref here). */
static Py_ssize_t
slot_alloc(Engine *self, long long seq, PyObject *cb, PyObject *arg,
           int single)
{
    if (self->free_len == 0 && grow_slots(self) < 0)
        return -1;
    Py_ssize_t slot = self->free_slots[--self->free_len];
    Py_INCREF(cb);
    Py_XINCREF(arg);
    self->s_cb[slot] = cb;
    self->s_arg[slot] = arg;
    self->s_seq[slot] = seq;
    self->s_single[slot] = (uint8_t)single;
    return slot;
}

/* Release a slot's Python state and recycle it.  The caller must have
 * taken out any references it still needs (the dispatch path moves the
 * callback/arg into locals first). */
static inline void
slot_free(Engine *self, Py_ssize_t slot)
{
    Py_CLEAR(self->s_cb[slot]);
    Py_CLEAR(self->s_arg[slot]);
    self->s_seq[slot] = -1;
    self->free_slots[self->free_len++] = (int32_t)slot;
}

static int
heap_reserve(Engine *self, Py_ssize_t need)
{
    if (need <= self->heap_cap)
        return 0;
    Py_ssize_t new_cap = self->heap_cap ? self->heap_cap * 2 : 1024;
    while (new_cap < need)
        new_cap *= 2;
    Item *heap = PyMem_Realloc(self->heap, new_cap * sizeof(Item));
    if (!heap) { PyErr_NoMemory(); return -1; }
    self->heap = heap;
    self->heap_cap = new_cap;
    return 0;
}

static int
heap_push(Engine *self, Item it)
{
    if (heap_reserve(self, self->heap_len + 1) < 0)
        return -1;
    Item *heap = self->heap;
    Py_ssize_t pos = self->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!item_lt(&it, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = it;
    return 0;
}

/* Pop the minimum; the heap must be non-empty. */
static Item
heap_pop(Engine *self)
{
    Item *heap = self->heap;
    Item top = heap[0];
    Py_ssize_t n = --self->heap_len;
    if (n > 0) {
        Item last = heap[n];
        Py_ssize_t pos = 0;
        for (;;) {
            Py_ssize_t child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n && item_lt(&heap[child + 1], &heap[child]))
                child += 1;
            if (!item_lt(&heap[child], &last))
                break;
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = last;
    }
    return top;
}

static void
heap_siftdown(Item *heap, Py_ssize_t n, Py_ssize_t pos)
{
    Item it = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && item_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (!item_lt(&heap[child], &it))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = it;
}

static int
ready_push(Engine *self, Item it)
{
    if (self->ready_len == self->ready_cap) {
        Py_ssize_t new_cap = self->ready_cap ? self->ready_cap * 2 : 256;
        Item *ring = PyMem_Malloc(new_cap * sizeof(Item));
        if (!ring) { PyErr_NoMemory(); return -1; }
        for (Py_ssize_t i = 0; i < self->ready_len; i++)
            ring[i] = self->ready[(self->ready_head + i) & (self->ready_cap - 1)];
        PyMem_Free(self->ready);
        self->ready = ring;
        self->ready_cap = new_cap;
        self->ready_head = 0;
    }
    self->ready[(self->ready_head + self->ready_len) & (self->ready_cap - 1)] = it;
    self->ready_len++;
    return 0;
}

static inline Item *
ready_front(Engine *self)
{
    return &self->ready[self->ready_head & (self->ready_cap - 1)];
}

static inline void
ready_popfront(Engine *self)
{
    self->ready_head = (self->ready_head + 1) & (self->ready_cap - 1);
    self->ready_len--;
}

/* Drop stale (cancelled) items from the front of the ready ring --
 * engine.py's _purge_ready. */
static void
purge_ready_front(Engine *self)
{
    while (self->ready_len && !item_live(self, ready_front(self))) {
        ready_popfront(self);
        self->cancelled--;
    }
}

/* Drop stale items from the top of the timer heap. */
static void
purge_heap_top(Engine *self)
{
    while (self->heap_len && !item_live(self, &self->heap[0])) {
        heap_pop(self);
        self->cancelled--;
    }
}

static inline PyObject *
make_handle(Py_ssize_t slot, long long seq)
{
    uint64_t handle = ((uint64_t)slot << HANDLE_SEQ_BITS)
                      | ((uint64_t)seq & HANDLE_SEQ_MASK);
    return PyLong_FromUnsignedLongLong(handle);
}

/* Decode a handle and return the slot if it is still the live occupant
 * it was issued for; -1 otherwise (spent: executed or cancelled). */
static Py_ssize_t
live_slot_of_handle(Engine *self, PyObject *handle_obj)
{
    uint64_t handle = PyLong_AsUnsignedLongLong(handle_obj);
    if (handle == (uint64_t)-1 && PyErr_Occurred())
        return -2;
    Py_ssize_t slot = (Py_ssize_t)(handle >> HANDLE_SEQ_BITS);
    uint64_t seq_bits = handle & HANDLE_SEQ_MASK;
    if (slot >= self->slot_cap || self->s_seq[slot] < 0)
        return -1;
    if (((uint64_t)self->s_seq[slot] & HANDLE_SEQ_MASK) != seq_bits)
        return -1;
    return slot;
}

static int
parse_ll(PyObject *obj, long long *out, const char *what)
{
    if (PyLong_Check(obj)) {
        long long value = PyLong_AsLongLong(obj);
        if (value == -1 && PyErr_Occurred())
            return -1;
        *out = value;
        return 0;
    }
    PyObject *index = PyNumber_Index(obj);
    if (!index) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError,
                     "%s must be an integer on the compiled core (got %.80s); "
                     "use core='py' for non-int times", what,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    long long value = PyLong_AsLongLong(index);
    Py_DECREF(index);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = value;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Engine lifecycle                                                    */
/* ------------------------------------------------------------------ */

static PyObject *
engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim_error", NULL};
    PyObject *sim_error;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &sim_error))
        return NULL;
    Engine *self = (Engine *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    Py_INCREF(sim_error);
    self->sim_error = sim_error;
    self->now_ns = 0;
    self->next_seq = 0;
    self->event_count = 0;
    self->cancelled = 0;
    self->running = 0;
    return (PyObject *)self;
}

static int
engine_traverse(Engine *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim_error);
    for (Py_ssize_t i = 0; i < self->slot_cap; i++) {
        Py_VISIT(self->s_cb[i]);
        Py_VISIT(self->s_arg[i]);
    }
    return 0;
}

static int
engine_clear_slots(Engine *self)
{
    for (Py_ssize_t i = 0; i < self->slot_cap; i++) {
        Py_CLEAR(self->s_cb[i]);
        Py_CLEAR(self->s_arg[i]);
        self->s_seq[i] = -1;
    }
    return 0;
}

static int
engine_clear(Engine *self)
{
    Py_CLEAR(self->sim_error);
    engine_clear_slots(self);
    return 0;
}

static void
engine_dealloc(Engine *self)
{
    PyObject_GC_UnTrack(self);
    engine_clear(self);
    PyMem_Free(self->heap);
    PyMem_Free(self->ready);
    PyMem_Free(self->s_cb);
    PyMem_Free(self->s_arg);
    PyMem_Free(self->s_seq);
    PyMem_Free(self->s_single);
    PyMem_Free(self->free_slots);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ------------------------------------------------------------------ */
/* Scheduling entry points                                             */
/* ------------------------------------------------------------------ */

/* Shared tail: allocate a slot, build the handle, park the item. */
static PyObject *
schedule_item(Engine *self, long long time, PyObject *cb, PyObject *arg,
              int single, int to_ready)
{
    long long seq = self->next_seq;
    if ((uint64_t)seq >= ((uint64_t)1 << HANDLE_SEQ_BITS)) {
        PyErr_SetString(self->sim_error,
                        "compiled core sequence space exhausted");
        return NULL;
    }
    Py_ssize_t slot = slot_alloc(self, seq, cb, arg, single);
    if (slot < 0)
        return NULL;
    self->next_seq = seq + 1;
    Item it = {time, seq, (int32_t)slot};
    int rc = to_ready ? ready_push(self, it) : heap_push(self, it);
    if (rc < 0) {
        slot_free(self, slot);
        self->next_seq = seq;
        return NULL;
    }
    return make_handle(slot, seq);
}

static PyObject *
engine_call_after(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "call_after expects (delay, callback[, value])");
        return NULL;
    }
    long long delay;
    if (parse_ll(args[0], &delay, "delay") < 0)
        return NULL;
    if (delay < 0)
        return PyErr_Format(self->sim_error,
                            "cannot schedule into the past (delay=%lld)",
                            delay);
    PyObject *value = nargs == 3 ? args[2] : Py_None;
    return schedule_item(self, self->now_ns + delay, args[1], value, 1,
                         delay == 0);
}

static PyObject *
engine_call_soon(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "call_soon expects (callback[, value])");
        return NULL;
    }
    PyObject *value = nargs == 2 ? args[1] : Py_None;
    return schedule_item(self, self->now_ns, args[0], value, 1, 1);
}

static PyObject *
engine_schedule(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule expects (delay, callback, *args)");
        return NULL;
    }
    long long delay;
    if (parse_ll(args[0], &delay, "delay") < 0)
        return NULL;
    if (delay < 0)
        return PyErr_Format(self->sim_error,
                            "cannot schedule into the past (delay=%lld)",
                            delay);
    PyObject *tuple = PyTuple_New(nargs - 2);
    if (!tuple)
        return NULL;
    for (Py_ssize_t i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(tuple, i - 2, args[i]);
    }
    PyObject *handle = schedule_item(self, self->now_ns + delay, args[1],
                                     tuple, 0, delay == 0);
    Py_DECREF(tuple);
    return handle;
}

static PyObject *
engine_schedule_at(Engine *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at expects (time, callback, *args)");
        return NULL;
    }
    long long time;
    if (parse_ll(args[0], &time, "time") < 0)
        return NULL;
    if (time < self->now_ns)
        return PyErr_Format(self->sim_error,
                            "cannot schedule at t=%lld before current time "
                            "t=%lld", time, self->now_ns);
    PyObject *tuple = PyTuple_New(nargs - 2);
    if (!tuple)
        return NULL;
    for (Py_ssize_t i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(tuple, i - 2, args[i]);
    }
    PyObject *handle = schedule_item(self, time, args[1], tuple, 0,
                                     time == self->now_ns);
    Py_DECREF(tuple);
    return handle;
}

/* ------------------------------------------------------------------ */
/* Cancellation                                                        */
/* ------------------------------------------------------------------ */

static PyObject *engine_drain_cancelled(Engine *self, PyObject *ignored);

static PyObject *
engine_cancel(Engine *self, PyObject *handle_obj)
{
    Py_ssize_t slot = live_slot_of_handle(self, handle_obj);
    if (slot == -2)
        return NULL;
    if (slot >= 0) {
        slot_free(self, slot);
        self->cancelled++;
        if (self->cancelled >= AUTO_DRAIN_MIN_CANCELLED
            && self->cancelled * 2 >= self->heap_len + self->ready_len) {
            PyObject *res = engine_drain_cancelled(self, NULL);
            if (!res)
                return NULL;
            Py_DECREF(res);
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
engine_is_cancelled(Engine *self, PyObject *handle_obj)
{
    Py_ssize_t slot = live_slot_of_handle(self, handle_obj);
    if (slot == -2)
        return NULL;
    return PyBool_FromLong(slot < 0);
}

static PyObject *
engine_drain_cancelled(Engine *self, PyObject *Py_UNUSED(ignored))
{
    long long removed = self->cancelled;
    /* Compact the heap in place, then restore the heap invariant
     * bottom-up (same complexity as Python's heapify). */
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        if (item_live(self, &self->heap[i]))
            self->heap[kept++] = self->heap[i];
    }
    if (kept != self->heap_len) {
        self->heap_len = kept;
        for (Py_ssize_t i = kept / 2 - 1; i >= 0; i--)
            heap_siftdown(self->heap, kept, i);
    }
    /* Compact the ready ring preserving FIFO order.  Through a scratch
     * buffer: a wrapped ring's tail lives at low indices, so writing
     * live entries from index 0 while still reading would clobber
     * not-yet-read items. */
    if (self->ready_len) {
        Item *scratch = PyMem_Malloc(self->ready_len * sizeof(Item));
        if (!scratch)
            return PyErr_NoMemory();
        Py_ssize_t live = 0;
        for (Py_ssize_t i = 0; i < self->ready_len; i++) {
            Item it = self->ready[(self->ready_head + i) & (self->ready_cap - 1)];
            if (item_live(self, &it))
                scratch[live++] = it;
        }
        memcpy(self->ready, scratch, live * sizeof(Item));
        PyMem_Free(scratch);
        self->ready_head = 0;
        self->ready_len = live;
    }
    self->cancelled = 0;
    return PyLong_FromLongLong(removed);
}

/* ------------------------------------------------------------------ */
/* Execution                                                           */
/* ------------------------------------------------------------------ */

/* Invoke one dispatched item's callback.  The slot is freed before the
 * call (the Python engine marks entries spent first, so a late cancel
 * is a no-op) and references are moved into locals -- the callback may
 * reschedule and realloc every engine array. */
static int
dispatch_slot(Engine *self, Py_ssize_t slot)
{
    PyObject *cb = self->s_cb[slot];
    PyObject *arg = self->s_arg[slot];
    int single = self->s_single[slot];
    self->s_cb[slot] = NULL;
    self->s_arg[slot] = NULL;
    self->s_seq[slot] = -1;
    self->free_slots[self->free_len++] = (int32_t)slot;
    PyObject *res;
    if (single)
        res = PyObject_CallOneArg(cb, arg ? arg : Py_None);
    else
        res = PyObject_CallObject(cb, arg);
    Py_DECREF(cb);
    Py_XDECREF(arg);
    if (!res)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *
engine_run(Engine *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    PyObject *until_obj = Py_None;
    PyObject *max_events_obj = Py_None;
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    if (total > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "run expects (until=None, max_events=None)");
        return NULL;
    }
    if (nargs >= 1)
        until_obj = args[0];
    if (nargs >= 2)
        max_events_obj = args[1];
    if (kwnames) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            const char *text = PyUnicode_AsUTF8(name);
            if (!text)
                return NULL;
            if (strcmp(text, "until") == 0)
                until_obj = value;
            else if (strcmp(text, "max_events") == 0)
                max_events_obj = value;
            else {
                PyErr_Format(PyExc_TypeError,
                             "run got an unexpected keyword argument '%s'",
                             text);
                return NULL;
            }
        }
    }
    int has_deadline = until_obj != Py_None;
    long long deadline = 0;
    if (has_deadline && parse_ll(until_obj, &deadline, "until") < 0)
        return NULL;
    long long budget = -1;
    if (max_events_obj != Py_None
        && parse_ll(max_events_obj, &budget, "max_events") < 0)
        return NULL;

    if (self->running) {
        PyErr_SetString(self->sim_error,
                        "simulator is already running (re-entrant run())");
        return NULL;
    }
    self->running = 1;
    long long executed = 0;
    long long now = self->now_ns;
    int failed = 0;

    while (!has_deadline || now <= deadline) {
        if (self->ready_len) {
            /* Timer entries due now predate every ready entry. */
            if (self->heap_len && self->heap[0].time <= now) {
                Item top = self->heap[0];
                if (!item_live(self, &top)) {
                    heap_pop(self);
                    self->cancelled--;
                    continue;
                }
                if (executed == budget)
                    goto livelock;
                heap_pop(self);
                executed++;
                if (dispatch_slot(self, top.slot) < 0) { failed = 1; break; }
            }
            else {
                Item *front = ready_front(self);
                if (!item_live(self, front)) {
                    ready_popfront(self);
                    self->cancelled--;
                    continue;
                }
                /* Budget check before the pop: the over-budget entry
                 * stays queued (engine.py appendlefts it back). */
                if (executed == budget)
                    goto livelock;
                Py_ssize_t slot = front->slot;
                ready_popfront(self);
                executed++;
                if (dispatch_slot(self, slot) < 0) { failed = 1; break; }
            }
        }
        else if (self->heap_len) {
            Item top = self->heap[0];
            if (!item_live(self, &top)) {
                heap_pop(self);
                self->cancelled--;
                continue;
            }
            if (has_deadline && top.time > deadline)
                break;
            if (executed == budget)
                goto livelock;
            heap_pop(self);
            now = self->now_ns = top.time;
            executed++;
            if (dispatch_slot(self, top.slot) < 0) { failed = 1; break; }
        }
        else {
            break;
        }
    }
    self->event_count += executed;
    self->running = 0;
    if (failed)
        return NULL;
    if (has_deadline && deadline > self->now_ns)
        self->now_ns = deadline;
    return PyLong_FromLongLong(self->now_ns);

livelock:
    self->event_count += executed;
    self->running = 0;
    return PyErr_Format(self->sim_error,
                        "exceeded max_events=%lld; possible livelock",
                        budget);
}

static PyObject *
engine_peek(Engine *self, PyObject *Py_UNUSED(ignored))
{
    purge_ready_front(self);
    purge_heap_top(self);
    if (self->ready_len)
        return PyLong_FromLongLong(self->now_ns);
    if (self->heap_len)
        return PyLong_FromLongLong(self->heap[0].time);
    Py_RETURN_NONE;
}

static PyObject *
engine_step(Engine *self, PyObject *Py_UNUSED(ignored))
{
    purge_ready_front(self);
    purge_heap_top(self);
    Py_ssize_t slot;
    if (self->ready_len) {
        if (self->heap_len && self->heap[0].time <= self->now_ns) {
            Item top = heap_pop(self);
            self->now_ns = top.time;
            slot = top.slot;
        }
        else {
            slot = ready_front(self)->slot;
            ready_popfront(self);
        }
    }
    else if (self->heap_len) {
        Item top = heap_pop(self);
        self->now_ns = top.time;
        slot = top.slot;
    }
    else {
        Py_RETURN_FALSE;
    }
    self->event_count++;
    if (dispatch_slot(self, slot) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

/* ------------------------------------------------------------------ */
/* Introspection                                                       */
/* ------------------------------------------------------------------ */

static Py_ssize_t
engine_len(Engine *self)
{
    return self->heap_len + self->ready_len;
}

static PyObject *
engine_get_now(Engine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->now_ns);
}

static PyObject *
engine_get_events(Engine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->event_count);
}

static PyObject *
engine_get_cancelled(Engine *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->cancelled);
}

static PyMethodDef engine_methods[] = {
    {"schedule", (PyCFunction)engine_schedule, METH_FASTCALL, NULL},
    {"schedule_at", (PyCFunction)engine_schedule_at, METH_FASTCALL, NULL},
    {"call_soon", (PyCFunction)engine_call_soon, METH_FASTCALL, NULL},
    {"call_after", (PyCFunction)engine_call_after, METH_FASTCALL, NULL},
    {"cancel", (PyCFunction)engine_cancel, METH_O, NULL},
    {"is_cancelled", (PyCFunction)engine_is_cancelled, METH_O, NULL},
    {"drain_cancelled", (PyCFunction)engine_drain_cancelled, METH_NOARGS, NULL},
    {"run", (PyCFunction)engine_run, METH_FASTCALL | METH_KEYWORDS, NULL},
    {"peek", (PyCFunction)engine_peek, METH_NOARGS, NULL},
    {"step", (PyCFunction)engine_step, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef engine_getset[] = {
    {"now", (getter)engine_get_now, NULL, NULL, NULL},
    {"events_processed", (getter)engine_get_events, NULL, NULL, NULL},
    {"cancelled", (getter)engine_get_cancelled, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods engine_as_sequence = {
    .sq_length = (lenfunc)engine_len,
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Engine",
    .tp_basicsize = sizeof(Engine),
    .tp_dealloc = (destructor)engine_dealloc,
    .tp_as_sequence = &engine_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Packed-heap dispatch engine behind repro.sim.engine.Simulator",
    .tp_traverse = (traverseproc)engine_traverse,
    .tp_clear = (inquiry)engine_clear,
    .tp_methods = engine_methods,
    .tp_getset = engine_getset,
    .tp_new = engine_new,
};

static struct PyModuleDef ccore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ccore",
    .m_doc = "C-accelerated timer/event dispatch core (see engine.py).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ccore(void)
{
    if (PyType_Ready(&EngineType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&ccore_module);
    if (!module)
        return NULL;
    Py_INCREF(&EngineType);
    if (PyModule_AddObject(module, "Engine", (PyObject *)&EngineType) < 0) {
        Py_DECREF(&EngineType);
        Py_DECREF(module);
        return NULL;
    }
    /* Bumped whenever the Engine ABI the wrapper relies on changes; the
     * wrapper refuses (and falls back) on mismatch rather than crash. */
    if (PyModule_AddIntConstant(module, "CCORE_API_VERSION", 2) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
