"""C source for the native batch kernel (compiled at runtime via cffi).

The kernel is a line-for-line port of the interpreted hot path — the
core timing model, the two-level hierarchy with MSHRs/prefetch buffers,
the five table-based prefetcher families, and the RL context prefetcher
(CST + reducer + reward + ε-greedy/softmax bandit) — with every
tie-breaking data structure (the CPython heapq layout for the
pending-fill heap, the dict-insertion-order LRU of the caches and index
tables, the prefetch-queue bucket lists) reproduced exactly so results
are bit-identical.  The context port additionally reproduces CPython's
``random.Random`` (MT19937 seeded via ``init_by_array``), the int/tuple
hash pipeline behind the context keys, and float ``round`` half-to-even,
so every RNG draw and hash matches the interpreted oracle bit-for-bit.
``docs/native_kernel.md`` carries the per-phase exactness arguments; the
golden/parity/fuzz suites prove them.

The kernel's input is the trace store's own record block: every entry
reads each field of a record where it lies, through loaders generated
from :data:`~repro.workloads.store.RECORD_FIELDS` (:data:`SOURCE_RECORD`),
so the layout is part of the C text the build hashes.
"""

from __future__ import annotations

import struct

from repro.memory.address import ADDRESS_MASK
from repro.workloads.store import RECORD_FIELDS

#: number of int64 slots rp_run writes into its output block
OUT_SLOTS = 19 + 129

#: number of int64 slots rp_pf_ctx_counters fills (satellite counters the
#: profile CLI reports for native context runs)
CTX_COUNTER_SLOTS = 20

#: the kernel units the unit-timing build times (UT_* in the C source, in
#: this order): the paper's Algorithm 1 split as ChampSim's context_pref.cc
#: splits it, plus the table families, the hierarchy and the core model
UNIT_NAMES = (
    "capture",
    "feedback",
    "collection",
    "reduction",
    "selection",
    "issue",
    "table",
    "demand",
    "prefetch",
    "core",
    "program",
)

#: number of int64 slots rp_sim_unit_times fills: ns and interval count
#: per unit, then timed accesses, accesses, kernel ns and clock-read ns
UNIT_SLOTS = 2 * len(UNIT_NAMES) + 4

#: version of the batch-call layout below (``CDEF_BATCH`` +
#: ``SOURCE_BATCH``); analysis rule PERF005 pins the pair's content hash
#: per version, so editing the batch driver without bumping this (and
#: re-pinning) fails ``repro lint``
BATCH_VERSION = 6

#: the C type of each struct format character a record field uses
_C_TYPES = {
    "Q": "uint64_t",
    "q": "int64_t",
    "I": "uint32_t",
    "H": "uint16_t",
    "B": "uint8_t",
}


def _record_source() -> str:
    """The C text that reads trace-store records in place: one loader
    ``rec_<field>`` per :data:`RECORD_FIELDS` entry at its packed offset,
    ``REC_SIZE``, and the modelled address space's ``ADDRESS_MASK``.

    Records follow a header and a variable-length meta block, so they are
    not aligned: each loader copies its bytes out with ``memcpy``.  The
    store is little-endian, so a big-endian compile stops at ``#error``
    and the build fails like any other.
    """
    lines = [
        "/* trace-store records, read in place (generated from",
        " * store.RECORD_FIELDS: one packed little-endian record per access) */",
        "#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__",
        '#error "trace-store records are little-endian, and the kernel reads '
        'them in place"',
        "#endif",
    ]
    offset = 0
    for name, fmt in RECORD_FIELDS:
        ctype = _C_TYPES[fmt]
        lines.append(
            f"static inline {ctype} rec_{name}(const uint8_t *r) "
            f"{{ {ctype} v; memcpy(&v, r + {offset}, sizeof v); return v; }}"
        )
        offset += struct.calcsize("<" + fmt)
    lines.append(f"#define REC_SIZE {offset}")
    lines.append(f"#define ADDRESS_MASK {ADDRESS_MASK:#x}ULL")
    return "\n".join(lines) + "\n"


#: the record loaders (:func:`_record_source`), generated at import
SOURCE_RECORD = _record_source()

CDEF_CORE = """
typedef struct RpSim RpSim;
typedef struct RpPf RpPf;
typedef struct RpRng RpRng;

RpSim *rp_sim_new(const int64_t *hier_cfg, const int64_t *core_cfg);
void rp_sim_free(RpSim *sim);
RpPf *rp_pf_new(int kind, const int64_t *cfg);
RpPf *rp_pf_ctx_new(const int64_t *icfg, const double *dcfg,
                    const uint32_t *seed_key, int seed_len);
void rp_pf_free(RpPf *pf);
double rp_pf_ctx_accuracy(const RpPf *pf);
void rp_pf_ctx_counters(const RpPf *pf, int64_t *out);
int64_t rp_pf_ctx_hist_len(const RpPf *pf);
void rp_pf_ctx_hist(const RpPf *pf, int64_t *depths, int64_t *counts);
int64_t rp_scan_records(const uint8_t *recs, int64_t n);

RpRng *rp_rng_new(const uint32_t *key, int key_len);
void rp_rng_free(RpRng *rng);
double rp_rng_random(RpRng *rng);
uint32_t rp_rng_getrandbits(RpRng *rng, int k);
int64_t rp_rng_choice_index(RpRng *rng, int64_t n);
int64_t rp_rng_choices_index(RpRng *rng, const double *weights, int64_t n);
int64_t rp_hash_uint(uint64_t v);
int64_t rp_hash_int(int64_t v);
int64_t rp_hash_tuple(const int64_t *item_hashes, int64_t n);
int64_t rp_ctx_key(const int64_t *values, int active_bits);
void rp_sim_unit_times(const RpSim *sim, int64_t *out);
"""

SOURCE_RUNTIME = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* per-unit timers, compiled only into the unit-timing artifact (build.py
 * defines RP_UNIT_TIMING for it); in every other build the UT_* macros
 * expand to nothing, so the per-access path carries no timing code.  One
 * access in about UT_PERIOD is timed, the gaps drawn from a xorshift so
 * they cannot alias a periodic trace: UT_BEGIN reads CLOCK_MONOTONIC at
 * the access's top, and each UT_MARK charges the interval since the
 * previous read to a unit.  The units, in UNIT_NAMES order (_csrc.py): */

#define UT_CAPTURE 0      /* context capture and the context-key hashes */
#define UT_FEEDBACK 1     /* prefetch-queue match and its rewards */
#define UT_COLLECTION 2   /* history sampling and CST insert */
#define UT_REDUCTION 3    /* reducer lookup and adaptation */
#define UT_SELECTION 4    /* epsilon-greedy / softmax selection */
#define UT_ISSUE 5        /* queue push (FIFO eviction, expiry feedback) */
#define UT_TABLE 6        /* a table-family prefetcher's on_access */
#define UT_DEMAND 7       /* hierarchy demand access */
#define UT_PREFETCH 8     /* hierarchy prefetch + prediction bookkeeping */
#define UT_CORE 9         /* core model: issue time, completion, LQ/ROB */
#define UT_PROGRAM 10     /* building a cell's trace program, untimed per
                             access: each build is one interval, charged
                             at the timed accesses' share of its time */
#define UT_UNITS 11

#ifdef RP_UNIT_TIMING
#include <time.h>

#define UT_PERIOD 32   /* mean gap: gaps are uniform on 1..2 * UT_PERIOD */

typedef struct {
    int on;              /* the current access is timed */
    int countdown;       /* accesses left to the next timed one */
    uint64_t draw;       /* xorshift64 state for the gaps */
    int64_t last;        /* the previous clock read, ns */
    int64_t ns[UT_UNITS];
    int64_t intervals[UT_UNITS];
    int64_t timed, accesses, kernel_ns;
    int64_t read_ns;     /* cost of one clock read (min of back-to-back) */
} UnitClock;

static int64_t ut_now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

static void ut_reset(UnitClock *u) {
    memset(u, 0, sizeof(UnitClock));
    u->draw = 0x9E3779B97F4A7C15ULL;
    u->read_ns = INT64_MAX;
}

static int ut_gap(UnitClock *u) {
    u->draw ^= u->draw << 13;
    u->draw ^= u->draw >> 7;
    u->draw ^= u->draw << 17;
    return 1 + (int)(u->draw % (2 * UT_PERIOD));
}

/* rp_run entry: calibrate the read cost, start the kernel-time span */
static int64_t ut_enter(UnitClock *u) {
    for (int i = 0; i < 16; i++) {
        int64_t a = ut_now(), b = ut_now();
        if (b - a < u->read_ns) u->read_ns = b - a;
    }
    return ut_now();
}

#define UT_BEGIN(u) do { \
    if (--(u)->countdown <= 0) { \
        (u)->countdown = ut_gap(u); (u)->on = 1; (u)->timed++; \
        (u)->last = ut_now(); \
    } else (u)->on = 0; \
} while (0)
#define UT_MARK(u, unit) do { \
    if ((u)->on) { \
        int64_t t_ = ut_now(); \
        (u)->ns[unit] += t_ - (u)->last; (u)->intervals[unit]++; \
        (u)->last = t_; \
    } \
} while (0)
#else
#define UT_BEGIN(u) ((void)0)
#define UT_MARK(u, unit) ((void)0)
#endif

/* log2(v) when v is a positive power of two, else -1: the shift that
 * may replace a division by v */
static int shift_of(int64_t v) {
    if (v <= 0 || (v & (v - 1))) return -1;
    int s = 0;
    while ((v >> s) != 1) s++;
    return s;
}

/* ------------------------------------------------------------------ */
/* open-addressing hash map: int64 key -> int64 value, each key beside
 * its value.  A key's home slot is its Fibonacci multiply-shift, the top
 * log2(cap) bits of key * 0x9E3779B97F4A7C15; linear probing with
 * backward-shift deletion (no tombstones).  Iteration order is never
 * observed, matching the plain-dict uses it mirrors. */

typedef struct {
    int64_t key;
    int64_t val;
} MapEntry;

typedef struct {
    MapEntry *ents;
    uint8_t *used;
    size_t cap;   /* power of two, at least 16 */
    int shift;    /* 64 - log2(cap) */
    size_t count;
} Map;

static size_t map_home(const Map *m, int64_t key) {
    return (size_t)(((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> m->shift);
}

static int map_init(Map *m, size_t cap) {
    m->cap = cap; m->count = 0;
    m->shift = 64;
    for (size_t c = cap; c > 1; c >>= 1) m->shift--;
    m->ents = (MapEntry *)malloc(cap * sizeof(MapEntry));
    m->used = (uint8_t *)calloc(cap, 1);
    return m->ents && m->used;
}

static void map_free(Map *m) {
    free(m->ents); free(m->used);
    m->ents = 0; m->used = 0; m->cap = 0; m->count = 0;
}

static void map_clear(Map *m) {
    memset(m->used, 0, m->cap);
    m->count = 0;
}

static int map_grow(Map *m);

/* returns slot of key, or (size_t)-1 */
static size_t map_find(const Map *m, int64_t key) {
    size_t mask = m->cap - 1;
    size_t i = map_home(m, key);
    while (m->used[i]) {
        if (m->ents[i].key == key) return i;
        i = (i + 1) & mask;
    }
    return (size_t)-1;
}

static int map_set(Map *m, int64_t key, int64_t val) {
    if ((m->count + 1) * 4 >= m->cap * 3) {
        if (!map_grow(m)) return 0;
    }
    size_t mask = m->cap - 1;
    size_t i = map_home(m, key);
    while (m->used[i]) {
        if (m->ents[i].key == key) { m->ents[i].val = val; return 1; }
        i = (i + 1) & mask;
    }
    m->ents[i].key = key; m->ents[i].val = val; m->used[i] = 1; m->count++;
    return 1;
}

static int map_grow(Map *m) {
    Map bigger;
    if (!map_init(&bigger, m->cap * 2)) { map_free(&bigger); return 0; }
    for (size_t i = 0; i < m->cap; i++) {
        if (m->used[i]) map_set(&bigger, m->ents[i].key, m->ents[i].val);
    }
    map_free(m);
    *m = bigger;
    return 1;
}

/* one probe for get-or-insert: the slot of key, with *found telling
 * whether it was already there (its value untouched) or was just added
 * with val; (size_t)-1 when growing the table failed */
static size_t map_find_or_add(Map *m, int64_t key, int64_t val, int *found) {
    if ((m->count + 1) * 4 >= m->cap * 3) {
        if (!map_grow(m)) return (size_t)-1;
    }
    size_t mask = m->cap - 1;
    size_t i = map_home(m, key);
    while (m->used[i]) {
        if (m->ents[i].key == key) { *found = 1; return i; }
        i = (i + 1) & mask;
    }
    m->ents[i].key = key; m->ents[i].val = val; m->used[i] = 1; m->count++;
    *found = 0;
    return i;
}

/* value of key, or `absent` when missing */
static int64_t map_get(const Map *m, int64_t key, int64_t absent) {
    size_t i = map_find(m, key);
    return i == (size_t)-1 ? absent : m->ents[i].val;
}

static void map_del_slot(Map *m, size_t i) {
    size_t mask = m->cap - 1;
    size_t j = i;
    for (;;) {
        m->used[i] = 0;
        for (;;) {
            j = (j + 1) & mask;
            if (!m->used[j]) { m->count--; return; }
            size_t k = map_home(m, m->ents[j].key);
            /* keep entries whose home slot lies cyclically in (i, j] */
            if (i <= j ? (k <= i || k > j) : (k <= i && k > j)) break;
        }
        m->ents[i] = m->ents[j];
        m->used[i] = 1;
        i = j;
    }
}

static void map_del(Map *m, int64_t key) {
    size_t i = map_find(m, key);
    if (i != (size_t)-1) map_del_slot(m, i);
}

/* ------------------------------------------------------------------ */
/* prediction window: key -> the access index of its prediction, read
 * only while fresh, at most `span` accesses old at the reading index.
 * Two generations, each one window long, stand in for a dict and the
 * log that expires its entries: a write at or past the current
 * generation's end clears the older generation whole and makes it
 * current, and a read tries the current generation, then the older one
 * if it holds anything, moving a fresh entry found there forward.  Exact
 * for reads and writes at non-decreasing indices: a cleared generation
 * holds only entries no read can use (docs/native_kernel.md, section 3). */

typedef struct {
    Map gen[2];     /* gen[cur] is current, gen[cur ^ 1] the older one */
    int cur;
    int64_t end;    /* a write at or past this index rolls the generations */
    int64_t span;
} Window;

static int win_init(Window *w, size_t cap, int64_t span) {
    w->span = span;
    return map_init(&w->gen[0], cap) && map_init(&w->gen[1], cap);
}

static void win_free(Window *w) {
    map_free(&w->gen[0]);
    map_free(&w->gen[1]);
}

static void win_clear(Window *w) {
    map_clear(&w->gen[0]);
    map_clear(&w->gen[1]);
    w->cur = 0;
    w->end = INT64_MIN;
}

/* the generation a write at index goes to */
static Map *win_write_gen(Window *w, int64_t index) {
    if (index >= w->end) {
        w->cur ^= 1;
        map_clear(&w->gen[w->cur]);
        w->end = index + w->span;
    }
    return &w->gen[w->cur];
}

/* the age at now of key's fresh entry, or -1 */
static int64_t win_age(Window *w, int64_t key, int64_t now) {
    Map *cur = &w->gen[w->cur];
    size_t i = map_find(cur, key);
    if (i != (size_t)-1) {
        int64_t age = now - cur->ents[i].val;
        return age <= w->span ? age : -1;
    }
    Map *old = &w->gen[w->cur ^ 1];
    if (!old->count || (i = map_find(old, key)) == (size_t)-1) return -1;
    int64_t v = old->ents[i].val;
    if (now - v > w->span) return -1;
    if (map_set(cur, key, v)) map_del_slot(old, i);   /* moves forward */
    return now - v;
}

/* window[key] = index; 0 when the map cannot grow */
static int win_set(Window *w, int64_t key, int64_t index) {
    return map_set(win_write_gen(w, index), key, index);
}

/* window[key] = index unless key has a fresh entry, which keeps its
 * index (moving forward); 0 when the map cannot grow */
static int win_note_first(Window *w, int64_t key, int64_t index) {
    Map *cur = win_write_gen(w, index);
    int found;
    size_t i = map_find_or_add(cur, key, index, &found);
    if (i == (size_t)-1) return 0;
    if (found) {
        if (index - cur->ents[i].val > w->span) cur->ents[i].val = index;
        return 1;
    }
    Map *old = &w->gen[w->cur ^ 1];
    size_t j;
    if (old->count && (j = map_find(old, key)) != (size_t)-1
        && index - old->ents[j].val <= w->span) {
        cur->ents[i].val = old->ents[j].val;
        map_del_slot(old, j);
    }
    return 1;
}

/* pop(key): the age at now of its fresh entry, or -1; key is gone */
static int64_t win_pop(Window *w, int64_t key, int64_t now) {
    for (int g = 0; g < 2; g++) {
        Map *m = &w->gen[w->cur ^ g];
        size_t i;
        if (!m->count || (i = map_find(m, key)) == (size_t)-1) continue;
        int64_t age = now - m->ents[i].val;
        map_del_slot(m, i);
        return age <= w->span ? age : -1;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* pending-fill heap: a verbatim port of CPython's heapq siftdown/siftup
 * over elements compared ONLY on completes_at with strict <, matching
 * _PendingFill.__lt__ — equal-time fills therefore pop in the identical
 * structure-dependent order as the interpreted path. */

typedef struct {
    int64_t t;       /* completes_at */
    int64_t line;
    uint8_t prefetched;
    uint8_t fill_l2;
} Fill;

typedef struct { Fill *a; size_t len, cap; } FillHeap;

static int fheap_init(FillHeap *h, size_t cap) {
    h->len = 0; h->cap = cap;
    h->a = (Fill *)malloc(cap * sizeof(Fill));
    return h->a != 0;
}

static void fheap_free(FillHeap *h) { free(h->a); h->a = 0; h->len = 0; h->cap = 0; }

static void fheap_siftdown(FillHeap *h, size_t startpos, size_t pos) {
    Fill newitem = h->a[pos];
    while (pos > startpos) {
        size_t parentpos = (pos - 1) >> 1;
        Fill parent = h->a[parentpos];
        if (newitem.t < parent.t) { h->a[pos] = parent; pos = parentpos; continue; }
        break;
    }
    h->a[pos] = newitem;
}

static void fheap_siftup(FillHeap *h, size_t pos) {
    size_t startpos = pos, endpos = h->len;
    Fill newitem = h->a[pos];
    size_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        size_t rightpos = childpos + 1;
        if (rightpos < endpos && !(h->a[childpos].t < h->a[rightpos].t))
            childpos = rightpos;
        h->a[pos] = h->a[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    h->a[pos] = newitem;
    fheap_siftdown(h, startpos, pos);
}

static int fheap_push(FillHeap *h, Fill item) {
    if (h->len == h->cap) {
        size_t ncap = h->cap * 2;
        Fill *na = (Fill *)realloc(h->a, ncap * sizeof(Fill));
        if (!na) return 0;
        h->a = na; h->cap = ncap;
    }
    h->a[h->len++] = item;
    fheap_siftdown(h, 0, h->len - 1);
    return 1;
}

static Fill fheap_pop(FillHeap *h) {
    Fill lastelt = h->a[--h->len];
    if (h->len) {
        Fill returnitem = h->a[0];
        h->a[0] = lastelt;
        fheap_siftup(h, 0);
        return returnitem;
    }
    return lastelt;
}
"""

SOURCE_MEMORY = r"""
/* ------------------------------------------------------------------ */
/* MSHR file: the live entries packed into [0, count) of two parallel
 * arrays, with the _next_expiry short-circuit invariant; lazy
 * retirement exactly as the interpreted MSHRFile.  Packing is exact
 * because nothing reads a slot position: lines in one file are unique
 * (allocation merges), so a lookup's match is the same whatever the
 * order, and the entries retired at one time are the same set in any
 * order.  A lookup scans only the busy entries, allocation appends, and
 * retirement is one compaction pass that also finds the next expiry.
 * NEVER == INT64_MAX stands in for inf. */

#define MSHR_NEVER INT64_MAX

typedef struct {
    int num_entries;
    int count;
    int64_t *lines;
    int64_t *completes;
    int64_t next_expiry;   /* earliest completion in the file, or NEVER */
} Mshr;

static void mshr_reset(Mshr *m) {
    m->count = 0;
    m->next_expiry = MSHR_NEVER;
}

static int mshr_init(Mshr *m, int num_entries) {
    m->num_entries = num_entries;
    m->lines = (int64_t *)malloc((size_t)num_entries * sizeof(int64_t));
    m->completes = (int64_t *)malloc((size_t)num_entries * sizeof(int64_t));
    return m->lines && m->completes;
}

static void mshr_free(Mshr *m) {
    free(m->lines); free(m->completes);
    m->lines = 0; m->completes = 0;
}

/* position of an in-flight line in [0, count), or -1 */
static int mshr_find(const Mshr *m, int64_t line) {
    for (int i = 0; i < m->count; i++) {
        if (m->lines[i] == line) return i;
    }
    return -1;
}

/* retire every entry complete by now (callers test now >= next_expiry) */
static void mshr_expire(Mshr *m, int64_t now) {
    int64_t next = MSHR_NEVER;
    int kept = 0;
    for (int i = 0; i < m->count; i++) {
        int64_t t = m->completes[i];
        if (t <= now) continue;
        m->lines[kept] = m->lines[i];
        m->completes[kept] = t;
        kept++;
        if (t < next) next = t;
    }
    m->count = kept;
    m->next_expiry = next;
}

static int mshr_available(Mshr *m, int64_t now) {
    if (now >= m->next_expiry) mshr_expire(m, now);
    return m->num_entries - m->count;
}

/* completion time of an in-flight line, or -1 */
static int64_t mshr_lookup(Mshr *m, int64_t line, int64_t now) {
    if (now >= m->next_expiry) mshr_expire(m, now);
    int i = mshr_find(m, line);
    return i >= 0 ? m->completes[i] : -1;
}

static int64_t mshr_earliest(Mshr *m, int64_t now) {
    if (now >= m->next_expiry) mshr_expire(m, now);
    if (!m->count) return -1;
    return m->next_expiry;
}

static int mshr_allocate(Mshr *m, int64_t line, int64_t now, int64_t completes_at) {
    if (now >= m->next_expiry) mshr_expire(m, now);
    if (mshr_find(m, line) >= 0) return 1;  /* merge: completion time unchanged */
    if (m->count >= m->num_entries) return 0;
    m->lines[m->count] = line;
    m->completes[m->count] = completes_at;
    m->count++;
    if (completes_at < m->next_expiry) m->next_expiry = completes_at;
    return 1;
}

/* ------------------------------------------------------------------ */
/* set-associative cache: each set is an array ordered LRU -> MRU, the
 * exact mirror of the dict-as-LRU sets (array order == dict insertion
 * order; move-to-end == delete+reinsert; victim == first entry).  A
 * line is one word, line << 2 | prefetched << 1 | referenced: every line
 * is below 2^56 (records above 48 bits never reach the kernel, and a
 * request is at most 64 deltas from one). */

typedef uint64_t CLine;

#define CL_REFERENCED 1u
#define CL_PREFETCHED 2u
#define CL_LINE(e) ((int64_t)((e) >> 2))

typedef struct {
    int64_t num_sets;   /* power of two (validated by CacheConfig) */
    int ways;
    CLine *data;        /* num_sets * ways */
    int *counts;
    int64_t unused_prefetch_evictions;
    int64_t used_prefetch_fills;
    int64_t resident_unused;   /* resident lines prefetched, unreferenced */
} NCache;

/* an empty cache: only the set counts are cleared, never the lines.
 * Every read of a set is bounded by counts[s] and slots are written
 * before the count covering them grows, so no line is ever read
 * uninitialised (or stale, after a reset).  Clearing the lines would
 * touch the full L2 array (~32k lines) on every reset — the batch
 * driver resets one simulator between every pair of cells a thread
 * runs, so data stays uninitialised malloc. */
static void cache_reset(NCache *c) {
    memset(c->counts, 0, (size_t)c->num_sets * sizeof(int));
    c->unused_prefetch_evictions = 0;
    c->used_prefetch_fills = 0;
    c->resident_unused = 0;
}

static int cache_init(NCache *c, int64_t num_sets, int ways) {
    c->num_sets = num_sets;
    c->ways = ways;
    c->data = (CLine *)malloc((size_t)(num_sets * ways) * sizeof(CLine));
    c->counts = (int *)malloc((size_t)num_sets * sizeof(int));
    return c->data && c->counts;
}

static void cache_free(NCache *c) {
    free(c->data); free(c->counts);
    c->data = 0; c->counts = 0;
}

static int cache_contains(NCache *c, int64_t line) {
    CLine *set = c->data + (line & (c->num_sets - 1)) * c->ways;
    int n = c->counts[line & (c->num_sets - 1)];
    for (int i = 0; i < n; i++) {
        if (CL_LINE(set[i]) == line) return 1;
    }
    return 0;
}

/* demand_lookup: (found, fresh_prefetch) with lookup side effects */
static int cache_demand_lookup(NCache *c, int64_t line, int *fresh_prefetch) {
    int64_t s = line & (c->num_sets - 1);
    CLine *set = c->data + s * c->ways;
    int n = c->counts[s];
    for (int i = 0; i < n; i++) {
        if (CL_LINE(set[i]) == line) {
            CLine e = set[i];
            memmove(set + i, set + i + 1, (size_t)(n - 1 - i) * sizeof(CLine));
            int fresh = (e & 3) == CL_PREFETCHED;
            if (fresh) { c->used_prefetch_fills++; c->resident_unused--; }
            set[n - 1] = e | CL_REFERENCED;
            *fresh_prefetch = fresh;
            return 1;
        }
    }
    *fresh_prefetch = 0;
    return 0;
}

/* Cache.lookup: hit? with LRU + reference side effects */
static int cache_lookup(NCache *c, int64_t line) {
    int fresh;
    return cache_demand_lookup(c, line, &fresh);
}

static void cache_fill(NCache *c, int64_t line, int prefetched) {
    int64_t s = line & (c->num_sets - 1);
    CLine *set = c->data + s * c->ways;
    int n = c->counts[s];
    for (int i = 0; i < n; i++) {
        if (CL_LINE(set[i]) == line) {
            /* refresh LRU position; never downgrade flags */
            CLine e = set[i];
            memmove(set + i, set + i + 1, (size_t)(n - 1 - i) * sizeof(CLine));
            set[n - 1] = e;
            return;
        }
    }
    if (n >= c->ways) {
        if ((set[0] & 3) == CL_PREFETCHED) {
            c->unused_prefetch_evictions++;
            c->resident_unused--;
        }
        memmove(set, set + 1, (size_t)(n - 1) * sizeof(CLine));
        n--;
    }
    set[n] = (CLine)line << 2 | (prefetched ? CL_PREFETCHED : 0);
    c->resident_unused += prefetched != 0;
    c->counts[s] = n + 1;
}

/* ------------------------------------------------------------------ */
/* two-level hierarchy */

/* access classes, in ACCESS_CLASS_ORDER */
#define AC_HIT_PREFETCHED 0
#define AC_SHORTER_WAIT 1
#define AC_NON_TIMELY 2
#define AC_MISS_NOT_PREFETCHED 3
#define AC_HIT_OLDER_DEMAND 4
#define AC_PREFETCH_NEVER_HIT 5

/* served-by codes */
#define SERVED_L1 0
#define SERVED_MSHR 1
#define SERVED_L2 2
#define SERVED_DRAM 3

typedef struct {
    int64_t line_bytes;
    int line_shift;         /* log2(line_bytes): a demand's line is addr >> it */
    int64_t l1_latency, l2_hit_latency, dram_fill_latency, service_interval;
    int64_t pf_reserve, backlog_depth;
    uint8_t prefetch_fill_l1;
    NCache l1, l2;
    Mshr l1m, l2m, pfb;
    FillHeap pending;
    int64_t *backlog;
    int backlog_len;
    int64_t dram_next_free;
    int64_t dram_fetches;
    Window predicted;       /* _predicted_not_issued, 256 accesses */
    int64_t access_index;
    int64_t l1_acc, l1_hit, l1_miss;
    int64_t l2_acc, l2_hit, l2_miss;
    int64_t prefetches_issued, prefetches_rejected_mshr, prefetches_redundant;
} Hier;

static int64_t hier_dram_completion(Hier *h, int64_t now, int64_t base_latency) {
    int64_t start = h->dram_next_free;
    if (now > start) start = now;
    h->dram_next_free = start + h->service_interval;
    h->dram_fetches++;
    return start + base_latency;
}

static void hier_note_unissued(Hier *h, int64_t line) {
    win_set(&h->predicted, line, h->access_index);
}

/* try_issue_prefetch result codes */
#define TRY_NONE 0
#define TRY_ISSUED 1
#define TRY_RESIDENT_L2 2

static int hier_try_issue(Hier *h, int64_t line, int64_t now) {
    if (mshr_available(&h->pfb, now) <= 0) return TRY_NONE;
    int64_t completes_at;
    uint8_t fill_l2;
    if (cache_contains(&h->l2, line)) {
        if (!h->prefetch_fill_l1) {
            h->prefetches_redundant++;
            return TRY_RESIDENT_L2;
        }
        cache_lookup(&h->l2, line);
        completes_at = now + h->l2_hit_latency;
        fill_l2 = 0;
    } else {
        if (mshr_available(&h->l2m, now) <= 0) return TRY_NONE;
        completes_at = hier_dram_completion(h, now, h->dram_fill_latency);
        fill_l2 = 1;
        mshr_allocate(&h->l2m, line, now, completes_at);
    }
    mshr_allocate(&h->pfb, line, now, completes_at);
    fheap_push(&h->pending, (Fill){completes_at, line, 1, fill_l2});
    h->prefetches_issued++;
    return TRY_ISSUED;
}

static void hier_drain_backlog(Hier *h, int64_t now) {
    while (h->backlog_len && mshr_available(&h->pfb, now) > 0) {
        int64_t line = h->backlog[0];
        if (cache_contains(&h->l1, line)
            || mshr_lookup(&h->pfb, line, now) >= 0
            || mshr_lookup(&h->l1m, line, now) >= 0) {
            memmove(h->backlog, h->backlog + 1, (size_t)(h->backlog_len - 1) * sizeof(int64_t));
            h->backlog_len--;
            continue;
        }
        if (hier_try_issue(h, line, now) == TRY_NONE) break;
        memmove(h->backlog, h->backlog + 1, (size_t)(h->backlog_len - 1) * sizeof(int64_t));
        h->backlog_len--;
    }
}

static void hier_apply_fills(Hier *h, int64_t now) {
    if (h->pending.len && h->pending.a[0].t <= now) {
        while (h->pending.len && h->pending.a[0].t <= now) {
            Fill f = fheap_pop(&h->pending);
            if (f.fill_l2) cache_fill(&h->l2, f.line, f.prefetched);
            if (!f.prefetched || h->prefetch_fill_l1) cache_fill(&h->l1, f.line, f.prefetched);
        }
    }
    if (h->backlog_len) hier_drain_backlog(h, now);
}

/* demand access; fills the latency / l1_hit / served / ac out-params */
static void hier_demand_access(Hier *h, int64_t line, int64_t now,
                               int64_t *latency, int *l1_hit, int *served, int *ac) {
    if ((h->pending.len && h->pending.a[0].t <= now) || h->backlog_len)
        hier_apply_fills(h, now);
    h->access_index++;
    int64_t l1_latency = h->l1_latency;

    int fresh;
    if (cache_demand_lookup(&h->l1, line, &fresh)) {
        h->l1_acc++; h->l1_hit++;
        *latency = l1_latency;
        *l1_hit = 1;
        *served = SERVED_L1;
        *ac = fresh ? AC_HIT_PREFETCHED : AC_HIT_OLDER_DEMAND;
        return;
    }
    h->l1_acc++; h->l1_miss++;
    *l1_hit = 0;

    int64_t pf_inflight = mshr_lookup(&h->pfb, line, now);
    if (pf_inflight >= 0) {
        int64_t lat = pf_inflight - now;
        if (lat < l1_latency) lat = l1_latency;
        *latency = lat;
        *served = SERVED_MSHR;
        *ac = AC_SHORTER_WAIT;
        return;
    }

    int64_t inflight = mshr_lookup(&h->l1m, line, now);
    if (inflight >= 0) {
        mshr_allocate(&h->l1m, line, now, inflight);  /* secondary-miss merge */
        int64_t lat = inflight - now;
        if (lat < l1_latency) lat = l1_latency;
        *latency = lat;
        *served = SERVED_MSHR;
        *ac = AC_HIT_OLDER_DEMAND;
        return;
    }

    int l2_hit = cache_lookup(&h->l2, line);
    h->l2_acc++;
    if (l2_hit) h->l2_hit++; else h->l2_miss++;

    int64_t issue_at = now;
    if (mshr_available(&h->l1m, now) == 0) {
        int64_t earliest = mshr_earliest(&h->l1m, now);
        if (earliest > issue_at) issue_at = earliest;
    }

    int64_t completes_at;
    if (l2_hit) {
        completes_at = issue_at + h->l2_hit_latency;
        *served = SERVED_L2;
    } else {
        int64_t dram_fill = h->dram_fill_latency;
        completes_at = hier_dram_completion(h, now, dram_fill);
        int64_t floor = issue_at + dram_fill;
        if (floor > completes_at) completes_at = floor;
        *served = SERVED_DRAM;
    }
    *latency = completes_at - now;

    mshr_allocate(&h->l1m, line, issue_at, completes_at);
    if (!l2_hit) mshr_allocate(&h->l2m, line, issue_at, completes_at);
    fheap_push(&h->pending, (Fill){completes_at, line, 0, (uint8_t)!l2_hit});

    if (win_age(&h->predicted, line, h->access_index) >= 0)
        *ac = AC_NON_TIMELY;
    else
        *ac = AC_MISS_NOT_PREFETCHED;
}

/* prefetch of line (the request address // line_bytes) at now; returns
 * the outcome's issued flag */
static int hier_prefetch(Hier *h, int64_t line, int64_t now) {
    if ((h->pending.len && h->pending.a[0].t <= now) || h->backlog_len)
        hier_apply_fills(h, now);
    int64_t reserve = h->pf_reserve;

    if (cache_contains(&h->l1, line)) {
        h->prefetches_redundant++;
        return 0;  /* resident */
    }
    if (mshr_lookup(&h->pfb, line, now) >= 0 || mshr_lookup(&h->l1m, line, now) >= 0) {
        h->prefetches_redundant++;
        return 0;  /* in-flight */
    }
    for (int i = 0; i < h->backlog_len; i++) {
        if (h->backlog[i] == line) {
            h->prefetches_redundant++;
            return 0;  /* queued-already */
        }
    }
    if (mshr_available(&h->pfb, now) > reserve) {
        int r = hier_try_issue(h, line, now);
        if (r == TRY_ISSUED) return 1;
        if (r == TRY_RESIDENT_L2) return 0;
    }
    if (h->backlog_len < h->backlog_depth) {
        h->backlog[h->backlog_len++] = line;
        hier_note_unissued(h, line);
        return 1;  /* queued: PrefetchOutcome(True, "queued") */
    }
    h->prefetches_rejected_mshr++;
    return 0;  /* mshr-pressure */
}

/* ------------------------------------------------------------------ */
/* interval core model */

typedef struct {
    double cursor, last_completion, max_completion, rob_floor;
    int64_t inst_pos;
    int64_t issue_width, rob_size, lq_size;
    double *lq;
    int lq_head, lq_len;
    double *rob_c;
    int64_t *rob_i;
    size_t rob_head, rob_len, rob_cap;  /* ring; cap power of two */
    int64_t stall_cycles, instructions, memory_accesses, cycles;
} Core;

/* an idle core at instruction 0; the LQ/ROB buffers (and any ROB growth)
 * are kept, their rings emptied */
static void core_reset(Core *c) {
    c->cursor = c->last_completion = c->max_completion = c->rob_floor = 0.0;
    c->inst_pos = 0;
    c->lq_head = c->lq_len = 0;
    c->rob_head = c->rob_len = 0;
    c->stall_cycles = c->instructions = c->memory_accesses = c->cycles = 0;
}

static int core_init(Core *c, int64_t issue_width, int64_t rob_size, int64_t lq_size) {
    c->issue_width = issue_width;
    c->rob_size = rob_size;
    c->lq_size = lq_size;
    c->lq = (double *)malloc((size_t)lq_size * sizeof(double));
    c->rob_cap = 256;
    while (c->rob_cap < (size_t)rob_size + 2) c->rob_cap *= 2;
    c->rob_c = (double *)malloc(c->rob_cap * sizeof(double));
    c->rob_i = (int64_t *)malloc(c->rob_cap * sizeof(int64_t));
    return c->lq && c->rob_c && c->rob_i;
}

static void core_free(Core *c) {
    free(c->lq); free(c->rob_c); free(c->rob_i);
    c->lq = 0; c->rob_c = 0; c->rob_i = 0;
}

static int core_rob_push(Core *c, double completion, int64_t inst_pos) {
    if (c->rob_len == c->rob_cap) {
        size_t ncap = c->rob_cap * 2;
        double *nc = (double *)malloc(ncap * sizeof(double));
        int64_t *ni = (int64_t *)malloc(ncap * sizeof(int64_t));
        if (!nc || !ni) { free(nc); free(ni); return 0; }
        for (size_t i = 0; i < c->rob_len; i++) {
            size_t s = (c->rob_head + i) & (c->rob_cap - 1);
            nc[i] = c->rob_c[s]; ni[i] = c->rob_i[s];
        }
        free(c->rob_c); free(c->rob_i);
        c->rob_c = nc; c->rob_i = ni; c->rob_cap = ncap; c->rob_head = 0;
    }
    size_t s = (c->rob_head + c->rob_len) & (c->rob_cap - 1);
    c->rob_c[s] = completion; c->rob_i[s] = inst_pos;
    c->rob_len++;
    return 1;
}
"""

# --- context prefetcher: CPython-exact RNG -----------------------------
# drift: begin native-context-rng
SOURCE_CTX_RNG = r"""
/* ------------------------------------------------------------------ */
/* CPython random.Random, bit for bit: the MT19937 generator seeded via
 * init_by_array (the key is the little-endian uint32 decomposition of
 * abs(seed), computed on the Python side), genrand_res53 for random(),
 * getrandbits-based _randbelow for choice(), and the cumulative-weights
 * bisect of choices(k=1).  Every helper consumes exactly the draws the
 * CPython method would, including rejection-loop retries. */

#include <math.h>

typedef struct RpRng {
    uint32_t mt[624];
    int mti;
} RpRng;

static void mt_init_genrand(RpRng *r, uint32_t s) {
    r->mt[0] = s;
    for (int i = 1; i < 624; i++)
        r->mt[i] = (uint32_t)(1812433253u * (r->mt[i - 1] ^ (r->mt[i - 1] >> 30))
                              + (uint32_t)i);
    r->mti = 624;
}

static void mt_init_by_array(RpRng *r, const uint32_t *key, int key_len) {
    mt_init_genrand(r, 19650218u);
    int i = 1, j = 0;
    int k = 624 > key_len ? 624 : key_len;
    for (; k; k--) {
        r->mt[i] = (r->mt[i] ^ ((r->mt[i - 1] ^ (r->mt[i - 1] >> 30)) * 1664525u))
                   + key[j] + (uint32_t)j;
        i++; j++;
        if (i >= 624) { r->mt[0] = r->mt[623]; i = 1; }
        if (j >= key_len) j = 0;
    }
    for (k = 623; k; k--) {
        r->mt[i] = (r->mt[i] ^ ((r->mt[i - 1] ^ (r->mt[i - 1] >> 30)) * 1566083941u))
                   - (uint32_t)i;
        i++;
        if (i >= 624) { r->mt[0] = r->mt[623]; i = 1; }
    }
    r->mt[0] = 0x80000000u;
    r->mti = 624;
}

static uint32_t mt_genrand(RpRng *r) {
    static const uint32_t mag01[2] = {0u, 0x9908b0dfu};
    uint32_t y;
    if (r->mti >= 624) {
        int kk;
        for (kk = 0; kk < 624 - 397; kk++) {
            y = (r->mt[kk] & 0x80000000u) | (r->mt[kk + 1] & 0x7fffffffu);
            r->mt[kk] = r->mt[kk + 397] ^ (y >> 1) ^ mag01[y & 1u];
        }
        for (; kk < 623; kk++) {
            y = (r->mt[kk] & 0x80000000u) | (r->mt[kk + 1] & 0x7fffffffu);
            r->mt[kk] = r->mt[kk + (397 - 624)] ^ (y >> 1) ^ mag01[y & 1u];
        }
        y = (r->mt[623] & 0x80000000u) | (r->mt[0] & 0x7fffffffu);
        r->mt[623] = r->mt[396] ^ (y >> 1) ^ mag01[y & 1u];
        r->mti = 0;
    }
    y = r->mt[r->mti++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

/* Random.random() == genrand_res53 */
static double mt_random(RpRng *r) {
    uint32_t a = mt_genrand(r) >> 5, b = mt_genrand(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random.getrandbits(k), k in 1..32 (one word; the only sizes used) */
static uint32_t mt_getrandbits(RpRng *r, int k) {
    return mt_genrand(r) >> (32 - k);
}

/* Random._randbelow_with_getrandbits(n), n >= 1: rejection-sample
 * k = n.bit_length() bits until the draw is < n (n == 1 still draws). */
static int64_t mt_randbelow(RpRng *r, int64_t n) {
    int k = 0;
    int64_t v = n;
    while (v) { k++; v >>= 1; }
    uint32_t draw = mt_getrandbits(r, k);
    while ((int64_t)draw >= n) draw = mt_getrandbits(r, k);
    return (int64_t)draw;
}

/* Random.choices(pop, weights)[0] index: cum = accumulate(weights),
 * total = cum[-1] + 0.0, one random() draw, bisect_right(cum, x, 0, n-1). */
static int64_t mt_choices_index_cum(RpRng *r, const double *cum, int64_t n) {
    double total = cum[n - 1] + 0.0;
    double x = mt_random(r) * total;
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (x < cum[mid]) hi = mid; else lo = mid + 1;
    }
    return lo;
}

/* ---- exported reference-vector hooks (test suite only) ---- */

RpRng *rp_rng_new(const uint32_t *key, int key_len) {
    RpRng *r = (RpRng *)malloc(sizeof(RpRng));
    if (!r) return 0;
    mt_init_by_array(r, key, key_len);
    return r;
}

void rp_rng_free(RpRng *r) { free(r); }

double rp_rng_random(RpRng *r) { return mt_random(r); }

uint32_t rp_rng_getrandbits(RpRng *r, int k) { return mt_getrandbits(r, k); }

int64_t rp_rng_choice_index(RpRng *r, int64_t n) { return mt_randbelow(r, n); }

int64_t rp_rng_choices_index(RpRng *r, const double *weights, int64_t n) {
    double *cum = (double *)malloc((size_t)n * sizeof(double));
    if (!cum) return -1;
    cum[0] = weights[0];
    for (int64_t i = 1; i < n; i++) cum[i] = cum[i - 1] + weights[i];
    int64_t idx = mt_choices_index_cum(r, cum, n);
    free(cum);
    return idx;
}
"""
# drift: end native-context-rng

# --- context prefetcher: CPython-exact hashing + rounding --------------
# drift: begin native-context-hash
SOURCE_CTX_HASH = r"""
/* ------------------------------------------------------------------ */
/* CPython hash pipeline for the context keys: long_hash (modulo 2**61-1
 * with the negative-branch -1 -> -2 rule), the xxHash-based tuple hash
 * of 64-bit CPython, and the golden-ratio finalizer from context.py.
 * Plus float.__round__'s half-to-even for the bell reward. */

#define PYHASH_MOD 0x1FFFFFFFFFFFFFFFULL  /* 2**61 - 1 */
#define XXPRIME_1 11400714785074694791ULL
#define XXPRIME_2 14029467366897019727ULL
#define XXPRIME_5 2870177450012600261ULL

/* v % (2**61 - 1) by the Mersenne fold: v = a * 2**61 + b with a < 8,
 * and 2**61 == 1 (mod M), so v == a + b (mod M) with a + b < 2M */
static uint64_t pyhash_mod(uint64_t v) {
    uint64_t r = (v & PYHASH_MOD) + (v >> 61);
    return r >= PYHASH_MOD ? r - PYHASH_MOD : r;
}

/* hash(v) for v >= 0 interpreted as an unsigned 64-bit int */
static int64_t pyhash_u64(uint64_t v) {
    return (int64_t)pyhash_mod(v);
}

/* hash(v) for signed v: hash(|v|) negated for v < 0; -1 becomes -2 */
static int64_t pyhash_i64(int64_t v) {
    if (v >= 0) return (int64_t)pyhash_mod((uint64_t)v);
    uint64_t uv = (uint64_t)(-(v + 1)) + 1u;   /* |v|, INT64_MIN-safe */
    int64_t h = -(int64_t)pyhash_mod(uv);
    if (h == -1) h = -2;
    return h;
}

/* one lane of CPython's tuplehash (xxHash variant) */
static uint64_t xx_round(uint64_t acc, int64_t lane) {
    acc += (uint64_t)lane * XXPRIME_2;
    acc = (acc << 31) | (acc >> 33);
    return acc * XXPRIME_1;
}

static int64_t xx_finish(uint64_t acc, int64_t n) {
    acc += ((uint64_t)n) ^ (XXPRIME_5 ^ 3527539ULL);
    if (acc == (uint64_t)-1) acc = 1546275796ULL;
    return (int64_t)acc;
}

/* CPython tuplehash, item hashes precomputed */
static int64_t pyhash_tuple(const int64_t *item_hashes, int64_t n) {
    uint64_t acc = XXPRIME_5;
    for (int64_t i = 0; i < n; i++) acc = xx_round(acc, item_hashes[i]);
    return xx_finish(acc, n);
}

/* context.py finalizer: key = (h * golden) & MASK64; key ^= key >> 29.
 * The signed-to-unsigned cast reproduces Python's masked big-int product. */
static uint64_t ctx_finalize(int64_t h) {
    uint64_t key = (uint64_t)h * 0x9E3779B97F4A7C15ULL;
    key ^= key >> 29;
    return key;
}

/* round(x) -> int, CPython float.__round__: nearest, ties to even */
static int64_t py_round_i64(double x) {
    double rounded = round(x);
    if (fabs(x - rounded) == 0.5)
        rounded = 2.0 * round(x / 2.0);
    return (int64_t)rounded;
}

/* Attribute-value signedness: LAST_VALUE (4) and REG_VALUE (6) are the
 * two signed attributes; everything else hashes as an unsigned pattern. */
static const uint8_t CTX_SIGNED_ATTR[8] = {0, 0, 0, 0, 1, 0, 1, 0};

/* hash(value) per attribute: the lanes every key gathers from */
static void ctx_lanes(const int64_t *vals, int64_t *lanes) {
    for (int i = 0; i < 8; i++)
        lanes[i] = CTX_SIGNED_ATTR[i] ? pyhash_i64(vals[i])
                                      : pyhash_u64((uint64_t)vals[i]);
}

/* hash((bits, *values[gathered ascending])) + finalize, unmasked, from
 * the lane hashes (a lane does not depend on the bitmap) */
static uint64_t ctx_key_of(const int64_t *lanes, int bits) {
    uint64_t acc = xx_round(XXPRIME_5, (int64_t)bits);  /* hash(bits) == bits */
    int64_t n = 1;
    for (int i = 0; i < 8; i++) {
        if (!((bits >> i) & 1)) continue;
        acc = xx_round(acc, lanes[i]);
        n++;
    }
    return ctx_finalize(xx_finish(acc, n));
}

/* ctx_key_of under all eight bits and under `bits`, the two hashes run
 * side by side (each is one dependent chain of multiplies) */
static void ctx_key_pair(const int64_t *lanes, int bits, uint64_t *all, uint64_t *sub) {
    uint64_t a = xx_round(XXPRIME_5, 255);
    uint64_t b = xx_round(XXPRIME_5, (int64_t)bits);
    int64_t n = 1;
    for (int i = 0; i < 8; i++) {
        a = xx_round(a, lanes[i]);
        if ((bits >> i) & 1) {
            b = xx_round(b, lanes[i]);
            n++;
        }
    }
    *all = ctx_finalize(xx_finish(a, 9));
    *sub = ctx_finalize(xx_finish(b, n));
}

/* ---- exported reference-vector hooks (test suite only) ---- */

int64_t rp_hash_uint(uint64_t v) { return pyhash_u64(v); }

int64_t rp_hash_int(int64_t v) { return pyhash_i64(v); }

int64_t rp_hash_tuple(const int64_t *item_hashes, int64_t n) {
    return pyhash_tuple(item_hashes, n);
}

/* full unmasked context key for an 8-value vector + active bitmap */
int64_t rp_ctx_key(const int64_t *values, int active_bits) {
    int64_t lanes[8];
    ctx_lanes(values, lanes);
    return (int64_t)ctx_key_of(lanes, active_bits);
}
"""
# drift: end native-context-hash

# --- context prefetcher: state + capture -------------------------------
# drift: begin native-context-state
SOURCE_CTX_STATE = r"""
/* ------------------------------------------------------------------ */
/* Context RL prefetcher state: a flat-array port of ContextPrefetcher
 * and its CST / reducer / history / prefetch-queue components.  Every
 * sequential state machine mirrors the interpreted oracle statement for
 * statement; candidate identity is the CST slot index (the interpreted
 * path compares Candidate objects with `is`, and slots are objects). */

#define PF_CONTEXT 5
#define CTX_ICFG_FIXED 42
#define CTX_DCFG_FIXED 6

typedef struct {
    uint64_t reduced;
    int64_t delta;
    int64_t depth;
    int expired;
} FbEvent;

/* The capture geometry of a context row: everything the context keys
 * and the collection's range test read besides the trace, the branch
 * history mask and the start state.  Rows with equal geometries capture
 * identically, so they share one trace program. */
typedef struct {
    int64_t block_bytes, granularity;
    int block_shift, granularity_shift;   /* shift_of(): -1 divides */
    int64_t delta_min, delta_max;
    int init_bits;        /* a reducer entry's bits when allocated */
    int addr_depth;       /* recent blocks the address history folds */
    int n_depths;
    const int64_t *depths;   /* ascending, distinct, in [1, history] */
} CtxGeom;

/* ctx_on_access's input from the trace program, per access: the 255
 * key, the key under init_bits (both unmasked), the address-history
 * fold, then one bit per sample depth whose delta is in range */
#define CT_KEY_ALL 0
#define CT_KEY_INIT 1
#define CT_HFOLD 2
#define CT_MASK 3

typedef struct {
    CtxGeom geom;       /* what it was built for */
    int stride;         /* words per access: CT_MASK + mask words */
    uint64_t *ent;
} CtxTrace;

typedef struct Ctx {
    /* geometry */
    int cst_entries, cst_links, cst_index_bits;
    uint64_t cst_index_mask, cst_tag_mask;
    int r_entries, r_index_bits;
    uint64_t r_index_mask, r_tag_mask;
    uint64_t full_mask, reduced_mask;
    int hist_cap;
    int64_t q_cap;
    CtxGeom geom;       /* geom.depths is sample_depths */
    int mask_words;
    /* reward config geometry + live window */
    int64_t cfg_lo, cfg_hi, cfg_center;
    int64_t peak, late_pen, early_pen;
    int reward_flat;
    int64_t rw_center;
    int64_t *rw_tab;    /* reward by depth, q_cap + 1 entries */
    /* scores / bandit policy */
    int64_t score_min, score_max, initial_score, replace_threshold, score_threshold;
    int max_degree;
    int policy_softmax, adaptive_eps, shadow_on;
    double eps_min, eps_range, fixed_eps, alpha, shadow_p, softmax_temp;
    int n_thresholds;
    double *thresholds;
    /* reducer adaptation */
    int initial_popcount;
    int adaptive_reduction;
    int64_t overload_refs, overload_period, underload_lookups;
    /* adaptive reward window */
    int adaptive_window;
    int64_t window_update_period, center_lo_bound, center_hi_bound;
    /* collection + capture: the depths, and the recent blocks a trace
     * program starts from (rolled forward at each run's end) */
    int64_t *sample_depths;
    int64_t *recent;
    int n_recent;
    /* RNG + EMAs */
    RpRng rng;
    double accuracy_ema, depth_ema;
    /* CST flat arrays (per entry; candidates entry-major) */
    uint8_t *cst_used;
    int64_t *cst_tag;
    int64_t *cst_ptr;
    int32_t *cst_ncand;
    int64_t *cst_delta;
    int64_t *cst_score;
    /* reducer flat arrays */
    uint8_t *r_used, *r_haskey;
    int32_t *r_active;
    int64_t *r_tag, *r_lookups, *r_lookadapt;
    uint64_t *r_cstkey;
    /* history ring (count monotonic, ring wraps) */
    int64_t *h_reduced, *h_line;
    int64_t h_count;
    int h_pos;
    /* prefetch queue: slot pool + FIFO ring + per-target chain buckets */
    int64_t *q_red, *q_delta, *q_target, *q_issue;
    uint8_t *q_hit;
    int32_t *q_bnext;
    int32_t *q_btail;   /* per bucket head: the bucket's last slot */
    int32_t *q_fifo;
    size_t q_fifo_cap;  /* power of two */
    size_t q_head;
    int64_t q_len;
    int32_t *q_freelist;
    int q_nfree;
    Map by_block;       /* target_line -> head slot of bucket chain */
    FbEvent *events;    /* match/expiry scratch */
    /* selection scratch */
    int *ranked, *sel_real, *sel_shadow, *pool;
    double *weights, *cum;
    /* hit-depth histogram, Counter-insertion-ordered for the goldens */
    Map hist_map;       /* depth -> slot in hg arrays */
    int64_t *hg_depth, *hg_count;
    int64_t hg_len, hg_cap;
    int oom;
    /* counters mirrored from the interpreted components */
    int64_t explorations, exploitations;
    int64_t predictions_real, predictions_shadow;
    int64_t rewards_applied, window_updates, feedback_events;
    int64_t cst_assoc_added, cst_assoc_rej_full, cst_conflicts, cst_occ;
    int64_t r_allocs, r_conflicts, r_activations, r_deactivations, r_occ;
    int64_t q_hits, q_expirations;
#ifdef RP_UNIT_TIMING
    UnitClock *clock;   /* the running simulator's, set by rp_run */
#endif
} Ctx;

static int popcount8(int v) {
    int c = 0;
    while (v) { c += v & 1; v >>= 1; }
    return c;
}

/* uaddr // d, as a shift when d is a power of two (shift >= 0) */
static int64_t ctx_div(uint64_t uaddr, int shift, int64_t d) {
    return shift >= 0 ? (int64_t)(uaddr >> shift) : (int64_t)(uaddr / (uint64_t)d);
}

/* the capture geometry a context row declares; depths point into it */
static void ctx_geom_of_row(CtxGeom *g, const int64_t *ic) {
    g->block_bytes = ic[9];
    g->granularity = ic[10];
    g->block_shift = shift_of(g->block_bytes);
    g->granularity_shift = shift_of(g->granularity);
    g->delta_min = ic[11];
    g->delta_max = ic[12];
    g->init_bits = (int)ic[25];
    g->addr_depth = (int)ic[39];
    g->n_depths = (int)ic[40];
    g->depths = ic + CTX_ICFG_FIXED;
}

static int ctx_geom_eq(const CtxGeom *a, const CtxGeom *b) {
    if (a->block_bytes != b->block_bytes || a->granularity != b->granularity
        || a->delta_min != b->delta_min || a->delta_max != b->delta_max
        || a->init_bits != b->init_bits || a->addr_depth != b->addr_depth
        || a->n_depths != b->n_depths)
        return 0;
    for (int i = 0; i < a->n_depths; i++)
        if (a->depths[i] != b->depths[i]) return 0;
    return 1;
}

/* ContextTracker's recent blocks: a bounded deque, oldest first */
static void ctx_push_recent(int64_t *recent, int *n_recent, int cap, int64_t block) {
    if (cap <= 0) return;
    if (*n_recent == cap) {
        for (int i = 1; i < cap; i++) recent[i - 1] = recent[i];
        recent[cap - 1] = block;
    } else {
        recent[(*n_recent)++] = block;
    }
}

/* ContextTracker.capture's address history: splitmix fold over the
 * recent blocks, oldest first, before the access's own is appended */
static uint64_t ctx_fold(const int64_t *recent, int n_recent) {
    uint64_t hfold = 0;
    for (int i = 0; i < n_recent; i++) {
        uint64_t state = hfold + (uint64_t)recent[i] + 0x9E3779B97F4A7C15ULL;
        state ^= state >> 30;
        state *= 0xBF58476D1CE4E5B9ULL;
        state ^= state >> 27;
        state *= 0x94D049BB133111EBULL;
        hfold = state ^ (state >> 31);
    }
    return hfold;
}

/* ContextTracker.capture: the record's 8-value vector hashed into its
 * lanes.  An unhinted record's hints read as zero (NO_HINTS); the last
 * loaded value, the branch history and the fold come from the stream. */
static void ctx_capture_lanes(const uint8_t *rec, int64_t last_value, uint64_t bhr,
                              uint64_t hfold, int64_t *lanes) {
    int hinted = (rec_flags(rec) >> 2) & 1;
    int64_t vals[8];
    vals[0] = (int64_t)rec_pc(rec);                          /* IP */
    vals[1] = hinted ? (int64_t)rec_type_id(rec) : 0;        /* TYPE_ID */
    vals[2] = hinted ? (int64_t)rec_link_offset(rec) : 0;    /* LINK_OFFSET */
    vals[3] = hinted ? (int64_t)rec_ref_form(rec) : 0;       /* REF_FORM */
    vals[4] = last_value;                 /* LAST_VALUE (signed) */
    vals[5] = (int64_t)bhr;               /* BRANCH_HISTORY */
    vals[6] = rec_reg_value(rec);         /* REG_VALUE (signed) */
    vals[7] = (int64_t)hfold;             /* ADDR_HISTORY */
    ctx_lanes(vals, lanes);
}

/* where a trace program starts: the branch history, recent blocks and
 * history ring of the cell it serves; all zero is a fresh cell */
typedef struct {
    uint64_t bhr;
    const int64_t *recent;
    int n_recent;
    const int64_t *h_line;
    int hist_cap, h_pos;
    int64_t h_count;
} CtxStart;

static void ctx_trace_free(CtxTrace *t) {
    free(t->ent);
    t->ent = 0;
}

/* The trace program of n records for geometry g, from start state st:
 * per access, the keys and the range-tested sample positions that
 * ctx_on_access would compute inline.  It folds the branch history as
 * rp_run does, keeps its own recent blocks and line ring, and restarts
 * the last loaded value at 0 where the run after a warmup begins
 * (rp_run's local, fresh per call).  A mask bit is set only for depths
 * before the first one past the history's count, as the inline loop
 * breaks there.  0 when an allocation fails. */
static int ctx_trace_build(CtxTrace *t, const CtxGeom *g, const CtxStart *st,
                           const uint8_t *recs, int64_t n, int64_t warmup,
                           uint64_t bhr_mask) {
    int words = (g->n_depths + 63) / 64;
    int ring_cap = g->n_depths > 0 ? (int)g->depths[g->n_depths - 1] : 1;
    int depth_cap = g->addr_depth > 0 ? g->addr_depth : 1;
    t->geom = *g;
    t->stride = CT_MASK + words;
    t->ent = (uint64_t *)malloc((size_t)(n > 0 ? n : 1) * (size_t)t->stride
                                * sizeof(uint64_t));
    int64_t *ring = (int64_t *)malloc((size_t)ring_cap * sizeof(int64_t));
    int64_t *recent = (int64_t *)malloc((size_t)depth_cap * sizeof(int64_t));
    if (!t->ent || !ring || !recent) {
        free(ring);
        free(recent);
        ctx_trace_free(t);
        return 0;
    }
    /* the start ring's newest lines (every sample depth fits a ring) */
    int64_t count = st->h_count;
    int64_t have = count < ring_cap ? count : ring_cap;
    for (int64_t j = 1; j <= have; j++) {
        int src = st->h_pos - (int)j;
        if (src < 0) src += st->hist_cap;
        ring[ring_cap - j] = st->h_line[src];
    }
    int pos = 0;
    int n_recent = st->n_recent;
    for (int i = 0; i < n_recent; i++) recent[i] = st->recent[i];
    uint64_t bhr = st->bhr;
    int64_t last_value = 0;
    for (int64_t k = 0; k < n; k++) {
        const uint8_t *rec = recs + k * REC_SIZE;
        uint64_t *e = t->ent + k * t->stride;
        if (k == warmup) last_value = 0;
        int cnt = (int)rec_branch_count(rec);
        if (cnt) {
            uint64_t bb = rec_branch_bits(rec);
            for (int b = 0; b < cnt; b++)
                bhr = ((bhr << 1) | ((bb >> b) & 1)) & bhr_mask;
        }
        uint64_t uaddr = rec_addr(rec);
        int64_t line = ctx_div(uaddr, g->granularity_shift, g->granularity);
        uint64_t hfold = ctx_fold(recent, n_recent);
        int64_t lanes[8];
        ctx_capture_lanes(rec, last_value, bhr, hfold, lanes);
        ctx_key_pair(lanes, g->init_bits, &e[CT_KEY_ALL], &e[CT_KEY_INIT]);
        e[CT_HFOLD] = hfold;
        uint64_t *mask = e + CT_MASK;
        for (int w = 0; w < words; w++) mask[w] = 0;
        for (int i = 0; i < g->n_depths; i++) {
            int64_t depth = g->depths[i];
            if (depth > count) break;
            int ridx = pos - (int)depth;
            if (ridx < 0) ridx += ring_cap;
            int64_t delta = line - ring[ridx];
            uint64_t in_range = (uint64_t)((delta != 0) & (g->delta_min <= delta)
                                           & (delta <= g->delta_max));
            mask[i >> 6] |= in_range << (i & 63);
        }
        ring[pos] = line;
        pos = pos + 1 == ring_cap ? 0 : pos + 1;
        count++;
        ctx_push_recent(recent, &n_recent, g->addr_depth,
                        ctx_div(uaddr, g->block_shift, g->block_bytes));
        if (rec_flags(rec) & 1) last_value = rec_value(rec);
    }
    free(ring);
    free(recent);
    return 1;
}

/* one access as ctx_on_access reads it: its trace-program entry, plus
 * what rebuilds the lanes where a key needs bits the program does not
 * hold (a reducer entry whose bits adapted, ctx_adapt) */
typedef struct {
    const uint64_t *ent;
    const uint8_t *rec;
    int64_t last_value;
    uint64_t bhr;
    int have_lanes;
    int64_t lanes[8];
} CtxAccess;

/* ContextCapture.hash: the unmasked finalized key of this access's
 * vector under an active bitmap; callers apply their own bit masks. */
static uint64_t ctx_access_key(const Ctx *cx, CtxAccess *a, int bits) {
    if (bits == 255) return a->ent[CT_KEY_ALL];
    if (bits == cx->geom.init_bits) return a->ent[CT_KEY_INIT];
    if (!a->have_lanes) {
        ctx_capture_lanes(a->rec, a->last_value, a->bhr, a->ent[CT_HFOLD], a->lanes);
        a->have_lanes = 1;
    }
    return ctx_key_of(a->lanes, bits);
}

/* the recent blocks after a run of n records: where the next run's
 * trace program starts */
static void ctx_roll_recent(Ctx *cx, const uint8_t *recs, int64_t n) {
    const CtxGeom *g = &cx->geom;
    for (int64_t k = n > g->addr_depth ? n - g->addr_depth : 0; k < n; k++)
        ctx_push_recent(cx->recent, &cx->n_recent, g->addr_depth,
                        ctx_div(rec_addr(recs + k * REC_SIZE), g->block_shift,
                                g->block_bytes));
}
"""
# drift: end native-context-state

# --- context prefetcher: reward window ---------------------------------
# drift: begin native-context-reward
SOURCE_CTX_REWARD = r"""
/* ------------------------------------------------------------------ */
/* RewardFunction / FlatRewardFunction.  The bell shape recomputes
 * sigma/denom from the live window geometry exactly as __post_init__
 * (float divide by sqrt(2*log(peak)), denom = 2*pow(sigma, 2)); the
 * adapter gates bell configs with peak == 1 (interpreted path raises
 * ZeroDivisionError at evaluation time, so the kernel never sees it).
 * The reward of every depth 0..q_cap is computed here, once per window,
 * into a table: the config keeps window_hi <= the queue's entries and a
 * recentered hi is capped there, so a depth past q_cap is past the
 * window too, and a reward is asked only for a depth >= 0. */

static void ctx_set_reward(Ctx *cx, int64_t lo, int64_t hi, int64_t center) {
    cx->rw_center = center;
    double denom = 0.0;
    if (!cx->reward_flat && cx->peak > 1) {
        int64_t half_lo = center - lo, half_hi = hi - center;
        int64_t half = half_lo > half_hi ? half_lo : half_hi;
        double sigma = (double)half / sqrt(2.0 * log((double)cx->peak));
        denom = 2.0 * pow(sigma, 2.0);
    }
    for (int64_t depth = 0; depth <= cx->q_cap; depth++) {
        int64_t r;
        if (depth < lo) {
            r = cx->late_pen;
        } else if (depth > hi) {
            r = cx->early_pen;
        } else {
            if (cx->reward_flat) {
                r = cx->peak / 2;   /* peak >= 1, so // matches / */
            } else {
                double d = (double)(depth - center);
                r = py_round_i64((double)cx->peak * exp(-(d * d) / denom));
            }
            if (r < 1) r = 1;
        }
        cx->rw_tab[depth] = r;
    }
}

/* reward for a non-expired feedback depth (depth >= 0) */
static int64_t ctx_reward(const Ctx *cx, int64_t depth) {
    return depth > cx->q_cap ? cx->early_pen : cx->rw_tab[depth];
}

/* ContextPrefetcher._recenter_window: clamp the depth EMA into the
 * configured center bounds with Python's min/max tie semantics, keep
 * the ORIGINAL config's half-widths, cap hi at the queue capacity. */
static void ctx_recenter(Ctx *cx) {
    int64_t lo_b = cx->center_lo_bound, hi_b = cx->center_hi_bound;
    double ema = cx->depth_ema;
    int64_t center;
    if (ema > (double)lo_b) {
        if (ema < (double)hi_b) center = py_round_i64(ema);
        else center = hi_b;
    } else {
        center = lo_b < hi_b ? lo_b : hi_b;
    }
    if (center == cx->rw_center) return;
    int64_t half_lo = cx->cfg_center - cx->cfg_lo;
    int64_t half_hi = cx->cfg_hi - cx->cfg_center;
    int64_t hi = center + half_hi;
    if (hi > cx->q_cap) hi = cx->q_cap;
    int64_t lo = center - half_lo;
    if (lo < 1) lo = 1;
    ctx_set_reward(cx, lo, hi, center < hi ? center : hi);
    cx->window_updates++;
}
"""
# drift: end native-context-reward

# --- context prefetcher: CST -------------------------------------------
# drift: begin native-context-cst
SOURCE_CTX_CST = r"""
/* ------------------------------------------------------------------ */
/* ContextStatesTable on flat arrays.  A slot "for update" reproduces
 * _entry_for_update / the inlined collection insert: tag mismatch or
 * empty slot allocates a fresh entry (counting the conflict eviction),
 * wiping candidates and the pointer count. */

static int64_t cst_slot_for_update(Ctx *cx, uint64_t rh) {
    int64_t idx = (int64_t)(rh & cx->cst_index_mask);
    int64_t tag = (int64_t)((rh >> cx->cst_index_bits) & cx->cst_tag_mask);
    if (cx->cst_used[idx]) {
        if (cx->cst_tag[idx] == tag) return idx;
        cx->cst_conflicts++;
    } else {
        cx->cst_occ++;
        cx->cst_used[idx] = 1;
    }
    cx->cst_tag[idx] = tag;
    cx->cst_ptr[idx] = 0;
    cx->cst_ncand[idx] = 0;
    return idx;
}

/* lookup without mutation: slot index, or -1 on miss/tag mismatch */
static int64_t cst_find_slot(const Ctx *cx, uint64_t rh) {
    int64_t idx = (int64_t)(rh & cx->cst_index_mask);
    if (!cx->cst_used[idx]) return -1;
    int64_t tag = (int64_t)((rh >> cx->cst_index_bits) & cx->cst_tag_mask);
    return cx->cst_tag[idx] == tag ? idx : -1;
}

/* add_association: dedup on delta, append when room, else replace the
 * FIRST minimum-score victim iff its score <= replace_threshold. */
static void cst_add_assoc(Ctx *cx, uint64_t rh, int64_t delta) {
    int64_t e = cst_slot_for_update(cx, rh);
    int64_t base = e * cx->cst_links;
    int n = cx->cst_ncand[e];
    for (int i = 0; i < n; i++)
        if (cx->cst_delta[base + i] == delta) return;
    if (n < cx->cst_links) {
        cx->cst_delta[base + n] = delta;
        cx->cst_score[base + n] = cx->initial_score;
        cx->cst_ncand[e] = n + 1;
        cx->cst_assoc_added++;
        return;
    }
    int vi = 0;
    int64_t vscore = cx->cst_score[base];
    for (int i = 1; i < n; i++)
        if (cx->cst_score[base + i] < vscore) { vscore = cx->cst_score[base + i]; vi = i; }
    if (vscore <= cx->replace_threshold) {
        cx->cst_delta[base + vi] = delta;
        cx->cst_score[base + vi] = cx->initial_score;
        cx->cst_assoc_added++;
    } else {
        cx->cst_assoc_rej_full++;
    }
}

static void cst_add_pointer(Ctx *cx, uint64_t rh) {
    cx->cst_ptr[cst_slot_for_update(cx, rh)]++;
}

static void cst_remove_pointer(Ctx *cx, uint64_t rh) {
    int64_t idx = (int64_t)(rh & cx->cst_index_mask);
    if (!cx->cst_used[idx]) return;
    int64_t tag = (int64_t)((rh >> cx->cst_index_bits) & cx->cst_tag_mask);
    if (cx->cst_tag[idx] == tag && cx->cst_ptr[idx] > 0) cx->cst_ptr[idx]--;
}
"""
# drift: end native-context-cst

# --- context prefetcher: feedback --------------------------------------
# drift: begin native-context-feedback
SOURCE_CTX_FEEDBACK = r"""
/* ------------------------------------------------------------------ */
/* ContextPrefetcher._apply_feedback + the hit-depth histogram.  The
 * histogram preserves Counter first-insertion order (the interpreted
 * result iterates .items() and the goldens byte-compare that order),
 * so it lives in parallel depth/count arrays keyed by a map. */

static void hist_add(Ctx *cx, int64_t depth) {
    int64_t slot = map_get(&cx->hist_map, depth, -1);
    if (slot >= 0) { cx->hg_count[slot]++; return; }
    if (cx->hg_len == cx->hg_cap) {
        int64_t ncap = cx->hg_cap * 2;
        int64_t *nd = (int64_t *)realloc(cx->hg_depth, (size_t)ncap * sizeof(int64_t));
        int64_t *nc = (int64_t *)realloc(cx->hg_count, (size_t)ncap * sizeof(int64_t));
        if (nd) cx->hg_depth = nd;
        if (nc) cx->hg_count = nc;
        if (!nd || !nc) { cx->oom = 1; return; }
        cx->hg_cap = ncap;
    }
    cx->hg_depth[cx->hg_len] = depth;
    cx->hg_count[cx->hg_len] = 1;
    if (!map_set(&cx->hist_map, depth, cx->hg_len)) { cx->oom = 1; return; }
    cx->hg_len++;
}

static void ctx_apply_feedback(Ctx *cx, const FbEvent *ev, int n) {
    for (int i = 0; i < n; i++) {
        int64_t depth = ev[i].depth;
        int64_t reward;
        int hit;
        if (ev[i].expired || depth < 0) {
            reward = cx->early_pen;   /* expiry penalty == early, both shapes */
            hit = 0;
        } else {
            reward = ctx_reward(cx, depth);
            hist_add(cx, depth);
            hit = reward > 0;
            cx->depth_ema += 0.005 * ((double)depth - cx->depth_ema);
        }
        cx->accuracy_ema += cx->alpha * ((double)hit - cx->accuracy_ema);
        int64_t e = cst_find_slot(cx, ev[i].reduced);
        if (e >= 0) {
            int64_t base = e * cx->cst_links;
            int nc = cx->cst_ncand[e];
            for (int c = 0; c < nc; c++) {
                if (cx->cst_delta[base + c] != ev[i].delta) continue;
                int64_t score = cx->cst_score[base + c] + reward;
                if (score > cx->score_max) score = cx->score_max;
                else if (score < cx->score_min) score = cx->score_min;
                cx->cst_score[base + c] = score;
                cx->rewards_applied++;
                break;
            }
        }
    }
    cx->feedback_events += n;
    if (cx->adaptive_window && cx->feedback_events >= cx->window_update_period) {
        cx->feedback_events = 0;
        ctx_recenter(cx);
    }
}
"""
# drift: end native-context-feedback

# --- context prefetcher: reducer ---------------------------------------
# drift: begin native-context-reducer
SOURCE_CTX_REDUCER = r"""
/* ------------------------------------------------------------------ */
/* Reducer.adapt: overload activates the lowest clear attribute bit,
 * underload deactivates the highest set non-IP bit; any change rehashes
 * the reduced key and migrates the CST pointer. */

static uint64_t ctx_adapt(Ctx *cx, int64_t ri, uint64_t reduced, CtxAccess *a) {
    cx->r_lookadapt[ri] = cx->r_lookups[ri];
    int64_t ce = cst_find_slot(cx, reduced);
    int active = cx->r_active[ri];
    int new_active = active;
    if (ce >= 0 && cx->cst_ptr[ce] >= cx->overload_refs) {
        for (int b = 0; b < 8; b++)
            if (!((active >> b) & 1)) { new_active = active | (1 << b); break; }
        if (new_active != active) { cx->r_active[ri] = (int32_t)new_active; cx->r_activations++; }
    } else if (ce >= 0 && cx->cst_ptr[ce] <= 1
               && cx->r_lookups[ri] >= cx->underload_lookups) {
        int any_pos = 0;
        int64_t base = ce * cx->cst_links;
        int nc = cx->cst_ncand[ce];
        for (int c = 0; c < nc; c++)
            if (cx->cst_score[base + c] > 0) { any_pos = 1; break; }
        if (!any_pos && popcount8(active) > cx->initial_popcount) {
            for (int b = 7; b >= 1; b--)   /* never drop IP (bit 0) */
                if ((active >> b) & 1) { new_active = active & ~(1 << b); break; }
            if (new_active != active) { cx->r_active[ri] = (int32_t)new_active; cx->r_deactivations++; }
        }
    }
    if (new_active == active) return reduced;
    uint64_t nk = ctx_access_key(cx, a, new_active) & cx->reduced_mask;
    if (cx->r_haskey[ri]) cst_remove_pointer(cx, cx->r_cstkey[ri]);
    cst_add_pointer(cx, nk);
    cx->r_cstkey[ri] = nk;
    cx->r_haskey[ri] = 1;
    return nk;
}
"""
# drift: end native-context-reducer

# --- context prefetcher: epsilon-greedy selection ----------------------
# drift: begin native-context-select
SOURCE_CTX_SELECT = r"""
/* ------------------------------------------------------------------ */
/* EpsilonGreedyPolicy.select (the inlined on_access fast path).  Draw
 * order is load-bearing: the epsilon random() ALWAYS fires when the
 * candidate list is non-empty, an exploration adds one choice() draw,
 * then the shadow random() fires iff shadow prefetching is on.  The
 * single-candidate special case skips the sort and degree math. */

static void ctx_select_egreedy(Ctx *cx, int64_t ce, int *n_real, int *n_shadow) {
    int64_t base = ce * cx->cst_links;
    int nc = cx->cst_ncand[ce];
    int *ranked = cx->ranked;
    int nr, nsel = 0, nsh = 0;
    double ema = cx->accuracy_ema;
    if (nc == 1) {
        ranked[0] = 0;
        nr = 1;
        if (cx->cst_score[base] >= cx->score_threshold) cx->sel_real[nsel++] = 0;
    } else {
        /* stable descending sort on score (insertion sort, strict <) */
        for (int i = 0; i < nc; i++) {
            int64_t sc = cx->cst_score[base + i];
            int j = i;
            while (j > 0 && cx->cst_score[base + ranked[j - 1]] < sc) {
                ranked[j] = ranked[j - 1];
                j--;
            }
            ranked[j] = i;
        }
        nr = nc;
        int level = 1;
        for (int t = 0; t < cx->n_thresholds; t++)
            if (ema >= cx->thresholds[t]) level++;
        if (level > cx->max_degree) level = cx->max_degree;
        for (int i = 0; i < level && i < nr; i++)
            if (cx->cst_score[base + ranked[i]] >= cx->score_threshold)
                cx->sel_real[nsel++] = ranked[i];
    }
    double eps = cx->adaptive_eps ? cx->eps_min + cx->eps_range * (1.0 - ema)
                                  : cx->fixed_eps;
    if (mt_random(&cx->rng) < eps) {
        int choice = ranked[mt_randbelow(&cx->rng, nr)];
        cx->explorations++;
        int present = 0;
        for (int i = 0; i < nsel; i++)
            if (cx->sel_real[i] == choice) { present = 1; break; }
        if (!present) cx->sel_real[nsel++] = choice;
    } else {
        cx->exploitations++;
    }
    if (cx->shadow_on && mt_random(&cx->rng) < cx->shadow_p) {
        int choice = ranked[mt_randbelow(&cx->rng, nr)];
        int present = 0;
        for (int i = 0; i < nsel; i++)
            if (cx->sel_real[i] == choice) { present = 1; break; }
        if (!present) cx->sel_shadow[nsh++] = choice;
    }
    *n_real = nsel;
    *n_shadow = nsh;
}
"""
# drift: end native-context-select

# --- context prefetcher: softmax selection -----------------------------
# drift: begin native-context-softmax
SOURCE_CTX_SOFTMAX = r"""
/* ------------------------------------------------------------------ */
/* SoftmaxPolicy.select: degree computed once, then per pick a fresh
 * pool of not-yet-chosen candidates in rank order, temperature scaled
 * by the accuracy EMA, weights exp((score-top)/tau) accumulated the
 * way random.choices builds cum_weights, ONE random() per pick. */

static void ctx_select_softmax(Ctx *cx, int64_t ce, int *n_real, int *n_shadow) {
    int64_t base = ce * cx->cst_links;
    int nc = cx->cst_ncand[ce];
    int *ranked = cx->ranked;
    for (int i = 0; i < nc; i++) {
        int64_t sc = cx->cst_score[base + i];
        int j = i;
        while (j > 0 && cx->cst_score[base + ranked[j - 1]] < sc) {
            ranked[j] = ranked[j - 1];
            j--;
        }
        ranked[j] = i;
    }
    int nr = nc;   /* on_access gates the empty case before any draw */
    double ema = cx->accuracy_ema;
    int level = 1;
    for (int t = 0; t < cx->n_thresholds; t++)
        if (ema >= cx->thresholds[t]) level++;
    if (level > cx->max_degree) level = cx->max_degree;
    int nsel = 0, nsh = 0;
    for (int d = 0; d < level; d++) {
        int np = 0;
        for (int i = 0; i < nr; i++) {
            int c = ranked[i];
            int chosen = 0;
            for (int s = 0; s < nsel; s++)
                if (cx->sel_real[s] == c) { chosen = 1; break; }
            if (!chosen) cx->pool[np++] = c;
        }
        if (!np) break;
        double tau = cx->softmax_temp * (1.0 - 0.75 * cx->accuracy_ema);
        int64_t top = cx->cst_score[base + cx->pool[0]];
        for (int i = 1; i < np; i++) {
            int64_t sc = cx->cst_score[base + cx->pool[i]];
            if (sc > top) top = sc;
        }
        for (int i = 0; i < np; i++)
            cx->weights[i] = exp((double)(cx->cst_score[base + cx->pool[i]] - top) / tau);
        cx->cum[0] = cx->weights[0];
        for (int i = 1; i < np; i++) cx->cum[i] = cx->cum[i - 1] + cx->weights[i];
        int choice = cx->pool[mt_choices_index_cum(&cx->rng, cx->cum, np)];
        if (choice == ranked[0]) cx->exploitations++; else cx->explorations++;
        cx->sel_real[nsel++] = choice;
    }
    if (cx->shadow_on && mt_random(&cx->rng) < cx->shadow_p) {
        int choice = ranked[mt_randbelow(&cx->rng, nr)];
        int present = 0;
        for (int i = 0; i < nsel; i++)
            if (cx->sel_real[i] == choice) { present = 1; break; }
        if (!present) cx->sel_shadow[nsh++] = choice;
    }
    *n_real = nsel;
    *n_shadow = nsh;
}
"""
# drift: end native-context-softmax

# --- context prefetcher: queue + access loop ---------------------------
# drift: begin native-context-kernel
SOURCE_CTX_ACCESS = r"""
/* ------------------------------------------------------------------ */
/* PrefetchQueue + ContextPrefetcher.on_access.  Buckets are singly
 * linked slot chains headed in the by_block map, each head carrying its
 * bucket's tail slot (q_btail) so a push appends without a walk.  Two
 * interpreted invariants keep the chains exact:
 *  - a present bucket is non-empty and all-unhit (an entry turns hit
 *    only in match, which pops its whole bucket), so the map-presence
 *    probe is the shadow flag and match needs no per-entry hit check;
 *  - the FIFO's oldest entry, when evicted unhit, heads its bucket
 *    (everything pushed earlier to the same target was evicted or popped
 *    first), and when evicted hit it is in no bucket at all (its bucket
 *    was popped; a newer bucket for the target holds only newer, unhit
 *    entries, none equal to it), so eviction only ever unlinks a head. */

/* push + FIFO overflow: an evicted unhit entry leaves the head of its
 * bucket and applies a single expiry feedback event MID push loop,
 * exactly as the interpreted queue.push.  Returns whether a bucket for
 * the target was already present (the shadow flag), through the same
 * probe that appends to it. */
static int q_push_entry(Ctx *cx, uint64_t reduced, int64_t delta,
                        int64_t target, int64_t issue_index) {
    int slot = cx->q_freelist[--cx->q_nfree];
    cx->q_red[slot] = (int64_t)reduced;
    cx->q_delta[slot] = delta;
    cx->q_target[slot] = target;
    cx->q_issue[slot] = issue_index;
    cx->q_hit[slot] = 0;
    cx->q_bnext[slot] = -1;
    int present;
    size_t ms = map_find_or_add(&cx->by_block, target, slot, &present);
    if (ms == (size_t)-1) {   /* the run fails; keep the queue consistent */
        cx->q_nfree++;
        cx->oom = 1;
        return 0;
    }
    cx->q_fifo[(cx->q_head + (size_t)cx->q_len) & (cx->q_fifo_cap - 1)] = slot;
    cx->q_len++;
    if (present) {
        int head = (int)cx->by_block.ents[ms].val;
        cx->q_bnext[cx->q_btail[head]] = slot;
        cx->q_btail[head] = slot;
    } else {
        cx->q_btail[slot] = slot;
    }
    if (cx->q_len > cx->q_cap) {
        int ev = cx->q_fifo[cx->q_head & (cx->q_fifo_cap - 1)];
        cx->q_head++;
        cx->q_len--;
        cx->q_freelist[cx->q_nfree++] = ev;
        if (!cx->q_hit[ev]) {
            size_t es = map_find(&cx->by_block, cx->q_target[ev]);
            int next = cx->q_bnext[ev];
            if (next >= 0) {
                cx->by_block.ents[es].val = next;
                cx->q_btail[next] = cx->q_btail[ev];
            } else {
                map_del_slot(&cx->by_block, es);
            }
            FbEvent e;
            e.reduced = (uint64_t)cx->q_red[ev];
            e.delta = cx->q_delta[ev];
            e.depth = cx->q_cap;
            e.expired = 1;
            cx->q_expirations++;
            ctx_apply_feedback(cx, &e, 1);
        }
    }
    return present;
}

/* PrefetchQueue.match: pop the whole bucket at map slot ms, mark hits,
 * emit feedback events in bucket (issue) order. */
static int ctx_q_match(Ctx *cx, size_t ms, int64_t index) {
    int cur = (int)cx->by_block.ents[ms].val;
    map_del_slot(&cx->by_block, ms);
    int n = 0;
    while (cur >= 0) {
        cx->q_hit[cur] = 1;
        cx->events[n].reduced = (uint64_t)cx->q_red[cur];
        cx->events[n].delta = cx->q_delta[cur];
        cx->events[n].depth = index - cx->q_issue[cur];
        cx->events[n].expired = 0;
        n++;
        cur = cx->q_bnext[cur];
    }
    cx->q_hits += n;
    return n;
}

/* ContextPrefetcher.on_access: capture -> feedback -> collection ->
 * reduction -> prediction -> history push, statement for statement.
 * The capture is the access's trace-program entry (ctx_trace_build):
 * its keys, and its mask of the sample depths whose delta is in range,
 * are what the interpreted capture and range test compute, as nothing
 * in them depends on the cell's learned state.  Emits request line
 * addresses + shadow flags; returns the count. */
static int ctx_on_access(Ctx *cx, int64_t index, uint64_t uaddr, CtxAccess *a,
                         int64_t *req_addr, uint8_t *req_shadow) {
    int64_t line = ctx_div(uaddr, cx->geom.granularity_shift, cx->geom.granularity);
    uint64_t key = a->ent[CT_KEY_ALL];
    UT_MARK(cx->clock, UT_CAPTURE);
    size_t ms = map_find(&cx->by_block, line);
    if (ms != (size_t)-1) {
        int nev = ctx_q_match(cx, ms, index);
        ctx_apply_feedback(cx, cx->events, nev);
    }
    UT_MARK(cx->clock, UT_FEEDBACK);
    int64_t count = cx->h_count;
    int pos = cx->h_pos;
    const uint64_t *mask = a->ent + CT_MASK;
    for (int w = 0; w < cx->mask_words; w++) {
        for (uint64_t m = mask[w]; m; m &= m - 1) {
            int64_t depth = cx->sample_depths[w * 64 + __builtin_ctzll(m)];
            int ridx = pos - (int)depth;
            if (ridx < 0) ridx += cx->hist_cap;
            cst_add_assoc(cx, (uint64_t)cx->h_reduced[ridx], line - cx->h_line[ridx]);
        }
    }
    UT_MARK(cx->clock, UT_COLLECTION);
    uint64_t full_hash = key & cx->full_mask;
    int64_t ri = (int64_t)(full_hash & cx->r_index_mask);
    int64_t rtag = (int64_t)((full_hash >> cx->r_index_bits) & cx->r_tag_mask);
    if (!cx->r_used[ri] || cx->r_tag[ri] != rtag) {
        if (cx->r_used[ri]) {
            cx->r_conflicts++;
            if (cx->r_haskey[ri]) cst_remove_pointer(cx, cx->r_cstkey[ri]);
        } else {
            cx->r_occ++;
            cx->r_used[ri] = 1;
        }
        cx->r_tag[ri] = rtag;
        cx->r_active[ri] = (int32_t)cx->geom.init_bits;
        cx->r_haskey[ri] = 0;
        cx->r_lookups[ri] = 0;
        cx->r_lookadapt[ri] = 0;
        cx->r_allocs++;
    }
    cx->r_lookups[ri]++;
    int active_bits = cx->r_active[ri];
    uint64_t reduced = ctx_access_key(cx, a, active_bits) & cx->reduced_mask;
    if (!cx->r_haskey[ri] || cx->r_cstkey[ri] != reduced) {
        if (cx->r_haskey[ri]) cst_remove_pointer(cx, cx->r_cstkey[ri]);
        cst_add_pointer(cx, reduced);
        cx->r_cstkey[ri] = reduced;
        cx->r_haskey[ri] = 1;
    }
    if (cx->adaptive_reduction
        && cx->r_lookups[ri] - cx->r_lookadapt[ri] >= cx->overload_period)
        reduced = ctx_adapt(cx, ri, reduced, a);
    UT_MARK(cx->clock, UT_REDUCTION);
    int nreq = 0;
    int n_real = 0, n_shadow = 0;
    int64_t ce = cst_find_slot(cx, reduced);
    if (ce >= 0 && cx->cst_ncand[ce] > 0) {
        if (cx->policy_softmax) ctx_select_softmax(cx, ce, &n_real, &n_shadow);
        else ctx_select_egreedy(cx, ce, &n_real, &n_shadow);
    }
    UT_MARK(cx->clock, UT_SELECTION);
    int64_t base = ce * cx->cst_links;
    for (int i = 0; i < n_real; i++) {
        int64_t delta = cx->cst_delta[base + cx->sel_real[i]];
        int64_t target = line + delta;
        if (target < 0) continue;
        int shadow = q_push_entry(cx, reduced, delta, target, index);
        if (shadow) cx->predictions_shadow++; else cx->predictions_real++;
        req_addr[nreq] = target * cx->geom.granularity;
        req_shadow[nreq] = (uint8_t)shadow;
        nreq++;
    }
    for (int i = 0; i < n_shadow; i++) {
        int64_t delta = cx->cst_delta[base + cx->sel_shadow[i]];
        int64_t target = line + delta;
        if (target < 0) continue;
        q_push_entry(cx, reduced, delta, target, index);
        cx->predictions_shadow++;
        req_addr[nreq] = target * cx->geom.granularity;
        req_shadow[nreq] = 1;
        nreq++;
    }
    cx->h_reduced[pos] = (int64_t)reduced;
    cx->h_line[pos] = line;
    cx->h_count = count + 1;
    cx->h_pos = pos + 1 == cx->hist_cap ? 0 : pos + 1;
    UT_MARK(cx->clock, UT_ISSUE);
    return nreq;
}

static uint64_t ctx_mask_of(int bits) {
    return bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
}

static int ctx_bits_of(int64_t v) {
    int b = 0;
    while (v) { b++; v >>= 1; }
    return b;
}

static void ctx_free(Ctx *cx) {
    free(cx->thresholds); free(cx->sample_depths); free(cx->recent);
    free(cx->cst_used); free(cx->cst_tag); free(cx->cst_ptr);
    free(cx->cst_ncand); free(cx->cst_delta); free(cx->cst_score);
    free(cx->r_used); free(cx->r_haskey); free(cx->r_active);
    free(cx->r_tag); free(cx->r_lookups); free(cx->r_lookadapt); free(cx->r_cstkey);
    free(cx->h_reduced); free(cx->h_line); free(cx->rw_tab);
    free(cx->q_red); free(cx->q_delta); free(cx->q_target); free(cx->q_issue);
    free(cx->q_hit); free(cx->q_bnext); free(cx->q_btail);
    free(cx->q_fifo); free(cx->q_freelist);
    map_free(&cx->by_block);
    free(cx->events);
    free(cx->ranked); free(cx->sel_real); free(cx->sel_shadow); free(cx->pool);
    free(cx->weights); free(cx->cum);
    map_free(&cx->hist_map);
    free(cx->hg_depth); free(cx->hg_count);
}

/* the buffers a context state needs, sized from a config row: CST
 * entries x links, reducer entries, history depth, queue capacity,
 * address-history depth, sample depths and degree thresholds.  A state
 * can be reset for any row whose sizes all match (ctx_fits). */
static int ctx_alloc(Ctx *cx, const int64_t *ic) {
    size_t ne = (size_t)ic[0], nl = (size_t)ic[1], nre = (size_t)ic[3];
    size_t nh = (size_t)ic[7];
    size_t npool = (size_t)ic[8] + 2;
    size_t naddr = ic[39] > 0 ? (size_t)ic[39] : 1;
    size_t ndepths = ic[40] > 0 ? (size_t)ic[40] : 1;
    size_t nthresh = ic[41] > 0 ? (size_t)ic[41] : 1;
    size_t fc = 8;
    while (fc < npool) fc <<= 1;
    cx->q_fifo_cap = fc;
    cx->thresholds = (double *)malloc(nthresh * sizeof(double));
    cx->sample_depths = (int64_t *)malloc(ndepths * sizeof(int64_t));
    cx->recent = (int64_t *)malloc(naddr * sizeof(int64_t));
    cx->cst_used = (uint8_t *)malloc(ne);
    cx->cst_tag = (int64_t *)malloc(ne * sizeof(int64_t));
    cx->cst_ptr = (int64_t *)malloc(ne * sizeof(int64_t));
    cx->cst_ncand = (int32_t *)malloc(ne * sizeof(int32_t));
    cx->cst_delta = (int64_t *)malloc(ne * nl * sizeof(int64_t));
    cx->cst_score = (int64_t *)malloc(ne * nl * sizeof(int64_t));
    cx->r_used = (uint8_t *)malloc(nre);
    cx->r_haskey = (uint8_t *)malloc(nre);
    cx->r_active = (int32_t *)malloc(nre * sizeof(int32_t));
    cx->r_tag = (int64_t *)malloc(nre * sizeof(int64_t));
    cx->r_lookups = (int64_t *)malloc(nre * sizeof(int64_t));
    cx->r_lookadapt = (int64_t *)malloc(nre * sizeof(int64_t));
    cx->r_cstkey = (uint64_t *)malloc(nre * sizeof(uint64_t));
    cx->h_reduced = (int64_t *)malloc(nh * sizeof(int64_t));
    cx->h_line = (int64_t *)malloc(nh * sizeof(int64_t));
    cx->rw_tab = (int64_t *)malloc((npool - 1) * sizeof(int64_t));
    cx->q_red = (int64_t *)malloc(npool * sizeof(int64_t));
    cx->q_delta = (int64_t *)malloc(npool * sizeof(int64_t));
    cx->q_target = (int64_t *)malloc(npool * sizeof(int64_t));
    cx->q_issue = (int64_t *)malloc(npool * sizeof(int64_t));
    cx->q_hit = (uint8_t *)malloc(npool);
    cx->q_bnext = (int32_t *)malloc(npool * sizeof(int32_t));
    cx->q_btail = (int32_t *)malloc(npool * sizeof(int32_t));
    cx->q_fifo = (int32_t *)malloc(fc * sizeof(int32_t));
    cx->q_freelist = (int32_t *)malloc(npool * sizeof(int32_t));
    cx->events = (FbEvent *)malloc(npool * sizeof(FbEvent));
    cx->ranked = (int *)malloc((nl + 2) * sizeof(int));
    cx->sel_real = (int *)malloc((nl + 2) * sizeof(int));
    cx->sel_shadow = (int *)malloc((nl + 2) * sizeof(int));
    cx->pool = (int *)malloc((nl + 2) * sizeof(int));
    cx->weights = (double *)malloc((nl + 2) * sizeof(double));
    cx->cum = (double *)malloc((nl + 2) * sizeof(double));
    cx->hg_cap = 128;
    cx->hg_depth = (int64_t *)malloc((size_t)cx->hg_cap * sizeof(int64_t));
    cx->hg_count = (int64_t *)malloc((size_t)cx->hg_cap * sizeof(int64_t));
    int maps_ok = map_init(&cx->by_block, 256) && map_init(&cx->hist_map, 256);
    return maps_ok && cx->thresholds && cx->sample_depths && cx->recent
        && cx->cst_used && cx->cst_tag && cx->cst_ptr && cx->cst_ncand
        && cx->cst_delta && cx->cst_score
        && cx->r_used && cx->r_haskey && cx->r_active && cx->r_tag
        && cx->r_lookups && cx->r_lookadapt && cx->r_cstkey
        && cx->h_reduced && cx->h_line && cx->rw_tab
        && cx->q_red && cx->q_delta && cx->q_target && cx->q_issue
        && cx->q_hit && cx->q_bnext && cx->q_btail
        && cx->q_fifo && cx->q_freelist
        && cx->events && cx->ranked && cx->sel_real && cx->sel_shadow
        && cx->pool && cx->weights && cx->cum
        && cx->hg_depth && cx->hg_count;
}

/* true when the row's buffer sizes are the ones cx was allocated for */
static int ctx_fits(const Ctx *cx, const int64_t *ic) {
    return cx->cst_entries == ic[0] && cx->cst_links == ic[1]
        && cx->r_entries == ic[3] && cx->hist_cap == ic[7]
        && cx->q_cap == ic[8] && cx->geom.addr_depth == ic[39]
        && cx->geom.n_depths == ic[40] && cx->n_thresholds == ic[41];
}

/* every field a run reads, written from the config row: the one
 * definition of a fresh context state.  ctx_init allocates and then
 * calls it; the batch driver calls it between the cells one thread
 * runs, on a state the row fits.  Per-entry arrays are bounded by a
 * used flag, a count or a free list, so only those are cleared; buffer
 * capacities (maps, histogram) survive, and no result reads them. */
static void ctx_reset(Ctx *cx, const int64_t *ic, const double *dc,
                      const uint32_t *seed_key, int seed_len) {
    cx->cst_entries = (int)ic[0];
    cx->cst_links = (int)ic[1];
    cx->cst_index_bits = ctx_bits_of(ic[0] - 1);
    cx->cst_index_mask = ctx_mask_of(cx->cst_index_bits);
    cx->cst_tag_mask = ctx_mask_of((int)ic[2]);
    cx->r_entries = (int)ic[3];
    cx->r_index_bits = ctx_bits_of(ic[3] - 1);
    cx->r_index_mask = ctx_mask_of(cx->r_index_bits);
    cx->r_tag_mask = ctx_mask_of((int)ic[4]);
    cx->full_mask = ctx_mask_of((int)ic[5]);
    cx->reduced_mask = ctx_mask_of((int)ic[6]);
    cx->hist_cap = (int)ic[7];
    cx->q_cap = ic[8];
    ctx_geom_of_row(&cx->geom, ic);
    cx->geom.depths = cx->sample_depths;
    cx->mask_words = (cx->geom.n_depths + 63) / 64;
    cx->cfg_lo = ic[13];
    cx->cfg_hi = ic[14];
    cx->cfg_center = ic[15];
    cx->peak = ic[16];
    cx->late_pen = ic[17];
    cx->early_pen = ic[18];
    cx->score_min = ic[19];
    cx->score_max = ic[20];
    cx->initial_score = ic[21];
    cx->replace_threshold = ic[22];
    cx->score_threshold = ic[23];
    cx->max_degree = (int)ic[24];
    cx->initial_popcount = (int)ic[26];
    cx->overload_refs = ic[27];
    cx->overload_period = ic[28];
    cx->underload_lookups = ic[29];
    cx->adaptive_reduction = (int)ic[30];
    cx->shadow_on = (int)ic[31];
    cx->adaptive_eps = (int)ic[32];
    cx->reward_flat = (int)ic[33];
    cx->policy_softmax = (int)ic[34];
    cx->adaptive_window = (int)ic[35];
    cx->window_update_period = ic[36];
    cx->center_lo_bound = ic[37];
    cx->center_hi_bound = ic[38];
    cx->n_thresholds = (int)ic[41];
    cx->eps_min = dc[0];
    cx->eps_range = dc[1];
    cx->fixed_eps = dc[2];
    cx->alpha = dc[3];
    cx->shadow_p = dc[4];
    cx->softmax_temp = dc[5];
    for (int i = 0; i < cx->n_thresholds; i++) cx->thresholds[i] = dc[CTX_DCFG_FIXED + i];
    for (int i = 0; i < cx->geom.n_depths; i++) cx->sample_depths[i] = ic[CTX_ICFG_FIXED + i];
    mt_init_by_array(&cx->rng, seed_key, seed_len);
    cx->accuracy_ema = 0.0;
    cx->depth_ema = (double)cx->cfg_center;
    ctx_set_reward(cx, cx->cfg_lo, cx->cfg_hi, cx->cfg_center);
    /* capture: no recent blocks */
    cx->n_recent = 0;
    /* CST + reducer: the used flags bound every other per-entry array */
    memset(cx->cst_used, 0, (size_t)cx->cst_entries);
    memset(cx->r_used, 0, (size_t)cx->r_entries);
    memset(cx->r_haskey, 0, (size_t)cx->r_entries);
    cx->h_count = 0;
    cx->h_pos = 0;
    /* prefetch queue: every slot free, no buckets */
    int npool = (int)cx->q_cap + 2;
    memset(cx->q_hit, 0, (size_t)npool);
    for (int i = 0; i < npool; i++) cx->q_freelist[i] = npool - 1 - i;
    cx->q_nfree = npool;
    cx->q_head = 0;
    cx->q_len = 0;
    map_clear(&cx->by_block);
    map_clear(&cx->hist_map);
    cx->hg_len = 0;
    cx->oom = 0;
    cx->explorations = cx->exploitations = 0;
    cx->predictions_real = cx->predictions_shadow = 0;
    cx->rewards_applied = cx->window_updates = cx->feedback_events = 0;
    cx->cst_assoc_added = cx->cst_assoc_rej_full = 0;
    cx->cst_conflicts = cx->cst_occ = 0;
    cx->r_allocs = cx->r_conflicts = cx->r_occ = 0;
    cx->r_activations = cx->r_deactivations = 0;
    cx->q_hits = cx->q_expirations = 0;
}

static int ctx_init(Ctx *cx, const int64_t *ic, const double *dc,
                    const uint32_t *seed_key, int seed_len) {
    memset(cx, 0, sizeof(Ctx));
    if (!ctx_alloc(cx, ic)) {
        ctx_free(cx);
        return 0;
    }
    ctx_reset(cx, ic, dc, seed_key, seed_len);
    return 1;
}
"""
# drift: end native-context-kernel

SOURCE_PF = r"""
/* ------------------------------------------------------------------ */
/* prefetchers.  Request buffer: every family emits at most 64 requests
 * per access (degree <= 64, an SMS region touches at most 64 lines, a
 * partial last line included — enforced on the Python side before a
 * config is handed to the kernel).  Every request address is
 * non-negative. */

#define MAX_REQS 64

#define PF_NONE 0
#define PF_STRIDE 1
#define PF_GHB 2
#define PF_SMS 3
#define PF_MARKOV 4

/* ---- stride: direct-mapped RPT with 2-bit confidence ---- */

typedef struct {
    uint64_t tag;
    int64_t last_addr;
    int64_t stride;
    int state;
    uint8_t used;
} SEntry;

typedef struct {
    int64_t table_entries, degree, line_bytes;
    uint8_t train_on_miss_only;
    SEntry *table;
} Stride;

/* ---- GHB with delta correlation; ordered index table (insertion
 * order, assignment keeps position, FIFO eviction of the oldest key
 * when the table overflows — exactly dict semantics) ---- */

typedef struct {
    int64_t key;
    int64_t val;
    int prev, next;
    uint8_t used;
} OmNode;

typedef struct {
    OmNode *nodes;
    int cap;         /* number of node slots */
    int head, tail;  /* insertion-order list, -1 when empty */
    int free_head;   /* free list via .next */
    int count;
    Map slots;       /* key -> node index */
} OrderedMap;

static int om_init(OrderedMap *o, int cap) {
    o->cap = cap;
    o->head = o->tail = -1;
    o->count = 0;
    o->nodes = (OmNode *)calloc((size_t)cap, sizeof(OmNode));
    if (!o->nodes) return 0;
    for (int i = 0; i < cap; i++) o->nodes[i].next = i + 1 < cap ? i + 1 : -1;
    o->free_head = 0;
    size_t mcap = 16;
    while (mcap < (size_t)cap * 2) mcap *= 2;
    return map_init(&o->slots, mcap);
}

static void om_free(OrderedMap *o) {
    free(o->nodes); o->nodes = 0;
    map_free(&o->slots);
}

static int om_node_of(OrderedMap *o, int64_t key) {
    return (int)map_get(&o->slots, key, -1);
}

/* dict assignment: update in place when present, else append; returns
 * the key's node */
static int om_set(OrderedMap *o, int64_t key, int64_t val) {
    int n = om_node_of(o, key);
    if (n >= 0) { o->nodes[n].val = val; return n; }
    n = o->free_head;
    o->free_head = o->nodes[n].next;
    OmNode *node = &o->nodes[n];
    node->key = key; node->val = val; node->used = 1;
    node->prev = o->tail; node->next = -1;
    if (o->tail >= 0) o->nodes[o->tail].next = n; else o->head = n;
    o->tail = n;
    o->count++;
    map_set(&o->slots, key, n);
    return n;
}

static void om_unlink(OrderedMap *o, int n) {
    OmNode *node = &o->nodes[n];
    if (node->prev >= 0) o->nodes[node->prev].next = node->next; else o->head = node->next;
    if (node->next >= 0) o->nodes[node->next].prev = node->prev; else o->tail = node->prev;
    node->used = 0;
    node->next = o->free_head;
    o->free_head = n;
    o->count--;
    map_del(&o->slots, node->key);
}

static void om_evict_oldest(OrderedMap *o) {
    if (o->head >= 0) om_unlink(o, o->head);
}

/* OrderedDict.move_to_end */
static void om_move_to_end(OrderedMap *o, int n) {
    if (o->tail == n) return;
    OmNode *node = &o->nodes[n];
    if (node->prev >= 0) o->nodes[node->prev].next = node->next; else o->head = node->next;
    if (node->next >= 0) o->nodes[node->next].prev = node->prev;
    node->prev = o->tail;
    node->next = -1;
    o->nodes[o->tail].next = n;
    o->tail = n;
}

typedef struct {
    int64_t ghb_entries, index_entries, match_length, degree, max_walk, line_bytes;
    uint8_t localization_pc;
    uint8_t train_on_miss_only;
    int64_t *buf_addr;
    int64_t *buf_link;
    uint8_t *buf_used;
    int64_t next_seq;
    int64_t next_slot;   /* next_seq % ghb_entries, a counter that wraps */
    OrderedMap index;
    int64_t *stream;   /* scratch, max_walk */
    int64_t *deltas;   /* scratch, max_walk */
} Ghb;

/* the slot of s, one of the last ghb_entries pushes: the write slot
 * less its age, wrapped once, where the Python takes s % ghb_entries */
static int64_t ghb_slot(const Ghb *g, int64_t s) {
    int64_t bs = g->next_slot - (g->next_seq - s);
    return bs < 0 ? bs + g->ghb_entries : bs;
}

/* ---- SMS: the filter and the AGT are ordered maps keyed by region,
 * so the OrderedDicts' lookup, move_to_end, popitem(last=False) and del
 * are each O(1); a generation lives in its table's pool at its node ---- */

typedef struct {
    uint64_t trigger_pc;
    int64_t trigger_offset;
    uint64_t pattern;
    int64_t last_touch;
} Gen;

typedef struct {
    int64_t region_bytes, line_bytes, filter_entries, agt_entries, pht_entries;
    int64_t timeout, lines_per_region;
    int pht_shift;     /* shift_of(pht_entries): -1 takes the 128-bit path */
    OrderedMap filt, agt;
    Gen *filt_gen, *agt_gen;   /* by node */
    /* at most every last_touch in the table: each access lowers it to
     * its index, and a scan sets it to the oldest touch it leaves */
    int64_t filt_bound, agt_bound;
    uint64_t *pht;     /* 0 == absent: committed patterns have >= 2 bits */
} Sms;

static int64_t sms_pht_index(const Sms *s, uint64_t pc, int64_t offset) {
    /* 2^k divides 2^64, so the wrapped 64-bit sum keeps the low k bits
     * of the exact one */
    if (s->pht_shift >= 0)
        return (int64_t)((pc * 0x9E3779B1ULL + (uint64_t)offset)
                         & (uint64_t)(s->pht_entries - 1));
    unsigned __int128 x =
        (unsigned __int128)pc * 0x9E3779B1ULL + (unsigned __int128)(uint64_t)offset;
    return (int64_t)(uint64_t)(x % (unsigned __int128)(uint64_t)s->pht_entries);
}

static void sms_end_generation(Sms *s, const Gen *g) {
    if (__builtin_popcountll(g->pattern) >= 2)
        s->pht[sms_pht_index(s, g->trigger_pc, g->trigger_offset)] = g->pattern;
}

/* _expire_stale on one table: drop every generation untouched for more
 * than timeout accesses, in table order (ending each one when end is
 * set), and leave the bound at the oldest touch kept.  A table whose
 * bound is within the timeout holds nothing stale and is not scanned. */
static void sms_expire(Sms *s, OrderedMap *o, Gen *gens, int64_t *bound, int end,
                       int64_t now_index) {
    if (!o->count || now_index - *bound <= s->timeout) return;
    int64_t oldest = INT64_MAX;
    for (int n = o->head; n >= 0;) {
        int next = o->nodes[n].next;
        int64_t touch = gens[n].last_touch;
        if (now_index - touch > s->timeout) {
            if (end) sms_end_generation(s, &gens[n]);
            om_unlink(o, n);
        } else if (touch < oldest) {
            oldest = touch;
        }
        n = next;
    }
    *bound = oldest;
}

/* ---- Markov: LRU-ordered state table with per-state successor lists ---- */

typedef struct {
    int64_t table_entries, max_succ, degree, line_bytes;
    uint8_t train_on_miss_only;
    OrderedMap table;    /* line -> slot in succ arrays (node index) */
    int64_t *succ_line;  /* cap * max_succ */
    int64_t *succ_count;
    int *nsucc;          /* per node */
    int64_t last_line;
    uint8_t has_last;
} Markov;

/* ---- dispatch ---- */

typedef struct RpPf {
    int kind;
    Stride stride;
    Ghb ghb;
    Sms sms;
    Markov markov;
    Ctx ctx;
} RpPf;

static int pf_on_access(RpPf *pf, int64_t index, uint64_t uaddr, uint64_t pc,
                        int primary_miss, int64_t *reqs) {
    int n = 0;
    switch (pf->kind) {
    case PF_NONE:
        break;
    case PF_STRIDE: {
        Stride *st = &pf->stride;
        if (st->train_on_miss_only && !primary_miss) break;
        int64_t addr = (int64_t)(uaddr / (uint64_t)st->line_bytes) * st->line_bytes;
        int64_t idx = (int64_t)(pc % (uint64_t)st->table_entries);
        uint64_t tag = pc / (uint64_t)st->table_entries;
        SEntry *e = &st->table[idx];
        if (!e->used || e->tag != tag) {
            e->tag = tag; e->last_addr = addr; e->stride = 0; e->state = 0; e->used = 1;
            break;
        }
        int64_t stride = addr - e->last_addr;
        if (stride == e->stride && stride != 0) {
            e->state = e->state + 1 < 2 ? e->state + 1 : 2;
        } else if (stride != 0) {
            e->stride = stride;
            e->state = 1;
        } else {
            e->state = 0;
        }
        e->last_addr = addr;
        if (e->state < 2 || e->stride == 0) break;
        for (int64_t k = 1; k <= st->degree; k++) {
            int64_t target = addr + e->stride * k;
            if (target > 0) reqs[n++] = target;
        }
        break;
    }
    case PF_GHB: {
        Ghb *g = &pf->ghb;
        if (g->train_on_miss_only && !primary_miss) break;
        int64_t addr = (int64_t)(uaddr / (uint64_t)g->line_bytes) * g->line_bytes;
        int64_t key = g->localization_pc ? (int64_t)pc : 0;
        int node = om_node_of(&g->index, key);
        int64_t prev_seq = node >= 0 ? g->index.nodes[node].val : -1;
        if (prev_seq < 0 || prev_seq < g->next_seq - g->ghb_entries
            || !g->buf_used[ghb_slot(g, prev_seq)])
            prev_seq = -1;
        int64_t seq = g->next_seq;
        int64_t slot = g->next_slot;
        g->buf_addr[slot] = addr;
        g->buf_link[slot] = prev_seq;
        g->buf_used[slot] = 1;
        om_set(&g->index, key, seq);
        if (g->index.count > g->index_entries) om_evict_oldest(&g->index);
        g->next_seq++;
        if (++g->next_slot == g->ghb_entries) g->next_slot = 0;

        int slen = 0;
        int64_t s = seq;
        int64_t oldest_valid = g->next_seq - g->ghb_entries;
        if (oldest_valid < 0) oldest_valid = 0;
        while (s >= oldest_valid && slen < g->max_walk) {
            int64_t bs = ghb_slot(g, s);
            if (!g->buf_used[bs]) break;
            g->stream[slen++] = g->buf_addr[bs];
            s = g->buf_link[bs];
        }
        int64_t m = g->match_length;
        if (slen < m + 2) break;
        int nd = slen - 1;
        for (int i = 0; i < nd; i++) g->deltas[i] = g->stream[i] - g->stream[i + 1];
        int64_t match_at = -1;
        for (int start = 1; start <= nd - (int)m; start++) {
            int ok = 1;
            for (int j = 0; j < (int)m; j++) {
                if (g->deltas[start + j] != g->deltas[j]) { ok = 0; break; }
            }
            if (ok) { match_at = start; break; }
        }
        if (match_at <= 0) break;
        int64_t target = addr;
        for (int64_t step = 1; step <= g->degree; step++) {
            int64_t idx = match_at - step;
            int64_t delta;
            if (idx >= 0) delta = g->deltas[idx];
            else delta = g->deltas[((idx % m) + m) % m];  /* pattern[idx % m], Python modulo */
            target += delta;
            if (target > 0) reqs[n++] = target;
        }
        break;
    }
    case PF_SMS: {
        Sms *s = &pf->sms;
        int64_t region = (int64_t)(uaddr / (uint64_t)s->region_bytes);
        int64_t offset = (int64_t)((uaddr % (uint64_t)s->region_bytes) / (uint64_t)s->line_bytes);
        uint64_t bit = 1ULL << offset;
        sms_expire(s, &s->agt, s->agt_gen, &s->agt_bound, 1, index);
        sms_expire(s, &s->filt, s->filt_gen, &s->filt_bound, 0, index);
        if (index < s->agt_bound) s->agt_bound = index;
        if (index < s->filt_bound) s->filt_bound = index;

        int i = om_node_of(&s->agt, region);
        if (i >= 0) {
            s->agt_gen[i].pattern |= bit;
            s->agt_gen[i].last_touch = index;
            om_move_to_end(&s->agt, i);
            break;
        }
        i = om_node_of(&s->filt, region);
        if (i >= 0) {
            Gen *g = &s->filt_gen[i];
            g->last_touch = index;
            if (!(g->pattern & bit)) {
                /* a second distinct line promotes the region to the AGT */
                Gen promoted = *g;
                promoted.pattern |= bit;
                om_unlink(&s->filt, i);
                s->agt_gen[om_set(&s->agt, region, 0)] = promoted;
                if (s->agt.count > s->agt_entries) {
                    sms_end_generation(s, &s->agt_gen[s->agt.head]);
                    om_evict_oldest(&s->agt);
                }
            }
            break;
        }
        Gen *g = &s->filt_gen[om_set(&s->filt, region, 0)];
        g->trigger_pc = pc;
        g->trigger_offset = offset;
        g->pattern = bit;
        g->last_touch = index;
        if (s->filt.count > s->filter_entries) om_evict_oldest(&s->filt);

        uint64_t pattern = s->pht[sms_pht_index(s, pc, offset)];
        if (pattern == 0) break;
        int64_t base = region * s->region_bytes;
        for (int64_t line = 0; line < s->lines_per_region; line++) {
            if ((pattern & (1ULL << line)) && line != offset)
                reqs[n++] = base + line * s->line_bytes;
        }
        break;
    }
    case PF_MARKOV: {
        Markov *mk = &pf->markov;
        if (mk->train_on_miss_only && !primary_miss) break;
        int64_t line = (int64_t)(uaddr / (uint64_t)mk->line_bytes);
        if (mk->has_last && mk->last_line != line) {
            int node = om_node_of(&mk->table, mk->last_line);
            if (node < 0) {
                node = om_set(&mk->table, mk->last_line, 0);
                mk->nsucc[node] = 0;
                if (mk->table.count > mk->table_entries) om_evict_oldest(&mk->table);
            } else {
                om_move_to_end(&mk->table, node);
            }
            /* observe(line): count bump, or evict the first-minimal successor */
            int64_t *sl = mk->succ_line + (int64_t)node * mk->max_succ;
            int64_t *sc = mk->succ_count + (int64_t)node * mk->max_succ;
            int ns = mk->nsucc[node];
            int found = -1;
            for (int j = 0; j < ns; j++) {
                if (sl[j] == line) { found = j; break; }
            }
            if (found >= 0) {
                sc[found]++;
            } else {
                if (ns >= mk->max_succ) {
                    int victim = 0;
                    for (int j = 1; j < ns; j++) {
                        if (sc[j] < sc[victim]) victim = j;
                    }
                    memmove(sl + victim, sl + victim + 1, (size_t)(ns - 1 - victim) * sizeof(int64_t));
                    memmove(sc + victim, sc + victim + 1, (size_t)(ns - 1 - victim) * sizeof(int64_t));
                    ns--;
                }
                sl[ns] = line;
                sc[ns] = 1;
                ns++;
                mk->nsucc[node] = ns;
            }
        }
        mk->last_line = line;
        mk->has_last = 1;

        int node = om_node_of(&mk->table, line);
        if (node < 0) break;
        om_move_to_end(&mk->table, node);
        int64_t *sl = mk->succ_line + (int64_t)node * mk->max_succ;
        int64_t *sc = mk->succ_count + (int64_t)node * mk->max_succ;
        int ns = mk->nsucc[node];
        /* stable sort desc by count == repeatedly take the earliest
         * not-yet-taken successor with the strictly largest count */
        uint8_t taken[MAX_REQS];
        memset(taken, 0, sizeof(taken));
        for (int64_t d = 0; d < mk->degree && d < ns; d++) {
            int best = -1;
            for (int j = 0; j < ns; j++) {
                if (!taken[j] && (best < 0 || sc[j] > sc[best])) best = j;
            }
            taken[best] = 1;
            reqs[n++] = sl[best] * mk->line_bytes;
        }
        break;
    }
    }
    return n;
}
"""

SOURCE_RUN = r"""
/* ------------------------------------------------------------------ */
/* simulator API: one RpSim = one Simulator (hierarchy + core + the
 * per-run prediction-depth bookkeeping), one RpPf = one prefetcher.
 * rp_run is Simulator.run without warmup, over trace-store records;
 * rp_batch_cell (the batch driver's source) composes warmup as
 * run(prefix) + rp_reset_stats + run(remainder), like the Python. */

/* hit depths deeper than the paper's 128-entry prefetch queue are
 * expirations: a prediction is fresh for DEPTH_CAP accesses */
#define DEPTH_CAP 128

typedef struct RpSim {
    Hier hier;
    Core core;
    int64_t cycle_base;
    Window predicted_at;   /* per-run: cleared at every rp_run entry */
    uint64_t bhr_value;   /* BranchHistoryRegister, warm across runs */
    uint64_t bhr_mask;
#ifdef RP_UNIT_TIMING
    UnitClock clock;    /* unit totals since construction / reset */
#endif
} RpSim;

void rp_sim_free(RpSim *s);
void rp_pf_free(RpPf *p);

/* every field a run can change, back to its construction value: the
 * one definition of a fresh simulator.  rp_sim_new allocates and then
 * calls it; the batch driver calls it between the cells one thread runs
 * (the hierarchy and core configs are shard-wide, so the buffers always
 * fit).  Grown containers keep their capacity; no result reads it. */
static void sim_reset(RpSim *s) {
    Hier *h = &s->hier;
    cache_reset(&h->l1);
    cache_reset(&h->l2);
    mshr_reset(&h->l1m);
    mshr_reset(&h->l2m);
    mshr_reset(&h->pfb);
    h->pending.len = 0;
    h->backlog_len = 0;
    h->dram_next_free = 0;
    h->dram_fetches = 0;
    win_clear(&h->predicted);
    h->access_index = 0;
    h->l1_acc = h->l1_hit = h->l1_miss = 0;
    h->l2_acc = h->l2_hit = h->l2_miss = 0;
    h->prefetches_issued = 0;
    h->prefetches_rejected_mshr = 0;
    h->prefetches_redundant = 0;
    core_reset(&s->core);
    s->cycle_base = 0;
    win_clear(&s->predicted_at);
    s->bhr_value = 0;
#ifdef RP_UNIT_TIMING
    ut_reset(&s->clock);
#endif
}

RpSim *rp_sim_new(const int64_t *hc, const int64_t *cc) {
    RpSim *s = (RpSim *)calloc(1, sizeof(RpSim));
    if (!s) return 0;
    Hier *h = &s->hier;
    int64_t line_bytes = hc[10];
    h->line_bytes = line_bytes;
    /* CacheConfig refuses a line size that is not a power of two, so a
     * simulator built from one is refused here too */
    h->line_shift = shift_of(line_bytes);
    if (h->line_shift < 0) { free(s); return 0; }
    h->l1_latency = hc[2];
    h->l2_hit_latency = hc[2] + hc[6];
    h->dram_fill_latency = hc[2] + hc[6] + hc[8];
    h->service_interval = hc[9];
    h->pf_reserve = hc[12];
    h->backlog_depth = hc[13];
    h->prefetch_fill_l1 = (uint8_t)hc[14];
    s->bhr_mask = (uint64_t)cc[3];
    int ok = 1;
    ok &= cache_init(&h->l1, hc[0] / (hc[1] * line_bytes), (int)hc[1]);
    ok &= cache_init(&h->l2, hc[4] / (hc[5] * line_bytes), (int)hc[5]);
    ok &= mshr_init(&h->l1m, (int)hc[3]);
    ok &= mshr_init(&h->l2m, (int)hc[7]);
    ok &= mshr_init(&h->pfb, (int)hc[11]);
    ok &= fheap_init(&h->pending, 64);
    h->backlog = (int64_t *)malloc((size_t)(hc[13] > 0 ? hc[13] : 1) * sizeof(int64_t));
    ok &= h->backlog != 0;
    ok &= win_init(&h->predicted, 1024, 256);
    ok &= core_init(&s->core, cc[0], cc[1], cc[2]);
    ok &= win_init(&s->predicted_at, 1024, DEPTH_CAP);
    if (!ok) { rp_sim_free(s); return 0; }
    sim_reset(s);
    return s;
}

void rp_sim_free(RpSim *s) {
    if (!s) return;
    Hier *h = &s->hier;
    cache_free(&h->l1); cache_free(&h->l2);
    mshr_free(&h->l1m); mshr_free(&h->l2m); mshr_free(&h->pfb);
    fheap_free(&h->pending);
    free(h->backlog); h->backlog = 0;
    win_free(&h->predicted);
    core_free(&s->core);
    win_free(&s->predicted_at);
    free(s);
}

/* Simulator._reset_stats: zero the counters, keep the warm state */
static void rp_reset_stats(RpSim *s) {
    Core *c = &s->core;
    double m = c->cursor > c->max_completion ? c->cursor : c->max_completion;
    s->cycle_base = (int64_t)m;   /* finalize().cycles */
    Hier *h = &s->hier;
    h->l1_acc = h->l1_hit = h->l1_miss = 0;
    h->l2_acc = h->l2_hit = h->l2_miss = 0;
    h->prefetches_issued = 0;
    h->prefetches_rejected_mshr = 0;
    h->prefetches_redundant = 0;
    h->l1.unused_prefetch_evictions = 0;
    h->l1.used_prefetch_fills = 0;
    c->stall_cycles = c->instructions = c->memory_accesses = c->cycles = 0;
}

RpPf *rp_pf_new(int kind, const int64_t *cfg) {
    RpPf *p = (RpPf *)calloc(1, sizeof(RpPf));
    if (!p) return 0;
    p->kind = kind;
    int ok = 1;
    switch (kind) {
    case PF_NONE:
        break;
    case PF_STRIDE: {
        Stride *st = &p->stride;
        st->table_entries = cfg[0];
        st->degree = cfg[1];
        st->line_bytes = cfg[2];
        st->train_on_miss_only = (uint8_t)cfg[3];
        st->table = (SEntry *)calloc((size_t)st->table_entries, sizeof(SEntry));
        ok &= st->table != 0;
        break;
    }
    case PF_GHB: {
        Ghb *g = &p->ghb;
        g->ghb_entries = cfg[0];
        g->index_entries = cfg[1];
        g->match_length = cfg[2];
        g->degree = cfg[3];
        g->max_walk = cfg[4];
        g->localization_pc = (uint8_t)cfg[5];
        g->line_bytes = cfg[6];
        g->train_on_miss_only = (uint8_t)cfg[7];
        g->buf_addr = (int64_t *)calloc((size_t)g->ghb_entries, sizeof(int64_t));
        g->buf_link = (int64_t *)calloc((size_t)g->ghb_entries, sizeof(int64_t));
        g->buf_used = (uint8_t *)calloc((size_t)g->ghb_entries, 1);
        g->stream = (int64_t *)malloc((size_t)g->max_walk * sizeof(int64_t));
        g->deltas = (int64_t *)malloc((size_t)g->max_walk * sizeof(int64_t));
        /* the write slot wraps at ghb_entries: an empty buffer has none */
        ok &= g->ghb_entries > 0 && g->buf_addr && g->buf_link && g->buf_used
              && g->stream && g->deltas;
        ok &= om_init(&g->index, (int)g->index_entries + 1);
        break;
    }
    case PF_SMS: {
        Sms *m = &p->sms;
        m->region_bytes = cfg[0];
        m->line_bytes = cfg[1];
        m->filter_entries = cfg[2];
        m->agt_entries = cfg[3];
        m->pht_entries = cfg[4];
        m->timeout = cfg[5];
        m->lines_per_region = m->region_bytes / m->line_bytes;
        m->pht_shift = shift_of(m->pht_entries);
        m->filt_bound = m->agt_bound = INT64_MAX;
        ok &= om_init(&m->filt, (int)m->filter_entries + 1);
        ok &= om_init(&m->agt, (int)m->agt_entries + 1);
        m->filt_gen = (Gen *)calloc((size_t)m->filter_entries + 1, sizeof(Gen));
        m->agt_gen = (Gen *)calloc((size_t)m->agt_entries + 1, sizeof(Gen));
        m->pht = (uint64_t *)calloc((size_t)m->pht_entries, sizeof(uint64_t));
        ok &= m->filt_gen && m->agt_gen && m->pht;
        break;
    }
    case PF_MARKOV: {
        Markov *mk = &p->markov;
        mk->table_entries = cfg[0];
        mk->max_succ = cfg[1];
        mk->degree = cfg[2];
        mk->line_bytes = cfg[3];
        mk->train_on_miss_only = (uint8_t)cfg[4];
        ok &= om_init(&mk->table, (int)mk->table_entries + 1);
        size_t slots = (size_t)(mk->table_entries + 1) * (size_t)mk->max_succ;
        mk->succ_line = (int64_t *)calloc(slots, sizeof(int64_t));
        mk->succ_count = (int64_t *)calloc(slots, sizeof(int64_t));
        mk->nsucc = (int *)calloc((size_t)mk->table_entries + 1, sizeof(int));
        ok &= mk->succ_line && mk->succ_count && mk->nsucc;
        break;
    }
    default:
        ok = 0;
    }
    if (!ok) { rp_pf_free(p); return 0; }
    return p;
}

void rp_pf_free(RpPf *p) {
    if (!p) return;
    switch (p->kind) {
    case PF_STRIDE:
        free(p->stride.table);
        break;
    case PF_GHB:
        free(p->ghb.buf_addr); free(p->ghb.buf_link); free(p->ghb.buf_used);
        free(p->ghb.stream); free(p->ghb.deltas);
        om_free(&p->ghb.index);
        break;
    case PF_SMS:
        om_free(&p->sms.filt); om_free(&p->sms.agt);
        free(p->sms.filt_gen); free(p->sms.agt_gen); free(p->sms.pht);
        break;
    case PF_MARKOV:
        om_free(&p->markov.table);
        free(p->markov.succ_line); free(p->markov.succ_count); free(p->markov.nsucc);
        break;
    case PF_CONTEXT:
        ctx_free(&p->ctx);
        break;
    }
    free(p);
}

RpPf *rp_pf_ctx_new(const int64_t *icfg, const double *dcfg,
                    const uint32_t *seed_key, int seed_len) {
    RpPf *p = (RpPf *)calloc(1, sizeof(RpPf));
    if (!p) return 0;
    p->kind = PF_CONTEXT;
    if (!ctx_init(&p->ctx, icfg, dcfg, seed_key, seed_len)) { free(p); return 0; }
    return p;
}

/* The batch driver's per-thread prefetcher for its next cell, equal to
 * a fresh one built from the row.  A context prefetcher is reset in
 * place when the row's table sizes fit the ones it was allocated for;
 * any other prefetcher is freed and built anew (the table families are
 * small).  NULL on allocation failure, with the old one already freed. */
static RpPf *pf_renew(RpPf *p, int kind, const int64_t *cfg, const double *dcfg,
                      const uint32_t *seed_key, int seed_len) {
    if (p && kind == PF_CONTEXT && p->kind == PF_CONTEXT && ctx_fits(&p->ctx, cfg)) {
        ctx_reset(&p->ctx, cfg, dcfg, seed_key, seed_len);
        return p;
    }
    rp_pf_free(p);
    if (kind == PF_CONTEXT) return rp_pf_ctx_new(cfg, dcfg, seed_key, seed_len);
    return rp_pf_new(kind, cfg);
}

/* Prefetcher.accuracy() == policy._accuracy_ema */
double rp_pf_ctx_accuracy(const RpPf *p) { return p->ctx.accuracy_ema; }

void rp_pf_ctx_counters(const RpPf *p, int64_t *o) {
    const Ctx *cx = &p->ctx;
    o[0] = cx->predictions_real;
    o[1] = cx->predictions_shadow;
    o[2] = cx->rewards_applied;
    o[3] = cx->window_updates;
    o[4] = cx->explorations;
    o[5] = cx->exploitations;
    o[6] = cx->q_hits;
    o[7] = cx->q_expirations;
    o[8] = cx->feedback_events;
    o[9] = cx->cst_assoc_added;
    o[10] = cx->cst_assoc_rej_full;
    o[11] = 0;   /* associations_rejected_range: the inline range gate precedes */
    o[12] = cx->cst_conflicts;
    o[13] = cx->cst_occ;
    o[14] = cx->r_allocs;
    o[15] = cx->r_conflicts;
    o[16] = cx->r_activations;
    o[17] = cx->r_deactivations;
    o[18] = cx->r_occ;
    o[19] = cx->h_count;
}

int64_t rp_pf_ctx_hist_len(const RpPf *p) { return p->ctx.hg_len; }

/* hit-depth histogram in Counter first-insertion order */
void rp_pf_ctx_hist(const RpPf *p, int64_t *depths, int64_t *counts) {
    const Ctx *cx = &p->ctx;
    for (int64_t i = 0; i < cx->hg_len; i++) {
        depths[i] = cx->hg_depth[i];
        counts[i] = cx->hg_count[i];
    }
}

/* out-block layout (OUT_SLOTS int64s):
 *  0 instructions (cumulative core stat, as finalize() reports)
 *  1 cycles, already max(1, cycles - cycle_base)
 *  2..4  l1 accesses/hits/misses    5..7  l2 accesses/hits/misses
 *  8..13 class counts in ACCESS_CLASS_ORDER (wasted prefetches in 13)
 *  14 demand accesses   15 issued real   16 issued shadow
 *  17 rejected (mshr-pressure)   18 redundant
 *  19..147 hit-depth histogram, depth 0..128 */

/* the index of the first of n records whose address lies outside the
 * modelled ADDRESS_MASK space, or -1: the kernel's delta arithmetic is
 * exact only inside it.  Callers scan before any native state exists,
 * so a trace that fails runs on the oracle from the start. */
int64_t rp_scan_records(const uint8_t *recs, int64_t n) {
    for (int64_t k = 0; k < n; k++)
        if (rec_addr(recs + k * REC_SIZE) > ADDRESS_MASK) return k;
    return -1;
}

/* n accesses: the n trace-store records at recs, each field read where it
 * lies.  An unhinted record's hint fields read as zero, as the store
 * decodes it to NO_HINTS.  A context prefetcher reads access k's capture
 * at tr_ent + k * tr_stride, its trace program's entry for the record. */
static int rp_run(RpSim *s, RpPf *pf, int64_t n, int64_t start_index,
                  const uint8_t *recs, const uint64_t *tr_ent, int tr_stride,
                  int64_t *out) {
    Hier *h = &s->hier;
    Core *c = &s->core;
    Window *predicted_at = &s->predicted_at;
    win_clear(predicted_at);
#ifdef RP_UNIT_TIMING
    UnitClock *clk = &s->clock;
    int64_t t_enter = ut_enter(clk);
    if (pf->kind == PF_CONTEXT) pf->ctx.clock = clk;
#endif

    int64_t depth_counts[DEPTH_CAP + 1];
    memset(depth_counts, 0, sizeof(depth_counts));
    int64_t class_counts[6];
    memset(class_counts, 0, sizeof(class_counts));
    int64_t issued_real = 0, issued_shadow = 0;
    int line_shift = h->line_shift;
    int64_t reqs[MAX_REQS];
    uint8_t req_shadow[MAX_REQS];
    int is_ctx = pf->kind == PF_CONTEXT;
    int64_t last_value = 0;   /* Simulator.run local, fresh per call */

    /* core-model state in locals for the loop, written back after —
     * the same arithmetic, in the same order, as the interpreted loop */
    double cursor = c->cursor;
    double last_completion = c->last_completion;
    double max_completion = c->max_completion;
    double rob_floor = c->rob_floor;
    int64_t inst_pos = c->inst_pos;
    int64_t issue_width = c->issue_width;
    int64_t rob_size = c->rob_size;
    int64_t stall_cycles = 0, instructions = 0;

    for (int64_t k = 0; k < n; k++) {
        UT_BEGIN(clk);
        const uint8_t *rec = recs + k * REC_SIZE;
        int64_t index = start_index + k;
        int64_t gap = (int64_t)rec_inst_gap(rec);
        uint64_t uaddr = rec_addr(rec);
        int64_t line = (int64_t)(uaddr >> line_shift);
        uint8_t flags = rec_flags(rec);
        int depends = (flags >> 1) & 1;

        /* BranchHistoryRegister.update_many, oldest outcome first: for
         * every family, as Simulator.run folds them */
        int cnt = (int)rec_branch_count(rec);
        if (cnt) {
            uint64_t bb = rec_branch_bits(rec);
            for (int b = 0; b < cnt; b++)
                s->bhr_value = ((s->bhr_value << 1) | ((bb >> b) & 1)) & s->bhr_mask;
        }

        /* --- CoreModel.issue_time --- */
        double issue_f = cursor + (double)(gap + 1) / (double)issue_width;
        if (depends && last_completion > issue_f) issue_f = last_completion;
        if (c->lq_len == (int)c->lq_size && c->lq[c->lq_head] > issue_f)
            issue_f = c->lq[c->lq_head];
        if (c->rob_len) {
            int64_t rob_horizon = inst_pos + gap + 1 - rob_size;
            while (c->rob_len && c->rob_i[c->rob_head] <= rob_horizon) {
                double completion = c->rob_c[c->rob_head];
                c->rob_head = (c->rob_head + 1) & (c->rob_cap - 1);
                c->rob_len--;
                if (completion > rob_floor) rob_floor = completion;
            }
        }
        if (rob_floor > issue_f) issue_f = rob_floor;
        int64_t issue = (int64_t)issue_f;
        UT_MARK(clk, UT_CORE);

        /* --- Hierarchy.demand_access --- */
        int64_t latency;
        int l1_hit, served, ac;
        hier_demand_access(h, line, issue, &latency, &l1_hit, &served, &ac);
        class_counts[ac]++;
        UT_MARK(clk, UT_DEMAND);

        /* --- CoreModel.complete --- */
        double completion = (double)(issue + latency);
        int64_t insts = gap + 1;
        double stall = (double)issue - (cursor + (double)insts / (double)issue_width);
        if (stall > 0) stall_cycles += (int64_t)stall;
        cursor = (double)issue;
        inst_pos += insts;
        last_completion = completion;
        if (completion > max_completion) max_completion = completion;
        /* lq_ring.append (deque(maxlen=lq_size): drop oldest when full) */
        if (c->lq_len == (int)c->lq_size) {
            c->lq[c->lq_head] = completion;
            c->lq_head = (c->lq_head + 1) % (int)c->lq_size;
        } else {
            c->lq[(c->lq_head + c->lq_len) % (int)c->lq_size] = completion;
            c->lq_len++;
        }
        if (!core_rob_push(c, completion, inst_pos)) return -1;
        instructions += insts;
        UT_MARK(clk, UT_CORE);

        /* --- prefetcher --- */
        int primary_miss = !l1_hit && served != SERVED_MSHR;
        int nreq;
        if (is_ctx) {
            CtxAccess a;
            a.ent = tr_ent + k * tr_stride;
            a.rec = rec;
            a.last_value = last_value;
            a.bhr = s->bhr_value;
            a.have_lanes = 0;
            nreq = ctx_on_access(&pf->ctx, index, uaddr, &a, reqs, req_shadow);
        } else {
            nreq = pf_on_access(pf, index, uaddr, rec_pc(rec), primary_miss, reqs);
            UT_MARK(clk, UT_TABLE);
        }

        /* hit-depth bookkeeping: the demand line's prediction is popped
         * before this access's requests record theirs (no prefetcher
         * reads predicted_at, so the pop may follow on_access) */
        int64_t depth = win_pop(predicted_at, line, index);
        if (depth >= 0) depth_counts[depth]++;
        for (int r = 0; r < nreq; r++) {
            int64_t req_addr = reqs[r];
            int64_t pf_line = req_addr >> line_shift;   /* req_addr >= 0 */
            if (is_ctx && req_shadow[r]) {
                hier_note_unissued(h, pf_line);
                issued_shadow++;
            } else if (hier_prefetch(h, pf_line, issue)) {
                issued_real++;
            } else {
                /* on_prefetch_issue: a rejected real prediction demotes */
                if (is_ctx) { pf->ctx.predictions_real--; pf->ctx.predictions_shadow++; }
                hier_note_unissued(h, pf_line);
                issued_shadow++;
            }
            /* predicted_at.get, then set when absent or stale */
            if (!win_note_first(predicted_at, pf_line, index)) return -1;
        }
        if (flags & 1) last_value = rec_value(rec);
        UT_MARK(clk, UT_PREFETCH);
    }
    if (is_ctx) {
        if (pf->ctx.oom) return -1;
        ctx_roll_recent(&pf->ctx, recs, n);
    }

    /* write the core state back (Simulator.run's finally block) */
    c->cursor = cursor;
    c->last_completion = last_completion;
    c->max_completion = max_completion;
    c->inst_pos = inst_pos;
    c->rob_floor = rob_floor;
    c->stall_cycles += stall_cycles;
    c->instructions += instructions;
    c->memory_accesses += n;

    /* finalize + drain */
    double m = cursor > max_completion ? cursor : max_completion;
    int64_t cycles = (int64_t)m;
    c->cycles = cycles;
    hier_apply_fills(h, cycles + 10000);
    int64_t wasted = h->l1.unused_prefetch_evictions + h->l1.resident_unused;

    out[0] = c->instructions;
    int64_t net = cycles - s->cycle_base;
    out[1] = net > 1 ? net : 1;
    out[2] = h->l1_acc; out[3] = h->l1_hit; out[4] = h->l1_miss;
    out[5] = h->l2_acc; out[6] = h->l2_hit; out[7] = h->l2_miss;
    out[8] = class_counts[AC_HIT_PREFETCHED];
    out[9] = class_counts[AC_SHORTER_WAIT];
    out[10] = class_counts[AC_NON_TIMELY];
    out[11] = class_counts[AC_MISS_NOT_PREFETCHED];
    out[12] = class_counts[AC_HIT_OLDER_DEMAND];
    out[13] = wasted;
    out[14] = n;
    out[15] = issued_real;
    out[16] = issued_shadow;
    out[17] = h->prefetches_rejected_mshr;
    out[18] = h->prefetches_redundant;
    for (int d = 0; d <= DEPTH_CAP; d++) out[19 + d] = depth_counts[d];
#ifdef RP_UNIT_TIMING
    clk->accesses += n;
    clk->kernel_ns += ut_now() - t_enter;
#endif
    return 0;
}

/* the unit-timing totals (UNIT_SLOTS int64s): per unit its ns and its
 * interval count, then timed accesses, all accesses, the ns spent inside
 * rp_run and building trace programs, and the cost of one clock read.
 * A program's build serves every access of its cell, timed or not, so
 * UT_PROGRAM reports its time at the timed accesses' share.  Zeros
 * unless this is the unit-timing build. */
void rp_sim_unit_times(const RpSim *s, int64_t *out) {
    memset(out, 0, (2 * UT_UNITS + 4) * sizeof(int64_t));
#ifdef RP_UNIT_TIMING
    const UnitClock *u = &s->clock;
    for (int i = 0; i < UT_UNITS; i++) {
        out[i] = u->ns[i];
        out[UT_UNITS + i] = u->intervals[i];
    }
    out[UT_PROGRAM] = u->accesses ? (int64_t)((double)u->ns[UT_PROGRAM]
                                              * (double)u->timed
                                              / (double)u->accesses) : 0;
    out[2 * UT_UNITS] = u->timed;
    out[2 * UT_UNITS + 1] = u->accesses;
    out[2 * UT_UNITS + 2] = u->kernel_ns + u->ns[UT_PROGRAM];
    out[2 * UT_UNITS + 3] = u->read_ns == INT64_MAX ? 0 : u->read_ns;
#else
    (void)s;
#endif
}

/* the trace program of a live context cell, from its own start state:
 * the simulator's branch history and the cell's recent blocks and
 * history ring, a warm handle's after the runs before */
static int cell_trace(RpSim *s, const Ctx *cx, const uint8_t *recs, int64_t n,
                      int64_t warmup, CtxTrace *t) {
    CtxStart st = {s->bhr_value, cx->recent, cx->n_recent, cx->h_line,
                   cx->hist_cap, cx->h_pos, cx->h_count};
#ifdef RP_UNIT_TIMING
    int64_t t0 = ut_now();
#endif
    int ok = ctx_trace_build(t, &cx->geom, &st, recs, n, warmup, s->bhr_mask);
#ifdef RP_UNIT_TIMING
    s->clock.ns[UT_PROGRAM] += ut_now() - t0;
    s->clock.intervals[UT_PROGRAM]++;
#endif
    return ok;
}

/* The trace programs of a shard: one per distinct capture geometry among
 * the context rows its cells run, each from a fresh cell's start state
 * (every batch cell starts fresh), so all cells of a geometry share one.
 * row_tr[r] becomes row r's program; it stays NULL for a row no context
 * cell runs and where the build failed.  Returns the count of progs
 * used (each to free with ctx_trace_free). */
static int64_t shard_traces(CtxTrace *progs, const CtxTrace **row_tr,
                            int64_t ncells, const int32_t *rows, const int32_t *kinds,
                            const int64_t *cfg_at, const int64_t *cfgs,
                            const uint8_t *recs, int64_t n, int64_t warmup,
                            uint64_t bhr_mask) {
    CtxStart fresh;
    memset(&fresh, 0, sizeof fresh);
    int64_t nprog = 0;
    for (int64_t i = 0; i < ncells; i++) {
        int64_t r = rows[i];
        if (kinds[r] != PF_CONTEXT || row_tr[r]) continue;
        CtxGeom g;
        ctx_geom_of_row(&g, cfgs + cfg_at[r]);
        int64_t p = 0;
        while (p < nprog && !ctx_geom_eq(&progs[p].geom, &g)) p++;
        if (p == nprog) {
            ctx_trace_build(&progs[p], &g, &fresh, recs, n, warmup, bhr_mask);
            nprog++;
        }
        if (progs[p].ent) row_tr[r] = &progs[p];
    }
    return nprog;
}
"""

SOURCE_CTX = (
    SOURCE_CTX_RNG
    + SOURCE_CTX_HASH
    + SOURCE_CTX_STATE
    + SOURCE_CTX_REWARD
    + SOURCE_CTX_CST
    + SOURCE_CTX_FEEDBACK
    + SOURCE_CTX_REDUCER
    + SOURCE_CTX_SELECT
    + SOURCE_CTX_SOFTMAX
    + SOURCE_CTX_ACCESS
)

CDEF_BATCH = """
int rp_batch_openmp(void);
int rp_batch_out_slots(void);
int rp_batch_cell(RpSim *sim, RpPf *pf, int64_t n, int64_t start_index,
                  int64_t warmup, const uint8_t *recs, int64_t *out);
int rp_run_batch(int64_t ncells, const int32_t *rows, const int32_t *seeds,
                 const int32_t *kinds,
                 const int64_t *cfg_at, const int64_t *cfgs,
                 const int64_t *dcfg_at, const double *dcfgs,
                 const int64_t *key_at, const uint32_t *keys,
                 const int64_t *hier_cfg, const int64_t *core_cfg,
                 int64_t n, int64_t start_index, int64_t warmup,
                 const uint8_t *recs,
                 int64_t *outs, int32_t *rcs, double *accuracies,
                 int64_t *hist_lens, int64_t *hist_depths,
                 int64_t *hist_counts, int64_t hist_slots, int nthreads);
int64_t rp_render_batch(int64_t ncells, const int32_t *names,
                        const int64_t *bits, const char *text,
                        const int64_t *text_at, int64_t codec,
                        const int64_t *outs, const int32_t *rcs,
                        const int64_t *hist_lens, const int64_t *hist_depths,
                        const int64_t *hist_counts, int64_t hist_slots,
                        char *buf, int64_t cap, int64_t *marks);
"""

SOURCE_BATCH = r"""
/* ------------------------------------------------------------------ */
/* batch driver: execute N independent cells over one shared read-only
 * record block in a single GIL-released call.  The driver owns the cell
 * state: each thread holds one RpSim and one RpPf for the whole call and
 * renews them before every cell it runs (sim_reset / pf_renew, beside
 * the constructors), so a cell starts from a state equal to a fresh one
 * built from its row.  Cells read only const inputs and write a private
 * RP_BATCH_OUT_SLOTS block at outs + i * RP_BATCH_OUT_SLOTS plus their
 * own rcs/accuracies/hist slots, so neither the thread count nor the
 * order a thread meets its cells can influence results: bit-identical
 * output at any schedule.  PERF005 pins this translation unit and
 * forbids `static`/`__thread` storage here; per-thread state lives in
 * locals of the parallel region.  The OpenMP pragmas degrade to a plain
 * serial loop when the compiler has no -fopenmp (see build.py). */

#ifdef _OPENMP
#include <omp.h>
#endif

#define RP_BATCH_OUT_SLOTS 148  /* must equal _csrc.OUT_SLOTS; the
                                   build refuses a kernel whose
                                   rp_batch_out_slots() differs */

/* per-cell status codes (rcs[i]) besides rp_run's own -1 (out of
 * memory); the adapter maps each to the reason its cell degrades, and
 * raises before the call on a warmup that would return -3. */
#define RP_BATCH_ALLOC_FAILED -2
#define RP_BATCH_WARMUP_TOO_LONG -3
#define RP_BATCH_HIST_OVERFLOW -4

int rp_batch_openmp(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

int rp_batch_out_slots(void) {
    return RP_BATCH_OUT_SLOTS;
}

/* one cell: rp_run with warmup composed as the interpreted Simulator.run
 * composes it — run(prefix) + rp_reset_stats + run(remainder), the
 * remainder `warmup` records further on, in the records and in tr, the
 * context cell's trace program over all n of them (NULL for a table
 * family).  The one cell runner: rp_run_batch runs every batch cell with
 * it, and rp_batch_cell every single cell. */
int rp_cell_run(RpSim *sim, RpPf *pf, const CtxTrace *tr, int64_t n,
                int64_t start_index, int64_t warmup, const uint8_t *recs,
                int64_t *out) {
    const uint64_t *ent = tr ? tr->ent : 0;
    int stride = tr ? tr->stride : 0;
    if (warmup > 0) {
        if (warmup >= n) return RP_BATCH_WARMUP_TOO_LONG;
        int rc = rp_run(sim, pf, warmup, start_index, recs, ent, stride, out);
        if (rc != 0) return rc;
        rp_reset_stats(sim);
        return rp_run(sim, pf, n - warmup, start_index + warmup,
                      recs + warmup * REC_SIZE, tr ? ent + warmup * stride : 0,
                      stride, out);
    }
    return rp_run(sim, pf, n, start_index, recs, ent, stride, out);
}

/* the adapter's single-cell phase_kernel: one cell on warm handles, whose
 * context prefetcher gets a trace program built from its own start
 * state (-1, out of memory, when that fails) */
int rp_batch_cell(RpSim *sim, RpPf *pf, int64_t n, int64_t start_index,
                  int64_t warmup, const uint8_t *recs, int64_t *out) {
    if (pf->kind != PF_CONTEXT)
        return rp_cell_run(sim, pf, 0, n, start_index, warmup, recs, out);
    CtxTrace tr;
    if (!cell_trace(sim, &pf->ctx, recs, n, warmup, &tr)) return -1;
    int rc = rp_cell_run(sim, pf, &tr, n, start_index, warmup, recs, out);
    ctx_trace_free(&tr);
    return rc;
}

/* whole shard in one call.  Cell i runs row r = rows[i] of the row
 * table: prefetcher kind kinds[r] with config row cfgs + cfg_at[r] (plus,
 * for the context kind, dcfgs + dcfg_at[r] and seed key k = seeds[i],
 * keys[key_at[k]:key_at[k+1]]) on a simulator built from the shard-wide
 * hier_cfg/core_cfg, over the n trace-store records at recs.  Cells that
 * share a config share its row.  The context rows' trace programs are
 * built before the team starts, one per capture geometry (shard_traces),
 * only read inside it, and freed with the shard; a context cell whose
 * program could not be built fails alone (rc -2).  A context cell also reports its accuracy
 * EMA and its hit-depth histogram: up to hist_slots (depth, count) pairs
 * at hist_depths/hist_counts + i * hist_slots, in first-insertion order,
 * hist_lens[i] of them.  nthreads > 0 asks for that team size, 0 for the
 * OpenMP default, and the team never outnumbers the cells: libgomp keeps
 * a team's threads for reuse, so a thread without a cell would only
 * idle for the life of the process.  Status
 * lands in rcs[i] (0 ok), so one failing cell degrades alone and never
 * poisons its shard-mates' blocks; the thread drops a failed cell's
 * state instead of renewing it.  Returns 0 always: cell failures are
 * per-cell data, not a call failure. */
int rp_run_batch(int64_t ncells, const int32_t *rows, const int32_t *seeds,
                 const int32_t *kinds,
                 const int64_t *cfg_at, const int64_t *cfgs,
                 const int64_t *dcfg_at, const double *dcfgs,
                 const int64_t *key_at, const uint32_t *keys,
                 const int64_t *hier_cfg, const int64_t *core_cfg,
                 int64_t n, int64_t start_index, int64_t warmup,
                 const uint8_t *recs,
                 int64_t *outs, int32_t *rcs, double *accuracies,
                 int64_t *hist_lens, int64_t *hist_depths,
                 int64_t *hist_counts, int64_t hist_slots, int nthreads) {
    int64_t nrows = 1;
    for (int64_t i = 0; i < ncells; i++)
        if (rows[i] >= nrows) nrows = rows[i] + 1;
    CtxTrace *progs = (CtxTrace *)calloc((size_t)nrows, sizeof(CtxTrace));
    const CtxTrace **row_tr = (const CtxTrace **)calloc((size_t)nrows, sizeof(CtxTrace *));
    int64_t nprog = 0;
    if (progs && row_tr)
        nprog = shard_traces(progs, row_tr, ncells, rows, kinds, cfg_at, cfgs,
                             recs, n, warmup, (uint64_t)core_cfg[3]);
#ifdef _OPENMP
    int team = nthreads > 0 ? nthreads : omp_get_max_threads();
    if (team > ncells) team = ncells > 0 ? (int)ncells : 1;
    #pragma omp parallel num_threads(team)
#else
    (void)nthreads;
#endif
    {
        RpSim *sim = 0;
        RpPf *pf = 0;
#ifdef _OPENMP
        #pragma omp for schedule(dynamic, 1)
#endif
        for (int64_t i = 0; i < ncells; i++) {
            int64_t r = rows[i];
            int64_t k = seeds[i];
            int kind = kinds[r];
            if (sim) sim_reset(sim);
            else sim = rp_sim_new(hier_cfg, core_cfg);
            pf = pf_renew(pf, kind, cfgs + cfg_at[r], dcfgs + dcfg_at[r],
                          keys + key_at[k], (int)(key_at[k + 1] - key_at[k]));
            const CtxTrace *tr = row_tr ? row_tr[r] : 0;
            int rc = RP_BATCH_ALLOC_FAILED;
            if (sim && pf && (kind != PF_CONTEXT || tr))
                rc = rp_cell_run(sim, pf, tr, n, start_index, warmup, recs,
                                 outs + i * RP_BATCH_OUT_SLOTS);
            accuracies[i] = 0.0;
            hist_lens[i] = 0;
            if (rc == 0 && kind == PF_CONTEXT) {
                int64_t len = rp_pf_ctx_hist_len(pf);
                if (len > hist_slots) {
                    rc = RP_BATCH_HIST_OVERFLOW;
                } else {
                    accuracies[i] = rp_pf_ctx_accuracy(pf);
                    hist_lens[i] = len;
                    rp_pf_ctx_hist(pf, hist_depths + i * hist_slots,
                                   hist_counts + i * hist_slots);
                }
            }
            if (rc != 0) {
                rp_sim_free(sim);
                rp_pf_free(pf);
                sim = 0;
                pf = 0;
            }
            rcs[i] = (int32_t)rc;
        }
        rp_sim_free(sim);
        rp_pf_free(pf);
    }
    for (int64_t p = 0; p < nprog; p++) ctx_trace_free(&progs[p]);
    free(progs);
    free(row_tr);
    return 0;
}
"""

# drift: begin native-render
SOURCE_RENDER = r"""
/* ------------------------------------------------------------------ */
/* payload renderer: each batch cell's canonical JSON text, byte for byte
 * what codec.render_text writes for the result phase_finalize would
 * build from the cell's block: every object's keys in sorted order,
 * compact separators, integers in decimal, and the hit-depth keys sorted
 * as strings ("10" before "9").  The depths are the cell's (depth, count)
 * pairs when it has any (duplicate depths sum, zero counts stay), else
 * the nonzero slots of its 129-slot depth block.  The block carries no
 * fill counts, so both levels' prefetch_fills and demand_fills are 0.
 *
 * Names arrive as JSON string literals, quotes included and already
 * escaped: name j is text[text_at[j]:text_at[j+1]], names 0-2 are the
 * workload and the L1/L2 level names, and names[i] is cell i's
 * prefetcher.  The one float, prefetcher_accuracy, is left to the
 * caller (C has no exact match for Python's shortest repr): cell i's
 * text is buf[start:marks[2i]], then the accuracy, then
 * buf[marks[2i]:marks[2i+1]], where start is marks[2i-1] (0 for the
 * first cell).  A cell with a nonzero status renders empty.
 *
 * Returns the bytes all texts need; only what fits in cap is written,
 * so a caller whose buffer came back short renders again into one of
 * the returned size.  -1: scratch allocation failed; -2: a cell claims
 * more pairs than hist_slots. */

typedef struct {
    char key[24];
    int len;
    int64_t count;
} RdEntry;

typedef struct {
    char *buf;
    int64_t cap;
    int64_t pos;
} RdOut;

static void rd_put(RdOut *o, const char *s, int64_t len) {
    if (o->pos + len <= o->cap) memcpy(o->buf + o->pos, s, (size_t)len);
    o->pos += len;
}

#define RD_LIT(o, s) rd_put((o), (s), (int64_t)(sizeof(s) - 1))

/* v in decimal at dst (no terminator); returns the length */
static int rd_digits(char *dst, int64_t v) {
    char rev[20];
    int n = 0, len = 0;
    uint64_t u = v < 0 ? (uint64_t)0 - (uint64_t)v : (uint64_t)v;
    do {
        rev[n++] = (char)('0' + (int)(u % 10));
        u /= 10;
    } while (u);
    if (v < 0) dst[len++] = '-';
    while (n) dst[len++] = rev[--n];
    return len;
}

static void rd_int(RdOut *o, int64_t v) {
    char tmp[24];
    rd_put(o, tmp, rd_digits(tmp, v));
}

static void rd_name(RdOut *o, const char *text, const int64_t *text_at,
                    int64_t j) {
    rd_put(o, text + text_at[j], text_at[j + 1] - text_at[j]);
}

static void rd_entry(RdEntry *e, int64_t depth, int64_t count) {
    e->len = rd_digits(e->key, depth);
    e->key[e->len] = 0;
    e->count = count;
}

static int rd_key_cmp(const void *a, const void *b) {
    return strcmp(((const RdEntry *)a)->key, ((const RdEntry *)b)->key);
}

int64_t rp_render_batch(int64_t ncells, const int32_t *names,
                        const int64_t *bits, const char *text,
                        const int64_t *text_at, int64_t codec,
                        const int64_t *outs, const int32_t *rcs,
                        const int64_t *hist_lens, const int64_t *hist_depths,
                        const int64_t *hist_counts, int64_t hist_slots,
                        char *buf, int64_t cap, int64_t *marks) {
    int64_t room = hist_slots > 129 ? hist_slots : 129;
    RdEntry *entries = (RdEntry *)malloc(sizeof(RdEntry) * (size_t)room);
    if (!entries) return -1;
    RdOut o = {buf, cap, 0};
    for (int64_t i = 0; i < ncells; i++) {
        if (rcs[i] != 0) {
            marks[2 * i] = o.pos;
            marks[2 * i + 1] = o.pos;
            continue;
        }
        const int64_t *out = outs + i * RP_BATCH_OUT_SLOTS;
        int64_t pairs = hist_lens[i];
        int64_t n = 0;
        if (pairs > hist_slots) {
            free(entries);
            return -2;
        }
        if (pairs > 0) {
            const int64_t *d = hist_depths + i * hist_slots;
            const int64_t *c = hist_counts + i * hist_slots;
            for (int64_t k = 0; k < pairs; k++) rd_entry(&entries[n++], d[k], c[k]);
        } else {
            for (int64_t depth = 0; depth < 129; depth++)
                if (out[19 + depth]) rd_entry(&entries[n++], depth, out[19 + depth]);
        }
        qsort(entries, (size_t)n, sizeof(RdEntry), rd_key_cmp);
        int64_t m = 0;
        for (int64_t k = 0; k < n; k++) {
            if (m && strcmp(entries[m - 1].key, entries[k].key) == 0)
                entries[m - 1].count += entries[k].count;
            else
                entries[m++] = entries[k];
        }
        RD_LIT(&o, "{\"classifier\":{\"counts\":{\"HIT_OLDER_DEMAND\":");
        rd_int(&o, out[12]);
        RD_LIT(&o, ",\"HIT_PREFETCHED\":");
        rd_int(&o, out[8]);
        RD_LIT(&o, ",\"MISS_NOT_PREFETCHED\":");
        rd_int(&o, out[11]);
        RD_LIT(&o, ",\"NON_TIMELY\":");
        rd_int(&o, out[10]);
        RD_LIT(&o, ",\"PREFETCH_NEVER_HIT\":");
        rd_int(&o, out[13]);
        RD_LIT(&o, ",\"SHORTER_WAIT\":");
        rd_int(&o, out[9]);
        RD_LIT(&o, "},\"demand_accesses\":");
        rd_int(&o, out[14]);
        RD_LIT(&o, "},\"codec\":");
        rd_int(&o, codec);
        RD_LIT(&o, ",\"cycles\":");
        rd_int(&o, out[1]);
        RD_LIT(&o, ",\"hit_depths\":{");
        for (int64_t k = 0; k < m; k++) {
            if (k) RD_LIT(&o, ",");
            RD_LIT(&o, "\"");
            rd_put(&o, entries[k].key, entries[k].len);
            RD_LIT(&o, "\":");
            rd_int(&o, entries[k].count);
        }
        RD_LIT(&o, "},\"instructions\":");
        rd_int(&o, out[0]);
        RD_LIT(&o, ",\"l1\":{\"accesses\":");
        rd_int(&o, out[2]);
        RD_LIT(&o, ",\"demand_fills\":0,\"hits\":");
        rd_int(&o, out[3]);
        RD_LIT(&o, ",\"misses\":");
        rd_int(&o, out[4]);
        RD_LIT(&o, ",\"name\":");
        rd_name(&o, text, text_at, 1);
        RD_LIT(&o, ",\"prefetch_fills\":0},\"l2\":{\"accesses\":");
        rd_int(&o, out[5]);
        RD_LIT(&o, ",\"demand_fills\":0,\"hits\":");
        rd_int(&o, out[6]);
        RD_LIT(&o, ",\"misses\":");
        rd_int(&o, out[7]);
        RD_LIT(&o, ",\"name\":");
        rd_name(&o, text, text_at, 2);
        RD_LIT(&o, ",\"prefetch_fills\":0},\"prefetcher\":");
        rd_name(&o, text, text_at, names[i]);
        RD_LIT(&o, ",\"prefetcher_accuracy\":");
        marks[2 * i] = o.pos;
        RD_LIT(&o, ",\"prefetches_issued\":");
        rd_int(&o, out[15]);
        RD_LIT(&o, ",\"prefetches_redundant\":");
        rd_int(&o, out[18]);
        RD_LIT(&o, ",\"prefetches_rejected\":");
        rd_int(&o, out[17]);
        RD_LIT(&o, ",\"prefetches_shadow\":");
        rd_int(&o, out[16]);
        RD_LIT(&o, ",\"storage_bits\":");
        rd_int(&o, bits[i]);
        RD_LIT(&o, ",\"workload\":");
        rd_name(&o, text, text_at, 0);
        RD_LIT(&o, "}");
        marks[2 * i + 1] = o.pos;
    }
    free(entries);
    return o.pos;
}
"""
# drift: end native-render

#: full cdef handed to ``ffi.cdef``
CDEF = CDEF_CORE + CDEF_BATCH

#: full translation unit handed to cffi's ``set_source``
SOURCE = (
    SOURCE_RUNTIME + SOURCE_RECORD + SOURCE_MEMORY + SOURCE_CTX + SOURCE_PF
    + SOURCE_RUN + SOURCE_BATCH + SOURCE_RENDER
)
