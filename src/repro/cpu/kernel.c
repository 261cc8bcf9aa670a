/* The lockup-free cache of repro.core.handler, as one C kernel.
 *
 * repro_replay runs an event stream (repro.sim.stream) through the
 * cache, transcribing the scalar replay kernel (repro.cpu.replay)
 * clause for clause: same drain points, same histogram integration
 * boundaries, same structural causes, same stall arithmetic.
 * repro_dual runs the dual-issue machine of
 * repro.cpu.reference.run_dual_issue_reference over the same clauses.
 * repro_classify walks a stream's line columns on an immediate-install
 * cache (the blocking policies' machine) with the same tag store and
 * returns the hit/miss aggregates of repro.sim.stream.functional_summary.
 * Each entry allocates its own tag store from P_SETMASK and P_WAYS.
 *
 * Every MSHR organization of Section 2 is one setting of the runtime
 * parameter block (repro.cpu.ckernel.PARAM_SLOTS), not a different
 * program:
 *   - a direct-mapped cache is ways == 1 (one tag per set, no recency
 *     state);
 *   - an absent max_misses / max_fetches / max_fetches_per_set, and
 *     an unlimited destination-field count, is a value no count
 *     reaches, so the general merge and launch clauses reduce to each
 *     organization's own;
 *   - unported fills are ports == 0;
 *   - a limited field layout and write-miss allocate are flags.
 *
 * The scalar kernel's turbo lane is deliberately not transcribed: an
 * all-hit run from a quiescent machine advances the clock by exactly
 * the body length and counts the same hits, so executing those slots
 * one by one is bit-identical, and in C fast enough that detecting
 * the run buys nothing.
 *
 * Every entry returns 0, or an error code that repro.cpu.replay_cnative
 * maps onto the scalar kernel's SimulationError messages.
 */

#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef unsigned long long u64;

#define FAR_FUTURE (((i64)1) << 62)

/* StructuralCause values, mirrored from repro.core.classify. */
#define NO_FETCH_SLOT 1
#define NO_MISS_SLOT  2
#define NO_SET_SLOT   3
#define NO_DEST_FIELD 4

/* Error codes. */
#define ERR_NO_SET_FETCH 1  /* per-set limit hit with no fetch in the set */
#define ERR_NO_PROGRESS  2  /* structural stall made no progress */
#define ERR_NO_MEMORY    3  /* tag store or fetch queue allocation failed */

/* Parameter block layout: keep in step with ckernel.PARAM_SLOTS. */
enum {
    P_IT1, P_N_SLOTS, P_TAIL_GAP, P_SETMASK, P_WAYS, P_MAXM, P_MAXF, P_MAXS,
    P_NSUB, P_SUBLIM, P_LINE_MASK, P_SUB_SHIFT, P_PORTS, P_PENALTY,
    P_OFFSET_BITS, P_BLOCKING, P_PERFECT, P_LIMITED, P_WMA
};

/* A way slot of a set-associative set, linked MRU to LRU. */
typedef struct { i64 tag, prev, next; } Way;

/* A set's MRU and LRU slots; only its first ``fill`` slots are in use. */
typedef struct { i64 mru, lru, fill; } Set;

typedef struct {
    i64 setmask, ways, maxm, maxf, maxs, nsub, sublim;
    i64 line_mask, sub_shift, ports, penalty, wma;
    i64 *tags;          /* direct-mapped: one tag per set */
    Way *way;           /* set-associative: ways slots per set */
    Set *set;
    i64 *slot_of;       /* block -> way slot, open addressing */
    u64 hmask;
    int hshift;
    i64 *fifo;          /* entry: block, set, ready, merged, counts[nsub] */
    i64 head, tail, cap, stride;
    i64 loads, load_hits, primary, secondary, structural;
    i64 causes[5];
    i64 stores, store_hits, store_misses;
    i64 structural_stall, wa_stall, wb_pushes;
    i64 fetches_launched, evictions, max_m, max_f;
    i64 miss_hist[8], fetch_hist[8];
    i64 last_t, n_misses_out, fence;
    i64 fast_loads, fast_stores, fast_smiss;
    i64 err;
} St;

static void advance_to(St *s, i64 t) {
    i64 dt = t - s->last_t;
    if (dt > 0) {
        i64 nf = s->tail - s->head;
        i64 nm = s->n_misses_out;
        s->fetch_hist[nf < 8 ? nf : 7] += dt;
        s->miss_hist[nm < 8 ? nm : 7] += dt;
        s->last_t = t;
    }
}

static i64 *fifo_push(St *s) {
    if (s->tail == s->cap) {
        if (s->head > 0) {
            i64 n = s->tail - s->head;
            memmove(s->fifo, s->fifo + s->head * s->stride,
                    (size_t)(n * s->stride) * sizeof(i64));
            s->head = 0;
            s->tail = n;
        } else {
            i64 ncap = s->cap * 2;
            i64 *grown = (i64 *)realloc(
                s->fifo, (size_t)(ncap * s->stride) * sizeof(i64));
            if (!grown) {
                s->err = ERR_NO_MEMORY;
                return s->fifo;
            }
            s->fifo = grown;
            s->cap = ncap;
        }
    }
    return s->fifo + (s->tail++) * s->stride;
}

static i64 *find_block(St *s, i64 b) {
    i64 i;
    for (i = s->head; i < s->tail; i++) {
        i64 *f = s->fifo + i * s->stride;
        if (f[0] == b) return f;
    }
    return 0;
}

/* -- tags ------------------------------------------------------------------
 *
 * A direct-mapped set (ways == 1) holds one tag and no recency state.
 * A set-associative set keeps its blocks in way slots linked from MRU
 * to LRU, and a hash from block to slot finds a block in any set, so
 * a probe, a recency move and an eviction each take constant time
 * whatever the associativity.  The semantics are those of the Python
 * list (repro.cache.tags.SetAssociativeTags): a hit moves the block
 * to the MRU end, an install of a present block does the same, and an
 * install of an absent block into a full set evicts the LRU end
 * (counting an eviction) and inserts at the MRU end.
 *
 * The hash is open addressing with linear probing over a power-of-two
 * table of at least twice the cache's lines, so a probe run stays
 * short.  A block's home entry is the high bits of the block times
 * 2^64/phi (Fibonacci hashing), and an eviction deletes its entry by
 * shifting the rest of the run back, so no tombstones accumulate.  -1
 * marks an empty tag and an empty hash entry.
 */

static int open_tags(St *s) {
    i64 sets = s->setmask + 1;
    if (s->ways == 1) {
        s->tags = (i64 *)malloc((size_t)sets * sizeof(i64));
        if (!s->tags) return ERR_NO_MEMORY;
        memset(s->tags, 0xff, (size_t)sets * sizeof(i64));
        return 0;
    }
    i64 lines = sets * s->ways;
    u64 cap = 1;
    s->hshift = 64;
    while (cap < (u64)(2 * lines)) {
        cap <<= 1;
        s->hshift -= 1;
    }
    s->hmask = cap - 1;
    s->way = (Way *)malloc((size_t)lines * sizeof(Way));
    s->set = (Set *)calloc((size_t)sets, sizeof(Set));
    s->slot_of = (i64 *)malloc((size_t)cap * sizeof(i64));
    if (!s->way || !s->set || !s->slot_of) return ERR_NO_MEMORY;
    memset(s->slot_of, 0xff, (size_t)cap * sizeof(i64));
    return 0;
}

static void close_tags(St *s) {
    free(s->tags);
    free(s->way);
    free(s->set);
    free(s->slot_of);
}

static inline u64 home(const St *s, i64 b) {
    return ((u64)b * 0x9E3779B97F4A7C15ULL) >> s->hshift;
}

/* The slot holding block ``b``, or -1. */
static i64 find_slot(const St *s, i64 b) {
    u64 h;
    for (h = home(s, b);; h = (h + 1) & s->hmask) {
        i64 w = s->slot_of[h];
        if (w < 0 || s->way[w].tag == b) return w;
    }
}

/* Delete block ``b``'s entry, which names slot ``w``. */
static void unhash(St *s, i64 b, i64 w) {
    u64 m = s->hmask, i = home(s, b), j;
    while (s->slot_of[i] != w) i = (i + 1) & m;
    for (j = (i + 1) & m; s->slot_of[j] >= 0; j = (j + 1) & m) {
        /* The entry at j may fill the hole at i unless its home lies
         * cyclically in (i, j]. */
        u64 h = home(s, s->way[s->slot_of[j]].tag);
        if (((j - h) & m) >= ((j - i) & m)) {
            s->slot_of[i] = s->slot_of[j];
            i = j;
        }
    }
    s->slot_of[i] = -1;
}

static void link_mru(St *s, Set *set, i64 w) {
    s->way[w].prev = -1;
    s->way[w].next = set->mru;
    s->way[set->mru].prev = w;
    set->mru = w;
}

/* Move a resident block's slot to its set's MRU end. */
static void touch_slot(St *s, i64 w) {
    Set *set = s->set + (s->way[w].tag & s->setmask);
    Way *x = s->way + w;
    if (set->mru == w) return;
    s->way[x->prev].next = x->next;
    if (x->next >= 0) s->way[x->next].prev = x->prev;
    else set->lru = x->prev;
    link_mru(s, set, w);
}

/* Out of line, so the direct-mapped call sites stay small. */
static __attribute__((noinline)) int assoc_touch(St *s, i64 b) {
    i64 w = find_slot(s, b);
    if (w < 0) return 0;
    touch_slot(s, w);
    return 1;
}

static __attribute__((noinline)) void assoc_install(St *s, i64 b) {
    i64 w = find_slot(s, b);
    if (w >= 0) {
        touch_slot(s, w);
        return;
    }
    i64 si = b & s->setmask;
    Set *set = s->set + si;
    if (set->fill < s->ways) {
        w = si * s->ways + set->fill++;
        s->way[w].tag = b;
        if (set->fill == 1) {
            s->way[w].prev = s->way[w].next = -1;
            set->mru = set->lru = w;
        } else {
            link_mru(s, set, w);
        }
    } else {
        w = set->lru;
        s->evictions += 1;
        unhash(s, s->way[w].tag, w);
        s->way[w].tag = b;
        touch_slot(s, w);
    }
    u64 h = home(s, b);
    while (s->slot_of[h] >= 0) h = (h + 1) & s->hmask;
    s->slot_of[h] = w;
}

static inline void install(St *s, i64 b) {
    if (s->ways == 1) {
        i64 si = b & s->setmask;
        i64 old = s->tags[si];
        if (old != b) {
            s->tags[si] = b;
            if (old != -1) s->evictions += 1;
        }
        return;
    }
    assoc_install(s, b);
}

/* Residency probe; a hit becomes the set's most recent block. */
static inline int access_touch(St *s, i64 b) {
    if (s->ways == 1) return s->tags[b & s->setmask] == b;
    return assoc_touch(s, b);
}

/* -- the miss handler ------------------------------------------------------ */

/* Retire every fetch whose data has arrived by ``now``. */
static void drain(St *s, i64 now) {
    while (s->tail > s->head) {
        i64 *f = s->fifo + s->head * s->stride;
        if (f[2] > now) break;
        advance_to(s, f[2]);
        s->head += 1;
        s->n_misses_out -= f[3];
        install(s, f[0]);
    }
    s->fence = (s->tail > s->head)
        ? s->fifo[s->head * s->stride + 2] : FAR_FUTURE;
}

static void count_structural(St *s, i64 cause, i64 stall) {
    s->structural += 1;
    s->causes[cause] += 1;
    s->structural_stall += stall;
}

/* A load to block ``b`` (sub-block ``sub``) issued at ``now``: returns
 * the next issue cycle and writes the data-ready cycle. */
static i64 miss_load(St *s, i64 b, i64 now, i64 sub, i64 *ready_out) {
    s->loads += 1;
    if (s->fence <= now) drain(s, now);
    if (access_touch(s, b)) {
        s->load_hits += 1;
        *ready_out = now + 1;
        return now + 1;
    }
    i64 t = now;
    int stalled = 0;
    i64 s_cause = 0;
    for (;;) {
        i64 *f = find_block(s, b);
        if (f) {
            /* Secondary miss: merge into the fetch when a miss slot
             * and a destination field in its sub-block are free. */
            i64 *counts = f + 4;
            int miss_ok = s->n_misses_out < s->maxm;
            int free_ok = counts[sub] < s->sublim;
            if (miss_ok && free_ok) {
                advance_to(s, t);
                i64 position = f[3];
                f[3] = position + 1;
                s->n_misses_out += 1;
                counts[sub] += 1;
                if (s->n_misses_out > s->max_m)
                    s->max_m = s->n_misses_out;
                i64 ready = s->ports ? f[2] + position / s->ports : f[2];
                if (stalled) count_structural(s, s_cause, t - now);
                else s->secondary += 1;
                *ready_out = ready;
                return t + 1;
            }
            if (!stalled) {
                stalled = 1;
                s_cause = miss_ok ? NO_DEST_FIELD : NO_MISS_SLOT;
            }
            t = miss_ok ? f[2] : s->fence;
            drain(s, t);
            if (access_touch(s, b)) {
                count_structural(s, s_cause, t - now);
                *ready_out = t + 1;
                return t + 1;
            }
            continue;
        }
        /* Primary miss: launch a fetch unless a limit binds; the last
         * binding limit names the cause. */
        i64 si = b & s->setmask;
        i64 wait_until = t;
        i64 cause = 0;
        if (s->tail - s->head >= s->maxf) {
            if (s->fence > wait_until) wait_until = s->fence;
            cause = NO_FETCH_SLOT;
        }
        if (s->n_misses_out >= s->maxm) {
            if (s->fence > wait_until) wait_until = s->fence;
            cause = NO_MISS_SLOT;
        }
        if (s->tail - s->head >= s->maxs) {
            /* Only then can the set hold maxs fetches. */
            i64 in_set = 0, fs_t = -1, i;
            for (i = s->head; i < s->tail; i++) {
                i64 *f2 = s->fifo + i * s->stride;
                if (f2[1] == si) {
                    in_set += 1;
                    if (fs_t < 0) fs_t = f2[2];
                }
            }
            if (in_set >= s->maxs) {
                if (fs_t < 0) {
                    s->err = ERR_NO_SET_FETCH;
                    *ready_out = t + 1;
                    return t + 1;
                }
                if (fs_t > wait_until) wait_until = fs_t;
                cause = NO_SET_SLOT;
            }
        }
        if (cause == 0) {
            advance_to(s, t);
            i64 ft = t + 1 + s->penalty;
            i64 *nf = fifo_push(s);
            if (s->err) {
                *ready_out = t + 1;
                return t + 1;
            }
            nf[0] = b; nf[1] = si; nf[2] = ft; nf[3] = 1;
            /* The launching miss takes one field of its sub-block. */
            for (i64 q = 0; q < s->nsub; q++) nf[4 + q] = q == sub;
            if (s->tail - s->head == 1) s->fence = ft;
            s->n_misses_out += 1;
            s->fetches_launched += 1;
            if (s->n_misses_out > s->max_m) s->max_m = s->n_misses_out;
            if (s->tail - s->head > s->max_f) s->max_f = s->tail - s->head;
            if (stalled) count_structural(s, s_cause, t - now);
            else s->primary += 1;
            *ready_out = ft;
            return t + 1;
        }
        if (!stalled) {
            stalled = 1;
            s_cause = cause;
        }
        if (wait_until <= t) {
            s->err = ERR_NO_PROGRESS;
            *ready_out = t + 1;
            return t + 1;
        }
        t = wait_until;
        drain(s, t);
    }
}

/* A store that missed the fast path: write-around grades it and moves
 * on; write-miss allocate stalls for the fetch and installs the line. */
static i64 slow_store(St *s, i64 b, i64 now) {
    s->stores += 1;
    if (s->fence <= now) drain(s, now);
    int hit = access_touch(s, b);
    if (hit) s->store_hits += 1;
    else s->store_misses += 1;
    s->wb_pushes += 1;
    if (s->wma && !hit) {
        s->wa_stall += s->penalty;
        install(s, b);
        return now + 1 + s->penalty;
    }
    return now + 1;
}

/* -- entry points ---------------------------------------------------------- */

static int open_machine(St *s, const i64 *p) {
    memset(s, 0, sizeof *s);
    s->setmask = p[P_SETMASK];
    s->ways = p[P_WAYS];
    s->maxm = p[P_MAXM];
    s->maxf = p[P_MAXF];
    s->maxs = p[P_MAXS];
    s->nsub = p[P_NSUB];
    s->sublim = p[P_SUBLIM];
    s->line_mask = p[P_LINE_MASK];
    s->sub_shift = p[P_SUB_SHIFT];
    s->ports = p[P_PORTS];
    s->penalty = p[P_PENALTY];
    s->wma = p[P_WMA];
    s->stride = 4 + s->nsub;
    s->cap = 1024;
    s->fifo = (i64 *)malloc((size_t)(s->cap * s->stride) * sizeof(i64));
    if (!s->fifo || open_tags(s)) {
        free(s->fifo);
        close_tags(s);
        return ERR_NO_MEMORY;
    }
    s->fence = FAR_FUTURE;
    return 0;
}

/* Settle the books at ``cycle`` and write the raw counter block. */
static i64 close_machine(St *s, i64 cycle, i64 *out) {
    int j;
    if (s->tail > s->head) drain(s, cycle);
    advance_to(s, cycle);
    out[0] = cycle;
    out[1] = s->loads; out[2] = s->load_hits;
    out[3] = s->primary; out[4] = s->secondary;
    out[5] = s->structural;
    for (j = 0; j < 5; j++) out[6 + j] = s->causes[j];
    out[11] = s->stores; out[12] = s->store_hits;
    out[13] = s->store_misses;
    out[14] = s->structural_stall; out[15] = s->wa_stall;
    out[16] = s->wb_pushes;
    out[17] = s->fetches_launched; out[18] = s->evictions;
    for (j = 0; j < 8; j++) out[19 + j] = s->miss_hist[j];
    for (j = 0; j < 8; j++) out[27 + j] = s->fetch_hist[j];
    out[35] = s->max_m; out[36] = s->max_f;
    out[37] = s->fast_loads; out[38] = s->fast_stores;
    out[39] = s->fast_smiss;
    free(s->fifo);
    close_tags(s);
    return 0;
}

static i64 fail(St *s) {
    free(s->fifo);
    close_tags(s);
    return s->err;
}

/* Replay ``it1`` executions of a stream's slots.  A slot is a load or
 * a store; it issues once every readiness term (a load-ready register
 * plus a delta) is met and ``pregap`` cycles after the previous slot. */
i64 repro_replay(const i64 *p,
                 const i64 *slot_kind, const i64 *slot_lr,
                 const i64 *slot_pregap,
                 const i64 *term_start, const i64 *term_lr,
                 const i64 *term_delta,
                 i64 **lines, i64 **addrs, i64 *lr, i64 *out)
{
    St st;
    i64 rc = open_machine(&st, p);
    if (rc) return rc;
    i64 it1 = p[P_IT1], n_slots = p[P_N_SLOTS], tail_gap = p[P_TAIL_GAP];
    int limited = (int)p[P_LIMITED];
    i64 cycle = 0;
    i64 it, k, j;
    for (it = 0; it < it1; it++) {
        for (k = 0; k < n_slots; k++) {
            i64 t = cycle + slot_pregap[k];
            for (j = term_start[k]; j < term_start[k + 1]; j++) {
                i64 v = lr[term_lr[j]] + term_delta[j];
                if (v > t) t = v;
            }
            i64 b = lines[k][it];
            if (slot_kind[k]) {
                if (t < st.fence && access_touch(&st, b)) {
                    st.fast_loads += 1;
                    t += 1;
                    lr[slot_lr[k]] = t;
                    cycle = t;
                } else {
                    i64 rdy = 0;
                    i64 sub = limited
                        ? (addrs[k][it] & st.line_mask) >> st.sub_shift : 0;
                    cycle = miss_load(&st, b, t, sub, &rdy);
                    lr[slot_lr[k]] = rdy;
                }
            } else if (t < st.fence) {
                /* Nothing in flight can touch this line: grade inline.
                 * A write-around miss neither fetches nor installs. */
                if (access_touch(&st, b)) {
                    st.fast_stores += 1;
                    cycle = t + 1;
                } else if (!st.wma) {
                    st.fast_smiss += 1;
                    cycle = t + 1;
                } else {
                    cycle = slow_store(&st, b, t);
                }
            } else {
                cycle = slow_store(&st, b, t);
            }
            if (st.err) return fail(&st);
        }
        cycle += tail_gap;
        for (j = term_start[n_slots]; j < term_start[n_slots + 1]; j++) {
            i64 v = lr[term_lr[j]] + term_delta[j];
            if (v > cycle) cycle = v;
        }
    }
    return close_machine(&st, cycle, out);
}

/* The dual-issue machine: two slots, one memory port, no same-cycle
 * dependence, and any stall freezes both slots.  ``kind`` is 0 (no
 * memory), 1 (load) or 2 (store); ``reg_ready`` holds one zeroed
 * entry per architectural register.  A perfect cache hits everything,
 * and a blocking cache stalls for the whole penalty and installs at
 * once.  out[40] and out[41] receive the true-dependence stall cycles
 * and the blocking misses. */
i64 repro_dual(const i64 *p, const i64 *kind, const i64 *dst,
               const i64 *src_start, const i64 *src,
               i64 **addrs, i64 *reg_ready, i64 *out)
{
    St st;
    i64 rc = open_machine(&st, p);
    if (rc) return rc;
    i64 executions = p[P_IT1], n_body = p[P_N_SLOTS];
    i64 offset_bits = p[P_OFFSET_BITS];
    i64 blocking = p[P_BLOCKING], perfect = p[P_PERFECT];
    i64 w[2] = {-1, -1};
    i64 cycle = 0, slot = 0, mem_used = 0, truedep = 0, blocked = 0;
    i64 it, j, q;
    for (it = 0; it < executions; it++) {
        for (j = 0; j < n_body; j++) {
            i64 k = kind[j], d = dst[j], ready = 0, nxt, rdy;
            int clash = 0;
            for (q = src_start[j]; q < src_start[j + 1]; q++) {
                i64 r = src[q];
                if (reg_ready[r] > ready) ready = reg_ready[r];
                if (r == w[0] || r == w[1]) clash = 1;
            }
            if (d >= 0) {
                if (reg_ready[d] > ready) ready = reg_ready[d];
                if (d == w[0] || d == w[1]) clash = 1;
            }
            i64 start = (slot < 2 && !(k && mem_used) && !clash)
                ? cycle : cycle + 1;
            if (ready > start) { truedep += ready - start; start = ready; }
            if (start > cycle) {
                cycle = start;
                slot = 0; mem_used = 0; w[0] = w[1] = -1;
            }
            if (!k) {
                if (d >= 0) { reg_ready[d] = cycle + 1; w[slot] = d; }
                slot += 1;
                continue;
            }
            i64 a = addrs[j][it], b = a >> offset_bits;
            int hit = perfect || (cycle < st.fence && access_touch(&st, b));
            if (k == 1) {
                if (hit) {
                    st.fast_loads += 1;
                    nxt = rdy = cycle + 1;
                } else if (blocking) {
                    /* Nothing is ever in flight: the probe saw the miss. */
                    st.loads += 1;
                    blocked += 1;
                    install(&st, b);
                    nxt = rdy = cycle + 1 + st.penalty;
                } else {
                    /* Always 0 when the layout has one sub-block. */
                    i64 sub = (a & st.line_mask) >> st.sub_shift;
                    nxt = miss_load(&st, b, cycle, sub, &rdy);
                }
                reg_ready[d] = rdy;
                w[slot] = d;
            } else if (hit) {
                st.fast_stores += 1;
                nxt = cycle + 1;
            } else {
                nxt = slow_store(&st, b, cycle);
            }
            if (st.err) return fail(&st);
            mem_used = 1;
            slot += 1;
            if (nxt > cycle + 1) {  /* the stall froze both slots */
                cycle = nxt;
                slot = 0; mem_used = 0; w[0] = w[1] = -1;
            }
        }
    }
    cycle += 1;  /* the final cycle is occupied */
    if (perfect) st.last_t = cycle;  /* no occupancy to integrate */
    out[40] = truedep; out[41] = blocked;
    return close_machine(&st, cycle, out);
}

/* Classify ``it1`` executions of a stream's slots on an
 * immediate-install cache, the machine of every blocking policy: a
 * hit is a recency touch, and a miss installs at once when it is a
 * load or write-miss allocate is set (a write-around store miss
 * leaves the line absent).  out[0..4] receive load hits, load misses,
 * store hits, store misses and evictions. */
i64 repro_classify(const i64 *p, const i64 *slot_kind, i64 **lines,
                   i64 *out)
{
    St st;
    memset(&st, 0, sizeof st);
    st.setmask = p[P_SETMASK];
    st.ways = p[P_WAYS];
    if (open_tags(&st)) {
        close_tags(&st);
        return ERR_NO_MEMORY;
    }
    i64 it1 = p[P_IT1], n_slots = p[P_N_SLOTS], wma = p[P_WMA];
    i64 hits[2] = {0, 0}, misses[2] = {0, 0};  /* [1] loads, [0] stores */
    i64 it, k;
    for (it = 0; it < it1; it++) {
        for (k = 0; k < n_slots; k++) {
            i64 b = lines[k][it];
            int load = slot_kind[k] != 0;
            if (access_touch(&st, b)) {
                hits[load] += 1;
                continue;
            }
            misses[load] += 1;
            if (load || wma) install(&st, b);
        }
    }
    out[0] = hits[1]; out[1] = misses[1];
    out[2] = hits[0]; out[3] = misses[0];
    out[4] = st.evictions;
    close_tags(&st);
    return 0;
}
