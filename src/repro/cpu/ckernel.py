"""Generated-C replay kernels: codegen, build, and the on-disk cache.

The scalar replay kernel (:mod:`repro.cpu.replay`) is generated Python;
this module generates the same machine in C, compiles it once per
*policy family*, and memory-maps the shared object for every later
process.  A policy family is the set of codegen-time booleans that
change which clauses exist -- geometry class (direct-mapped vs
set-associative LRU), which MSHR limits are present (``max_misses``,
``max_fetches``, ``max_fetches_per_set``), whether the destination
field layout is limited, whether fills are ported, and the store
grading mode.  Every *numeric* parameter (set mask, ways, the limit
values, penalty, sub-block layout) is a runtime argument, so one
compiled kernel covers every geometry and every limit value in its
family: a full paper sweep needs a handful of ``.so`` files, not one
per cell.

Exactness is inherited from :mod:`repro.cpu.replay`: the C functions
transcribe the generated Python clause for clause (same drain points,
same histogram integration boundaries, same structural causes, same
stall arithmetic).  The scalar turbo lane is deliberately *not*
transcribed -- its own invariant is that an all-hit execution from a
quiescent machine advances the clock by exactly the body length and
counts the same hits, so direct per-slot execution of those runs is
bit-identical, and in C it is fast enough that the detection shortcut
buys nothing.

Each translation unit also carries ``repro_dual``, the dual-issue
machine of Section 6: the issue rules of
:func:`repro.cpu.reference.run_dual_issue_reference` over the same
``miss_load`` / ``slow_store`` clauses, with blocking and perfect
caches as runtime flags, so dual-issue cells need no family of their
own.

Build pipeline: probe for a compiler (``REPRO_CC`` overrides; ``cc`` /
``gcc`` / ``clang`` on PATH otherwise), emit the family's source,
compile it with :data:`CFLAGS` into the kernel cache next to the
result store (``<cache-root>/kernels/``), and load it through cffi in
ABI mode (ctypes when cffi is unavailable -- both just ``dlopen`` the
``.so``).  Cache entries are keyed by a digest of the source text,
the family, the flags and :data:`~repro.sim.simulator.ENGINE_VERSION`,
so any codegen, flag or semantics change invalidates every stale
kernel; ``python -m repro cache gc`` prunes entries whose digest no
longer matches.  No compiler, failed build, missing binding: the
caller falls back to the scalar replay or the reference dual-issue
loop (:mod:`repro.cpu.replay_cnative` tags the cause).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cpu.isa import NUM_REGS
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.config import MachineConfig

#: Bumped when the C template itself changes in a way the source
#: digest would not capture (it always does, so this is belt and
#: braces for the meta schema).
KERNEL_SCHEMA = 1

#: Kernel-cache directory name under the result-store root.
KERNEL_DIR_NAME = "kernels"


class KernelBuildError(SimulationError):
    """A C kernel failed to generate, compile, or load."""


@dataclass(frozen=True)
class KernelFamily:
    """The codegen-time booleans of one replay-kernel specialization.

    Everything numeric about the machine (set mask, ways, limit
    values, penalty, layout geometry) is a runtime parameter of the
    compiled function; only the facts below change which C clauses
    exist.
    """

    #: Direct-mapped tags (no LRU touch) vs set-associative LRU.
    dm: bool
    #: Destination field layout is limited (sub-block merge counting).
    limited: bool
    #: ``policy.max_misses`` present.
    has_maxm: bool
    #: ``policy.max_fetches`` present.
    has_maxf: bool
    #: ``policy.max_fetches_per_set`` present.
    has_maxs: bool
    #: ``policy.fill_ports`` present (ported fill scheduling).
    has_ports: bool
    #: Store grading: 1 = write-miss-allocate, 2 = write-around.
    smode: int

    def label(self) -> str:
        """Short human-readable tag used in filenames and reports."""
        bits = ["dm" if self.dm else "assoc", f"s{self.smode}"]
        if self.limited:
            bits.append("lim")
        if self.has_maxm:
            bits.append("mm")
        if self.has_maxf:
            bits.append("mf")
        if self.has_maxs:
            bits.append("ms")
        if self.has_ports:
            bits.append("pp")
        return "-".join(bits)


def family_of(config: "MachineConfig") -> KernelFamily:
    """The kernel family a machine configuration compiles into."""
    policy = config.policy
    return KernelFamily(
        dm=config.geometry.is_direct_mapped,
        limited=not policy.layout.unlimited,
        has_maxm=policy.max_misses is not None,
        has_maxf=policy.max_fetches is not None,
        has_maxs=policy.max_fetches_per_set is not None,
        has_ports=policy.fill_ports is not None,
        smode=1 if policy.write_allocate_blocking else 2,
    )


# -- C source generation -------------------------------------------------------

#: Runtime parameter block layout (``const i64 *p``); keep in sync
#: with :func:`repro.cpu.replay_cnative._param_block`.
PARAM_SLOTS = (
    "it1", "n_slots", "tail_gap", "setmask", "ways", "maxm", "maxf",
    "maxs", "nsub", "sublim", "line_mask", "sub_shift", "ports",
    "penalty", "offset_bits", "blocking", "perfect",
)

#: Raw counter block written by the kernel (``i64 *out``): 40 shared
#: counters, then the dual-issue driver's truedep and blocking misses.
OUT_SLOTS = 42

#: Flags of every kernel build; they key the cache like the source
#: does.  ``-O1`` builds a family with the dual-issue driver in about
#: the time ``-O2`` built one without it, at a small cost in replay
#: speed (docs/performance.md).
CFLAGS = ("-O1", "-shared", "-fPIC")

_PRELUDE = """\
#include <stdlib.h>
#include <string.h>

typedef long long i64;

#define FAR_FUTURE (((i64)1) << 62)

/* StructuralCause values, mirrored from repro.core.classify. */
#define NO_FETCH_SLOT 1
#define NO_MISS_SLOT  2
#define NO_SET_SLOT   3
#define NO_DEST_FIELD 4

typedef struct {
    i64 setmask, ways, maxm, maxf, maxs, nsub, sublim;
    i64 line_mask, sub_shift, ports, penalty;
    i64 *tags;
    i64 *set_len;
    i64 *fifo;          /* entry: block, set, ready, merged[, counts] */
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
                s->err = 3;
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
"""

_TAGS_DM = """\
static void install(St *s, i64 b) {
    i64 i = b & s->setmask;
    i64 old = s->tags[i];
    if (old != b) {
        s->tags[i] = b;
        if (old != -1) s->evictions += 1;
    }
}

/* Residency probe; direct-mapped tags have no recency state to touch. */
static int access_touch(St *s, i64 b) {
    return s->tags[b & s->setmask] == b;
}
"""

_TAGS_ASSOC = """\
/* Per-set LRU stack, MRU first, mirroring the Python list exactly:
 * a hit moves the block to the front, an install inserts at the
 * front and pops (counting an eviction) when the set overflows. */
static void install(St *s, i64 b) {
    i64 si = b & s->setmask;
    i64 *row = s->tags + si * s->ways;
    i64 len = s->set_len[si];
    i64 j;
    for (j = 0; j < len; j++)
        if (row[j] == b) break;
    if (j < len) {
        memmove(row + 1, row, (size_t)j * sizeof(i64));
        row[0] = b;
    } else {
        if (len == s->ways) {
            s->evictions += 1;
            len -= 1;
        }
        memmove(row + 1, row, (size_t)len * sizeof(i64));
        row[0] = b;
        s->set_len[si] = len + 1;
    }
}

static int access_touch(St *s, i64 b) {
    i64 si = b & s->setmask;
    i64 *row = s->tags + si * s->ways;
    i64 len = s->set_len[si];
    i64 j;
    for (j = 0; j < len; j++) {
        if (row[j] == b) {
            memmove(row + 1, row, (size_t)j * sizeof(i64));
            row[0] = b;
            return 1;
        }
    }
    return 0;
}
"""

_DRAIN = """\
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
"""


def _gen_miss_load(f: KernelFamily) -> str:
    """Transcribe the generated Python ``miss_load`` closure to C."""
    w: List[str] = []
    sub_arg = ", i64 sub" if f.limited else ""
    w.append(f"static i64 miss_load(St *s, i64 b, i64 now{sub_arg}, "
             "i64 *ready_out) {")
    w.append("    s->loads += 1;")
    w.append("    if (s->fence <= now) drain(s, now);")
    w.append("    if (access_touch(s, b)) {")
    w.append("        s->load_hits += 1;")
    w.append("        *ready_out = now + 1;")
    w.append("        return now + 1;")
    w.append("    }")
    w.append("    i64 t = now;")
    w.append("    int stalled = 0;")
    w.append("    i64 s_cause = 0;")
    w.append("    for (;;) {")
    w.append("        i64 *f = find_block(s, b);")
    w.append("        if (f) {")
    merge_always_ok = not f.has_maxm and not f.limited
    if f.limited:
        w.append("            i64 *counts = f + 4;")
        w.append("            int free_ok = counts[sub] < s->sublim;")
    if f.has_maxm:
        w.append("            int miss_ok = s->n_misses_out < s->maxm;")
    if merge_always_ok:
        cond = "1"
    elif not f.has_maxm:
        cond = "free_ok"
    elif not f.limited:
        cond = "miss_ok"
    else:
        cond = "miss_ok && free_ok"
    w.append(f"            if ({cond}) {{")
    w.append("                advance_to(s, t);")
    w.append("                i64 position = f[3];")
    w.append("                f[3] = position + 1;")
    w.append("                s->n_misses_out += 1;")
    if f.limited:
        w.append("                counts[sub] += 1;")
    w.append("                if (s->n_misses_out > s->max_m)")
    w.append("                    s->max_m = s->n_misses_out;")
    if f.has_ports:
        w.append("                i64 ready = f[2] + position / s->ports;")
    else:
        w.append("                i64 ready = f[2];")
    w.append("                if (stalled) {")
    w.append("                    s->structural += 1;")
    w.append("                    s->causes[s_cause] += 1;")
    w.append("                    s->structural_stall += t - now;")
    w.append("                } else {")
    w.append("                    s->secondary += 1;")
    w.append("                }")
    w.append("                *ready_out = ready;")
    w.append("                return t + 1;")
    w.append("            }")
    if not merge_always_ok:
        if not f.has_maxm:
            cause_expr = "NO_DEST_FIELD"
        elif not f.limited:
            cause_expr = "NO_MISS_SLOT"
        else:
            cause_expr = "miss_ok ? NO_DEST_FIELD : NO_MISS_SLOT"
        w.append("            if (!stalled) {")
        w.append("                stalled = 1;")
        w.append(f"                s_cause = {cause_expr};")
        w.append("            }")
        if not f.has_maxm:
            w.append("            t = f[2];")
        elif not f.limited:
            w.append("            t = s->fence;")
        else:
            w.append("            t = miss_ok ? f[2] : s->fence;")
        w.append("            drain(s, t);")
        w.append("            if (access_touch(s, b)) {")
        w.append("                s->structural += 1;")
        w.append("                s->causes[s_cause] += 1;")
        w.append("                s->structural_stall += t - now;")
        w.append("                *ready_out = t + 1;")
        w.append("                return t + 1;")
        w.append("            }")
        w.append("            continue;")
    w.append("        }")
    w.append("        i64 si = b & s->setmask;")
    launch_always_ok = not (f.has_maxf or f.has_maxm or f.has_maxs)
    if not launch_always_ok:
        w.append("        i64 wait_until = t;")
        w.append("        i64 cause = 0;")
        if f.has_maxf:
            w.append("        if (s->tail - s->head >= s->maxf) {")
            w.append("            if (s->fence > wait_until)")
            w.append("                wait_until = s->fence;")
            w.append("            cause = NO_FETCH_SLOT;")
            w.append("        }")
        if f.has_maxm:
            w.append("        if (s->n_misses_out >= s->maxm) {")
            w.append("            if (s->fence > wait_until)")
            w.append("                wait_until = s->fence;")
            w.append("            cause = NO_MISS_SLOT;")
            w.append("        }")
        if f.has_maxs:
            w.append("        {")
            w.append("            i64 in_set = 0, fs_t = -1, i;")
            w.append("            for (i = s->head; i < s->tail; i++) {")
            w.append("                i64 *f2 = s->fifo + i * s->stride;")
            w.append("                if (f2[1] == si) {")
            w.append("                    in_set += 1;")
            w.append("                    if (fs_t < 0) fs_t = f2[2];")
            w.append("                }")
            w.append("            }")
            w.append("            if (in_set >= s->maxs) {")
            w.append("                if (fs_t < 0) {")
            w.append("                    s->err = 1;")
            w.append("                    *ready_out = t + 1;")
            w.append("                    return t + 1;")
            w.append("                }")
            w.append("                if (fs_t > wait_until)")
            w.append("                    wait_until = fs_t;")
            w.append("                cause = NO_SET_SLOT;")
            w.append("            }")
            w.append("        }")
        w.append("        if (cause == 0) {")
        pad = "            "
    else:
        pad = "        "
    w.append(pad + "advance_to(s, t);")
    w.append(pad + "i64 ft = t + 1 + s->penalty;")
    w.append(pad + "i64 *nf = fifo_push(s);")
    w.append(pad + "if (s->err) { *ready_out = t + 1; return t + 1; }")
    w.append(pad + "nf[0] = b; nf[1] = si; nf[2] = ft; nf[3] = 1;")
    if f.limited:
        w.append(pad + "{ i64 q; for (q = 0; q < s->nsub; q++)"
                 " nf[4 + q] = 0; }")
        w.append(pad + "nf[4 + sub] = 1;")
    w.append(pad + "if (s->tail - s->head == 1) s->fence = ft;")
    w.append(pad + "s->n_misses_out += 1;")
    w.append(pad + "s->fetches_launched += 1;")
    w.append(pad + "if (s->n_misses_out > s->max_m)"
             " s->max_m = s->n_misses_out;")
    w.append(pad + "{ i64 nfl = s->tail - s->head;"
             " if (nfl > s->max_f) s->max_f = nfl; }")
    w.append(pad + "if (stalled) {")
    w.append(pad + "    s->structural += 1;")
    w.append(pad + "    s->causes[s_cause] += 1;")
    w.append(pad + "    s->structural_stall += t - now;")
    w.append(pad + "} else {")
    w.append(pad + "    s->primary += 1;")
    w.append(pad + "}")
    w.append(pad + "*ready_out = ft;")
    w.append(pad + "return t + 1;")
    if not launch_always_ok:
        w.append("        }")
        w.append("        if (!stalled) {")
        w.append("            stalled = 1;")
        w.append("            s_cause = cause;")
        w.append("        }")
        w.append("        if (wait_until <= t) {")
        w.append("            s->err = 2;")
        w.append("            *ready_out = t + 1;")
        w.append("            return t + 1;")
        w.append("        }")
        w.append("        t = wait_until;")
        w.append("        drain(s, t);")
    w.append("    }")
    w.append("}")
    return "\n".join(w)


def _gen_slow_store(f: KernelFamily) -> str:
    w: List[str] = []
    w.append("static i64 slow_store(St *s, i64 b, i64 now) {")
    w.append("    s->stores += 1;")
    w.append("    if (s->fence <= now) drain(s, now);")
    w.append("    int hit = access_touch(s, b);")
    w.append("    if (hit) s->store_hits += 1;")
    w.append("    else s->store_misses += 1;")
    w.append("    s->wb_pushes += 1;")
    if f.smode == 1:
        w.append("    if (!hit) {")
        w.append("        s->wa_stall += s->penalty;")
        w.append("        install(s, b);")
        w.append("        return now + 1 + s->penalty;")
        w.append("    }")
    w.append("    return now + 1;")
    w.append("}")
    return "\n".join(w)


def _gen_open(f: KernelFamily) -> List[str]:
    """Declare ``St st`` and load it from the parameter block."""
    stride = "4 + st.nsub" if f.limited else "4"
    return [
        "    St st;",
        "    memset(&st, 0, sizeof st);",
        "    st.setmask = p[3]; st.ways = p[4]; st.maxm = p[5];",
        "    st.maxf = p[6]; st.maxs = p[7]; st.nsub = p[8];",
        "    st.sublim = p[9]; st.line_mask = p[10];",
        "    st.sub_shift = p[11]; st.ports = p[12];",
        "    st.penalty = p[13];",
        "    st.tags = tags; st.set_len = set_len;",
        f"    st.stride = {stride};",
        "    st.cap = 1024;",
        "    st.fifo = (i64 *)malloc("
        "(size_t)(st.cap * st.stride) * sizeof(i64));",
        "    if (!st.fifo) return 3;",
        "    st.fence = FAR_FUTURE;",
    ]


#: Settle the books at ``cycle`` and write the raw counter block.
_CLOSE = """\
    if (st.tail > st.head) drain(&st, cycle);
    advance_to(&st, cycle);
    out[0] = cycle;
    out[1] = st.loads; out[2] = st.load_hits;
    out[3] = st.primary; out[4] = st.secondary;
    out[5] = st.structural;
    for (j = 0; j < 5; j++) out[6 + j] = st.causes[j];
    out[11] = st.stores; out[12] = st.store_hits;
    out[13] = st.store_misses;
    out[14] = st.structural_stall; out[15] = st.wa_stall;
    out[16] = st.wb_pushes;
    out[17] = st.fetches_launched; out[18] = st.evictions;
    for (j = 0; j < 8; j++) out[19 + j] = st.miss_hist[j];
    for (j = 0; j < 8; j++) out[27 + j] = st.fetch_hist[j];
    out[35] = st.max_m; out[36] = st.max_f;
    out[37] = st.fast_loads; out[38] = st.fast_stores;
    out[39] = st.fast_smiss;
    free(st.fifo);
    return 0;
}"""


def _gen_run(f: KernelFamily) -> str:
    w: List[str] = []
    w.append("i64 repro_replay(const i64 *p,")
    w.append("                 const i64 *slot_kind, const i64 *slot_lr,")
    w.append("                 const i64 *slot_pregap,")
    w.append("                 const i64 *term_start, const i64 *term_lr,")
    w.append("                 const i64 *term_delta,")
    w.append("                 i64 **lines, i64 **addrs,")
    w.append("                 i64 *tags, i64 *set_len, i64 *lr,")
    w.append("                 i64 *out)")
    w.append("{")
    w.extend(_gen_open(f))
    w.append("    i64 it1 = p[0];")
    w.append("    i64 n_slots = p[1];")
    w.append("    i64 tail_gap = p[2];")
    w.append("    i64 cycle = 0;")
    w.append("    i64 it, k, j;")
    w.append("    for (it = 0; it < it1; it++) {")
    w.append("        for (k = 0; k < n_slots; k++) {")
    w.append("            i64 t = cycle + slot_pregap[k];")
    w.append("            for (j = term_start[k]; j < term_start[k + 1];"
             " j++) {")
    w.append("                i64 v = lr[term_lr[j]] + term_delta[j];")
    w.append("                if (v > t) t = v;")
    w.append("            }")
    w.append("            i64 b = lines[k][it];")
    w.append("            if (slot_kind[k]) {")
    w.append("                if (t < st.fence && access_touch(&st, b)) {")
    w.append("                    st.fast_loads += 1;")
    w.append("                    t += 1;")
    w.append("                    lr[slot_lr[k]] = t;")
    w.append("                    cycle = t;")
    w.append("                } else {")
    w.append("                    i64 rdy = 0;")
    if f.limited:
        w.append("                    i64 sub = (addrs[k][it]"
                 " & st.line_mask) >> st.sub_shift;")
        w.append("                    cycle = miss_load(&st, b, t, sub,"
                 " &rdy);")
    else:
        w.append("                    cycle = miss_load(&st, b, t, &rdy);")
    w.append("                    lr[slot_lr[k]] = rdy;")
    w.append("                }")
    w.append("            } else {")
    if f.smode == 2:
        # Write-around: a miss before the fence is graded inline and
        # neither fetches nor installs, mirroring the scalar kernel.
        w.append("                if (t < st.fence) {")
        w.append("                    if (access_touch(&st, b))"
                 " st.fast_stores += 1;")
        w.append("                    else st.fast_smiss += 1;")
        w.append("                    cycle = t + 1;")
        w.append("                } else {")
        w.append("                    cycle = slow_store(&st, b, t);")
        w.append("                }")
    else:
        w.append("                if (t < st.fence &&"
                 " access_touch(&st, b)) {")
        w.append("                    st.fast_stores += 1;")
        w.append("                    cycle = t + 1;")
        w.append("                } else {")
        w.append("                    cycle = slow_store(&st, b, t);")
        w.append("                }")
    w.append("            }")
    w.append("            if (st.err) {")
    w.append("                i64 e = st.err;")
    w.append("                free(st.fifo);")
    w.append("                return e;")
    w.append("            }")
    w.append("        }")
    w.append("        cycle += tail_gap;")
    w.append("        for (j = term_start[n_slots];"
             " j < term_start[n_slots + 1]; j++) {")
    w.append("            i64 v = lr[term_lr[j]] + term_delta[j];")
    w.append("            if (v > cycle) cycle = v;")
    w.append("        }")
    w.append("    }")
    w.append(_CLOSE)
    return "\n".join(w)


#: The dual-issue machine of
#: :func:`repro.cpu.reference.run_dual_issue_reference`, driving the
#: family's own handler clauses.  Only the issue rules are new here:
#: two slots, one memory port, no same-cycle dependence, and any stall
#: freezes both slots.  ``kind`` is 0 (no memory), 1 (load) or 2
#: (store); a perfect cache hits everything, and a blocking cache
#: stalls for the whole penalty and installs at once.
_DUAL = """\
i64 repro_dual(const i64 *p, const i64 *kind, const i64 *dst,
               const i64 *src_start, const i64 *src,
               i64 **addrs, i64 *tags, i64 *set_len, i64 *out)
{
%(open)s
    i64 executions = p[0], n_body = p[1], offset_bits = p[14];
    i64 blocking = p[15], perfect = p[16];
    i64 reg_ready[%(nregs)d] = {0};
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
                    nxt = miss_load(&st, b, cycle%(sub)s, &rdy);
                }
                reg_ready[d] = rdy;
                w[slot] = d;
            } else if (hit) {
                st.fast_stores += 1;
                nxt = cycle + 1;
            } else {
                nxt = slow_store(&st, b, cycle);
            }
            if (st.err) { i64 e = st.err; free(st.fifo); return e; }
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
%(close)s"""


def _gen_dual(f: KernelFamily) -> str:
    sub = ", (a & st.line_mask) >> st.sub_shift" if f.limited else ""
    return _DUAL % {"open": "\n".join(_gen_open(f)), "nregs": NUM_REGS,
                    "sub": sub, "close": _CLOSE}


def generate_source(family: KernelFamily) -> str:
    """Emit the complete C translation unit for one kernel family."""
    parts = [
        f"/* repro replay kernel, family {family.label()} */",
        _PRELUDE,
        _TAGS_DM if family.dm else _TAGS_ASSOC,
        _DRAIN,
        _gen_miss_load(family),
        "",
        _gen_slow_store(family),
        "",
        _gen_run(family),
        "",
        _gen_dual(family),
        "",
    ]
    return "\n".join(parts)


# -- compiler probe ------------------------------------------------------------

_CC_CACHE: Dict[str, Optional[str]] = {}


def find_compiler() -> Optional[str]:
    """The C compiler to build kernels with, or ``None``.

    ``REPRO_CC`` overrides the probe entirely: its value is resolved
    through PATH, and a value that resolves to nothing means *no
    compiler* (the forced-fallback hook the tests and the
    compiler-less CI job use).  Otherwise the first of ``cc`` /
    ``gcc`` / ``clang`` on PATH wins.  Results are memoized per
    override value; :func:`reset_probe` re-arms the probe for tests.
    """
    key = os.environ.get("REPRO_CC", "")
    if key in _CC_CACHE:
        return _CC_CACHE[key]
    if key:
        cc = shutil.which(key)
    else:
        cc = None
        for candidate in ("cc", "gcc", "clang"):
            cc = shutil.which(candidate)
            if cc:
                break
    _CC_CACHE[key] = cc
    return cc


def reset_probe() -> None:
    """Forget memoized compiler probes and build failures (tests)."""
    _CC_CACHE.clear()
    _BUILD_FAILURES.clear()
    _KERNELS.clear()


# -- on-disk cache -------------------------------------------------------------


def kernel_cache_dir() -> Path:
    """Where compiled kernels live: ``<result-store root>/kernels``.

    Follows ``REPRO_CACHE_DIR`` like the result store, but is *not*
    disabled by ``REPRO_CACHE=0`` -- a shared object must exist on
    disk to be dlopen'd, and a build cache has no staleness problem
    the digest key does not already solve.
    """
    from repro.sim.resultstore import DEFAULT_ROOT

    root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_ROOT
    return Path(root).expanduser() / KERNEL_DIR_NAME


def _engine_version() -> str:
    from repro.sim.simulator import ENGINE_VERSION

    return ENGINE_VERSION


def kernel_digest(family: KernelFamily, source: str) -> str:
    """Content key: source text + family + flags + engine version + schema."""
    h = hashlib.sha256()
    h.update(_engine_version().encode())
    h.update(repr((KERNEL_SCHEMA, family, CFLAGS)).encode())
    h.update(source.encode())
    return h.hexdigest()


def _entry_paths(digest: str, family: KernelFamily) -> Tuple[Path, Path, Path]:
    base = kernel_cache_dir() / f"{family.label()}-{digest[:16]}"
    return (base.with_suffix(".c"), base.with_suffix(".so"),
            base.with_suffix(".json"))


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def compile_kernel_so(family: KernelFamily) -> Tuple[Path, float, bool]:
    """Ensure the family's ``.so`` exists; return (path, secs, built).

    ``secs`` is the wall-clock compile time (0.0 on a disk hit) so the
    profiler can report codegen cost separately from execution.
    Concurrent builders race benignly: both produce identical bytes
    and the atomic rename makes the last writer win.
    """
    cc = find_compiler()
    if cc is None:
        raise KernelBuildError("no C compiler (REPRO_CC / cc / gcc / clang)")
    source = generate_source(family)
    digest = kernel_digest(family, source)
    c_path, so_path, meta_path = _entry_paths(digest, family)
    if so_path.exists():
        return so_path, 0.0, False
    started = time.perf_counter()
    _atomic_write(c_path, source.encode())
    fd, tmp_so = tempfile.mkstemp(dir=str(so_path.parent),
                                  prefix=so_path.name + ".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp_so, str(c_path)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise KernelBuildError(
                f"{cc} failed for family {family.label()}: "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_so, so_path)
    except BaseException:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        raise
    meta = {
        "schema": KERNEL_SCHEMA,
        "engine_version": _engine_version(),
        "family": asdict(family),
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "digest": digest,
        "cc": cc,
        "cflags": list(CFLAGS),
    }
    _atomic_write(meta_path, json.dumps(meta, indent=2).encode())
    return so_path, time.perf_counter() - started, True


# -- bindings ------------------------------------------------------------------

_CDEF = (
    "long long repro_replay(const long long *, const long long *, "
    "const long long *, const long long *, const long long *, "
    "const long long *, const long long *, long long **, long long **, "
    "long long *, long long *, long long *, long long *);"
    "long long repro_dual(const long long *, const long long *, "
    "const long long *, const long long *, const long long *, "
    "long long **, long long *, long long *, long long *);"
)


class _CffiBinding:
    """ABI-mode cffi: ``dlopen`` the cached shared object."""

    name = "cffi"

    def __init__(self) -> None:
        import cffi

        self._ffi = cffi.FFI()
        self._ffi.cdef(_CDEF)

    def load(self, path: Path):
        lib = self._ffi.dlopen(str(path))
        return lib.repro_replay, lib.repro_dual

    def pointer(self, arr):
        return self._ffi.cast("long long *", arr.ctypes.data)

    def pointer_array(self, arrs):
        if not arrs:
            return self._ffi.NULL
        return self._ffi.new("long long *[]",
                             [self.pointer(a) for a in arrs])

    @property
    def null(self):
        return self._ffi.NULL


class _CtypesBinding:
    """Stdlib fallback when cffi is unavailable: ``ctypes.CDLL``."""

    name = "ctypes"

    def __init__(self) -> None:
        import ctypes

        self._ctypes = ctypes
        self._pll = ctypes.POINTER(ctypes.c_longlong)
        rows = ctypes.POINTER(self._pll)
        self._argtypes = {
            "repro_replay": [self._pll] * 7 + [rows] * 2 + [self._pll] * 4,
            "repro_dual": [self._pll] * 5 + [rows] + [self._pll] * 3,
        }

    def load(self, path: Path):
        lib = self._ctypes.CDLL(str(path))
        fns = []
        for name, argtypes in self._argtypes.items():
            fn = getattr(lib, name)
            fn.restype = self._ctypes.c_longlong
            fn.argtypes = argtypes
            fns.append(fn)
        return tuple(fns)

    def pointer(self, arr):
        return self._ctypes.cast(arr.ctypes.data, self._pll)

    def pointer_array(self, arrs):
        if not arrs:
            return None
        return (self._pll * len(arrs))(*[self.pointer(a) for a in arrs])

    @property
    def null(self):
        return None


_BINDING = None


def get_binding():
    """The (memoized) FFI binding: cffi preferred, ctypes fallback."""
    global _BINDING
    if _BINDING is None:
        try:
            _BINDING = _CffiBinding()
        except ImportError:  # pragma: no cover - cffi is in the image
            _BINDING = _CtypesBinding()
    return _BINDING


class LoadedKernel:
    """One dlopen'd kernel (replay and dual-issue entry) plus provenance."""

    def __init__(self, family: KernelFamily, path: Path,
                 compile_seconds: float, built: bool) -> None:
        self.family = family
        self.path = path
        #: Wall-clock compile time paid by *this* process (0.0 when
        #: the shared object came from the disk cache).
        self.compile_seconds = compile_seconds
        #: True when this process ran the compiler.
        self.built = built
        self._binding = get_binding()
        self._replay, self._dual = self._binding.load(path)

    def _call(self, fn, args) -> int:
        # An array is passed by pointer, a list of arrays as an array
        # of pointers, and ``None`` as NULL.
        b = self._binding
        return int(fn(*[
            b.null if a is None else
            b.pointer_array(a) if isinstance(a, list) else b.pointer(a)
            for a in args
        ]))

    def invoke(self, *args) -> int:
        """Run ``repro_replay``; arguments in its C order."""
        return self._call(self._replay, args)

    def invoke_dual(self, *args) -> int:
        """Run ``repro_dual``; arguments in its C order."""
        return self._call(self._dual, args)


_KERNELS: Dict[KernelFamily, LoadedKernel] = {}
_BUILD_FAILURES: Dict[KernelFamily, str] = {}


def ensure_kernel(family: KernelFamily) -> LoadedKernel:
    """Load (building at most once per process) the family's kernel.

    Raises :class:`KernelBuildError` when no compiler is available or
    the build failed; failures are memoized so a broken toolchain is
    probed once, not once per cell.
    """
    kernel = _KERNELS.get(family)
    if kernel is not None:
        return kernel
    failure = _BUILD_FAILURES.get(family)
    if failure is not None:
        raise KernelBuildError(failure)
    try:
        so_path, secs, built = compile_kernel_so(family)
        kernel = LoadedKernel(family, so_path, secs, built)
    except KernelBuildError as exc:
        _BUILD_FAILURES[family] = str(exc)
        raise
    except OSError as exc:
        _BUILD_FAILURES[family] = f"kernel load failed: {exc}"
        raise KernelBuildError(_BUILD_FAILURES[family]) from exc
    _KERNELS[family] = kernel
    return kernel


def kernels_available() -> bool:
    """Cheap gate for dispatch and tier affinity: can kernels exist?"""
    return find_compiler() is not None


def loaded_kernels() -> Tuple[LoadedKernel, ...]:
    """Kernels dlopen'd by this process (profiling / CLI reporting)."""
    return tuple(_KERNELS.values())


# -- cache maintenance (python -m repro cache) ---------------------------------


def kernel_cache_stats() -> dict:
    """Count and size the on-disk kernel cache for ``cache stats``."""
    root = kernel_cache_dir()
    kernels = 0
    total_bytes = 0
    if root.is_dir():
        for entry in root.iterdir():
            if not entry.is_file():
                continue
            if entry.suffix == ".so":
                kernels += 1
            total_bytes += entry.stat().st_size
    return {
        "path": str(root),
        "kernels": kernels,
        "bytes": total_bytes,
        "compiler": find_compiler(),
        "binding": get_binding().name,
    }


def clear_kernel_cache() -> int:
    """Remove every cached kernel file; returns the count removed."""
    root = kernel_cache_dir()
    removed = 0
    if root.is_dir():
        for entry in list(root.iterdir()):
            if entry.is_file():
                entry.unlink()
                removed += 1
        try:
            root.rmdir()
        except OSError:
            pass
    _KERNELS.clear()
    return removed


def gc_kernel_cache() -> int:
    """Prune stale kernels: wrong engine version, stale source digest,
    or orphaned files with no readable metadata.  Returns the number
    of cache *entries* removed."""
    root = kernel_cache_dir()
    if not root.is_dir():
        return 0
    live_digests = set()
    removed = 0
    metas = sorted(root.glob("*.json"))
    for meta_path in metas:
        stale = True
        try:
            meta = json.loads(meta_path.read_text())
            fam = KernelFamily(**meta["family"])
            source = generate_source(fam)
            if (meta.get("schema") == KERNEL_SCHEMA
                    and meta.get("engine_version") == _engine_version()
                    and meta.get("digest") == kernel_digest(fam, source)):
                stale = False
        except (ValueError, KeyError, TypeError, OSError):
            stale = True
        stem = meta_path.with_suffix("")
        if stale:
            removed += 1
            for suffix in (".c", ".so", ".json"):
                candidate = stem.with_suffix(suffix)
                if candidate.exists():
                    candidate.unlink()
        else:
            live_digests.add(stem.name)
    for entry in list(root.iterdir()):
        if not entry.is_file():
            continue
        if entry.suffix == ".json":
            continue
        if entry.with_suffix(".json").exists():
            continue
        # Orphan .c/.so (or a torn temp file): no metadata, no trust.
        entry.unlink()
        removed += 1
    return removed
