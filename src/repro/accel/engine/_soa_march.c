/* SoA scatter-march kernel for the `soa` engine, the default engine.
 *
 * One call simulates one whole scatter phase in the reference engine's
 * per-cycle order (propagation deliver -> ePE offers -> edge tick ->
 * frontend tick) over structure-of-arrays state: every FIFO bank is a
 * preallocated ring with head/length vectors (one int64/double ring per
 * record field, except the propagation FIFOs, whose slots are whole
 * PropRec records), MDP routing is the table[stage][pos][dest] tensor
 * built from the mdp/generator plans, the range network routes by two
 * per-bank tables built from its plan (rn_room: banks left in the
 * stage's block; rn_port: the target queue), and the arbiter state
 * (odd-even parity, rotating-scan starts, round-robin pointers, stall
 * memos) and the conflict counters live in the struct for the whole
 * run.  The Python side (soa.py) owns the numpy arrays; this kernel
 * only views them through `SoaState`.
 *
 * The kernel is reentrant: it keeps no file-scope state.  Everything a
 * call reads or writes hangs off its `SoaState`, including the
 * per-phase occupancy totals, so simulations on separate threads (ctypes
 * releases the GIL for the call) never share anything.  `SoaState` is
 * declared once, as the SOA_FIELDS list; soa_layout() exports that list
 * with offsets, kinds and the named constants, and soakernel.py builds
 * and checks its ctypes struct from the table instead of mirroring it.
 *
 * The kernel must be BYTE-IDENTICAL to repro/accel/engine/reference.py:
 * every loop below mirrors one of the reference component models —
 * the frontends of accel/frontend.py (with hw/arbiter.py's odd-even
 * and greedy-claim arbiters), the edge stages of accel/edge_access.py
 * (mdp/replay.py, mdp/range_network.py) and the propagation sites of
 * accel/backend.py (mdp/network.py, hw/crossbar.py) — in the same scan
 * order, with the same stall/combining/arbitration decisions and the
 * same float operation order (C doubles and CPython floats are both
 * IEEE-754 binary64, and the closed-form reduce kernels below tie
 * exactly like the Python builtins).  What differs is bookkeeping that
 * cannot change a decision: occupancy counts that end a scan once
 * every occupied queue was visited, the propagation MDP stage passes
 * that route every head first and then move them in ascending source
 * order, the dispatcher and central-window stall memos, and the range
 * network's unchecked insert while its whole population fits under
 * the block line (docs/performance.md).
 * The differential suite and tests/test_engine_fuzz.py hold it to that.
 *
 * The one side output is touch_dv, the delivered-vertex log the engine
 * uses to restore its resident tProperty buffer to identity.
 *
 * Plain C99 + libc only; compiled at first use via cc -O2 -shared
 * (see soakernel.py).  No -ffast-math: IEEE semantics are the point.
 */

#include <stddef.h>
#include <string.h>

typedef long long i64;
typedef double f64;

#define SOA_ABI_VERSION 7

/* Named constants, exported through soa_layout(): the struct magic
 * (ASCII "SOA" plus the ABI digit), the reduce_op codes, and the proc
 * codes (5 is the weight-independent proc==1 with a declared closed
 * form). */
#define SOA_CONSTS(C) \
    C(SOA_MAGIC, 0x534F4130 + SOA_ABI_VERSION) \
    C(RED_ADD, 0) C(RED_MIN, 1) C(RED_MAX, 2) \
    C(PROC_IDENTITY, 0) C(PROC_ADD_W, 2) C(PROC_MIN_W, 3) \
    C(PROC_ADD_CONST, 5)

#define SOA_ENUM(name, value) name = (value),
enum { SOA_CONSTS(SOA_ENUM) };
#undef SOA_ENUM

/* One slot of a propagation FIFO (the MDP network's pn_q rings and the
 * crossbar's px_q rings): the record (v, Imm), the number of edge
 * records combined into it, and its bank v % m, computed once when an
 * ePE offers it, so routing and arbitration never divide.  A move
 * copies one record between rings.  soa_layout() exports its size;
 * the Python side allocates the rings as opaque records of that size. */
typedef struct { i64 v, cnt; f64 imm; i64 bank; } PropRec;

/* SoaState, declared once: F(kind, name) per field.  The list expands
 * to the struct below and to the soa_layout() table soakernel.py builds
 * its ctypes struct from, so the two sides cannot drift.  Kinds: I64,
 * F64, and pointers I64P/F64P (CI64P/CF64P when the kernel only reads)
 * and PRECP (a ring of PropRec records).  Every field is 8 bytes; the
 * magic fields at both ends guard the pointer soa_march() is handed. */
#define SOA_FIELDS(F) \
    F(I64, magic) \
    /* -- config ----------------------------------------------------- */ \
    F(I64, n) F(I64, m) F(I64, w)   /* front/back channels, dispatchers */ \
    F(I64, fifo_depth) F(I64, block_len)    /* block line (fd - radix) */ \
    F(I64, issue_depth) F(I64, fe_depth) F(I64, disp_depth) \
    F(I64, epe_depth) F(I64, replay_depth) \
    F(I64, combining) \
    F(I64, reduce_op) \
    F(I64, proc) \
    F(F64, proc_const) \
    F(I64, front_is_mdp) F(I64, edge_is_mdp) F(I64, prop_is_mdp) \
    F(I64, ce_issue_limit) F(I64, ce_capacity) \
    F(I64, has_rnet) \
    F(I64, rn_block_len) F(I64, rn_ring)  /* range net */ \
    /* -- graph ------------------------------------------------------ */ \
    F(CI64P, offsets) F(CI64P, dst) F(CI64P, weights) \
    /* -- frontend MDP net (Sf x n rings of fifo_depth) -------------- */ \
    F(I64, fn_stages) \
    F(CI64P, fn_table)              /* [Sf][n][n] */ \
    F(I64P, fn_qu) F(F64P, fn_qs) \
    F(I64P, fn_head) F(I64P, fn_len)    /* [Sf*n] */ \
    F(I64P, fn_counts)              /* [Sf] */ \
    /* -- frontend crossbar (n input rings) -------------------------- */ \
    F(I64P, fx_qu) F(F64P, fx_qs) \
    F(I64P, fx_head) F(I64P, fx_len)    /* [n] */ \
    F(I64P, fx_rr)                  /* [n], persistent */ \
    /* -- issue queues [n][issue_depth] ------------------------------ */ \
    F(I64P, iq_u) F(F64P, iq_s) F(I64P, iq_head) F(I64P, iq_len) \
    /* -- fe_out [n][fe_depth] --------------------------------------- */ \
    F(I64P, fo_off) F(I64P, fo_len) F(F64P, fo_s) \
    F(I64P, fo_head) F(I64P, fo_cnt) \
    /* -- ActiveVertex parts (flat, grouped by channel) -------------- */ \
    F(CI64P, part_u) F(CF64P, part_sp) \
    F(I64P, part_pos) F(I64P, part_end)     /* [n]; part_pos advances */ \
    /* -- MDP edge stage --------------------------------------------- */ \
    F(I64P, rp_po) F(I64P, rp_pl)   /* pending rings [n][replay_depth] */ \
    F(F64P, rp_ps) \
    F(I64P, rp_head) F(I64P, rp_cnt) \
    F(I64P, rp_cur_off) F(I64P, rp_cur_rem) /* lazy piece stream per ch */ \
    F(F64P, rp_cur_pay) \
    F(CI64P, pos_of)                /* [n] */ \
    F(CI64P, chan_at)               /* channel ids grouped by position */ \
    F(CI64P, chan_at_start) F(CI64P, chan_at_cnt)  /* [w] */ \
    F(I64P, busy_at)                /* [w] */ \
    F(I64P, rp_rr)                  /* [w], persistent */ \
    F(I64, rn_stages) \
    F(CI64P, rn_room)   /* [Sr][m] banks left in the stage's block */ \
    F(CI64P, rn_port)   /* [Sr][w][m] target queue by start bank */ \
    F(I64P, rn_qo) F(I64P, rn_ql)   /* rings [Sr*w] of rn_ring slots */ \
    F(F64P, rn_qp) \
    F(I64P, rn_head) F(I64P, rn_len)    /* [Sr*w] */ \
    F(I64P, rn_counts)              /* [Sr] */ \
    F(I64P, dq_off) F(I64P, dq_len) /* dispatcher rings [w][disp_depth] */ \
    F(F64P, dq_pay) \
    F(I64P, dq_head) F(I64P, dq_cnt) \
    F(I64P, disp_stall)             /* [w], persistent */ \
    /* -- central edge stage ----------------------------------------- */ \
    F(I64P, ce_off) F(I64P, ce_len) F(F64P, ce_pay)   /* [ce_capacity] */ \
    F(I64, ce_stall_off) F(I64, ce_stall_len)   /* persistent; -1 none */ \
    F(I64, ce_stall_bank) \
    /* -- ePE queues [m][epe_depth] ---------------------------------- */ \
    F(I64P, ep_v) F(F64P, ep_imm) F(I64P, ep_head) F(I64P, ep_cnt) \
    /* -- propagation MDP net (Sp x m rings of fifo_depth records) --- */ \
    F(I64, pn_stages) \
    F(CI64P, pn_table)              /* [Sp][m][m] */ \
    F(PRECP, pn_q) \
    F(I64P, pn_head) F(I64P, pn_len)    /* [Sp*m] */ \
    F(I64P, pn_counts)              /* [Sp] */ \
    /* -- propagation crossbar (m input rings of records) ------------ */ \
    F(PRECP, px_q) \
    F(I64P, px_head) F(I64P, px_len)    /* [m] */ \
    F(I64P, px_rr)                  /* [m], persistent */ \
    /* -- scratch [max(n,m,w)] --------------------------------------- */ \
    F(I64P, s_epoch) F(I64P, s_val) F(I64P, s_epoch2) F(I64P, s_val2) \
    F(I64P, s_src) F(I64P, s_tgt)   /* a stage pass's routed moves */ \
    /* -- arbiter scalars (persistent; set once at bind) ------------- */ \
    F(I64, parity) F(I64, fstart) \
    /* -- per-phase run state ---------------------------------------- */ \
    F(F64P, tprop)                  /* full num_vertices array */ \
    F(I64, expected) F(I64, fe_pending) F(I64, limit) \
    /* -- per-phase occupancy totals (queues are empty at phase ------ */ \
    /*    boundaries, so soa_march() zeroes these on entry)            */ \
    F(I64, fe_total) F(I64, iq_total) F(I64, fn_count) F(I64, fx_count) \
    F(I64, rn_count) F(I64, disp_count) F(I64, epe_count) \
    F(I64, rp_busy_total) F(I64, ce_cnt) F(I64, ce_head) \
    F(I64, pn_count) F(I64, px_count) \
    F(I64, epoch_ctr) \
    /* -- resident tProperty delta tracking -------------------------- */ \
    F(I64P, touch_dv)               /* delivered vertices, dups allowed */ \
    F(I64, touch_len) \
    /* -- conflict counters: run totals, zero at bind ---------------- */ \
    F(I64, deferrals)               /* frontend arbitration deferrals */ \
    F(I64, edge_blocked)    /* dispatcher blocked | window conflicts */ \
    F(I64, rnet_stall) F(I64, rnet_rej) \
    F(I64, prop_stall)      /* prop MDP net stall_events | xbar conflicts */ \
    F(I64, prop_rej) \
    /* -- outputs ---------------------------------------------------- */ \
    F(I64, cycles) F(I64, starved) F(I64, busy) F(I64, reduces) \
    F(I64, magic2)

#define CTYPE_I64 i64
#define CTYPE_F64 f64
#define CTYPE_I64P i64 *
#define CTYPE_F64P f64 *
#define CTYPE_CI64P const i64 *
#define CTYPE_CF64P const f64 *
#define CTYPE_PRECP PropRec *

typedef struct {
#define SOA_DECLARE(kind, name) CTYPE_##kind name;
    SOA_FIELDS(SOA_DECLARE)
#undef SOA_DECLARE
} SoaState;

/* ------------------------------------------------------------------ */
static inline f64 red(i64 op, f64 a, f64 b) {
    /* ties resolve to the FIRST argument (the accumulator), exactly
     * like the algorithms' `imm if imm < acc else acc` reductions */
    if (op == RED_ADD) return a + b;
    if (op == RED_MIN) return (b < a) ? b : a;
    return (b > a) ? b : a;
}

/* ring slot addressing: queue `q` in a bank of queues with depth D */
#define RING(arr, q, D, i) (arr)[((q) * (D)) + (i)]

/* (i) mod D for 0 <= i < 2D: a ring index head + k with head < D and
 * k <= D, or a rotating pointer start + k with start, k < D.  One
 * compare instead of a divide; a vertex id or an edge offset has no
 * such bound and keeps its `%`. */
static inline i64 wrap(i64 i, i64 D) { return i < D ? i : i - D; }

/* ================================================================== */
/* Frontend: shared retire (issue head -> {Off, Len} in fe_out)       */
/* ================================================================== */

static inline i64 fe_retire(SoaState *st, i64 ch) {
    i64 D = st->issue_depth;
    i64 h = st->iq_head[ch];
    i64 u = RING(st->iq_u, ch, D, h);
    f64 sp = RING(st->iq_s, ch, D, h);
    st->iq_head[ch] = wrap(h + 1, D);
    st->iq_len[ch] -= 1;
    st->iq_total -= 1;
    i64 off = st->offsets[u];
    i64 length = st->offsets[u + 1] - off;
    if (length > 0) {
        i64 FD = st->fe_depth;
        i64 slot = wrap(st->fo_head[ch] + st->fo_cnt[ch], FD);
        RING(st->fo_off, ch, FD, slot) = off;
        RING(st->fo_len, ch, FD, slot) = length;
        RING(st->fo_s, ch, FD, slot) = sp;
        st->fo_cnt[ch] += 1;
        st->fe_total += 1;
    }
    return 1;
}

/* ================================================================== */
/* Frontend MDP net (MdpNetworkSim over (u % n, u, sprop)); no combining */
/* ================================================================== */

static void fn_advance_checked(SoaState *st) {
    /* always the checked variant: under the block line it never stalls,
     * so it is move-for-move the no-backpressure fast path */
    i64 n = st->n, D = st->fifo_depth, bl = st->block_len;
    for (i64 s = st->fn_stages - 1; s >= 1; s--) {
        i64 total = st->fn_counts[s - 1];
        if (!total) continue;
        const i64 *tbl = st->fn_table + s * n * n;
        i64 moved = 0, seen = 0;
        for (i64 p = 0; p < n; p++) {
            i64 qi = (s - 1) * n + p;
            if (!st->fn_len[qi]) continue;
            seen++;
            i64 h = st->fn_head[qi];
            i64 u = RING(st->fn_qu, qi, D, h);
            i64 ti = s * n + tbl[p * n + (u % n)];
            if (st->fn_len[ti] <= bl) {     /* else stalled */
                i64 slot = wrap(st->fn_head[ti] + st->fn_len[ti], D);
                RING(st->fn_qu, ti, D, slot) = u;
                RING(st->fn_qs, ti, D, slot) = RING(st->fn_qs, qi, D, h);
                st->fn_len[ti] += 1;
                st->fn_head[qi] = wrap(h + 1, D);
                st->fn_len[qi] -= 1;
                moved++;
            }
            if (seen == total) break;
        }
        st->fn_counts[s - 1] -= moved;
        st->fn_counts[s] += moved;
    }
}

static void fn_deliver_into_issue(SoaState *st) {
    i64 n = st->n, D = st->fifo_depth, ID = st->issue_depth;
    i64 last = st->fn_stages - 1;
    i64 total = st->fn_counts[last];
    i64 popped = 0, seen = 0;
    for (i64 p = 0; p < n; p++) {
        i64 qi = last * n + p;
        if (st->fn_len[qi]) {
            seen++;
            if (st->iq_len[p] < ID) {
                i64 h = st->fn_head[qi];
                i64 slot = wrap(st->iq_head[p] + st->iq_len[p], ID);
                RING(st->iq_u, p, ID, slot) = RING(st->fn_qu, qi, D, h);
                RING(st->iq_s, p, ID, slot) = RING(st->fn_qs, qi, D, h);
                st->iq_len[p] += 1;
                st->fn_head[qi] = wrap(h + 1, D);
                st->fn_len[qi] -= 1;
                popped++;
            }
            if (seen == total) break;
        }
    }
    st->fn_counts[last] -= popped;
    st->fn_count -= popped;
    st->iq_total += popped;
}

static void fn_inject_parts(SoaState *st) {
    i64 n = st->n, D = st->fifo_depth, bl = st->block_len;
    const i64 *tbl0 = st->fn_table;     /* stage 0 */
    i64 added = 0;
    for (i64 p = 0; p < n; p++) {
        i64 pos = st->part_pos[p];
        if (pos >= st->part_end[p]) continue;
        i64 u = st->part_u[pos];
        i64 t = tbl0[p * n + (u % n)];  /* stage-0 queue index == t */
        if (st->fn_len[t] && st->fn_len[t] > bl) continue;     /* rejected */
        i64 slot = wrap(st->fn_head[t] + st->fn_len[t], D);
        RING(st->fn_qu, t, D, slot) = u;
        RING(st->fn_qs, t, D, slot) = st->part_sp[pos];
        st->fn_len[t] += 1;
        added++;
        st->part_pos[p] = pos + 1;
    }
    if (added) {
        st->fn_counts[0] += added;
        st->fn_count += added;
    }
}

static i64 parts_remaining(SoaState *st) {
    for (i64 p = 0; p < st->n; p++)
        if (st->part_pos[p] < st->part_end[p]) return 1;
    return 0;
}

static i64 front_mdp_tick(SoaState *st) {
    i64 n = st->n, ID = st->issue_depth;
    i64 retired = 0;
    /* -- issue: odd-even arbitration over the request heads */
    if (st->iq_total) {
        i64 parity = st->parity;
        i64 epoch = ++st->epoch_ctr;
        i64 any_claimed = 0;        /* any bank claimed this cycle */
        for (i64 ch = parity; ch < n; ch += 2) {    /* priority: grant */
            if (st->iq_len[ch] && st->fo_cnt[ch] < st->fe_depth) {
                i64 u = RING(st->iq_u, ch, ID, st->iq_head[ch]);
                st->s_epoch[u % n] = epoch;
                st->s_val[u % n] = u;
                st->s_epoch[(u + 1) % n] = epoch;
                st->s_val[(u + 1) % n] = u + 1;
                any_claimed = 1;
                retired += fe_retire(st, ch);
            }
        }
        for (i64 ch = 1 - parity; ch < n; ch += 2) {    /* defer */
            if (st->iq_len[ch] && st->fo_cnt[ch] < st->fe_depth) {
                i64 u = RING(st->iq_u, ch, ID, st->iq_head[ch]);
                i64 a2 = u + 1;
                i64 b1 = u % n, b2 = a2 % n;
                /* claimed.get(b, default) == default passes: a bank is
                 * free if unclaimed OR claimed with the same value */
                if (!any_claimed
                    || ((st->s_epoch[b1] != epoch || st->s_val[b1] == u)
                        && (st->s_epoch[b2] != epoch
                            || st->s_val[b2] == a2))) {
                    st->s_epoch[b1] = epoch; st->s_val[b1] = u;
                    st->s_epoch[b2] = epoch; st->s_val[b2] = a2;
                    any_claimed = 1;
                    retired += fe_retire(st, ch);
                } else {
                    st->deferrals += 1;
                }
            }
        }
    }
    st->parity ^= 1;
    /* -- route: deliver into issue queues, advance, inject parts */
    if (st->fn_counts[st->fn_stages - 1]) fn_deliver_into_issue(st);
    if (st->fn_count) fn_advance_checked(st);
    if (parts_remaining(st)) fn_inject_parts(st);
    return retired;
}

/* ================================================================== */
/* Frontend crossbar (ArbitratedCrossbar over (u % n, u, sprop))    */
/* ================================================================== */

static i64 front_xbar_tick(SoaState *st) {
    i64 n = st->n, D = st->fifo_depth, ID = st->issue_depth;
    i64 retired = 0;
    /* -- issue: centralized greedy claim arbitration (rotating scan) */
    if (st->iq_total) {
        i64 epoch = ++st->epoch_ctr;
        i64 start = st->fstart;
        for (i64 k = 0; k < n; k++) {
            i64 ch = wrap(start + k, n);
            if (st->iq_len[ch] && st->fo_cnt[ch] < st->fe_depth) {
                i64 u = RING(st->iq_u, ch, ID, st->iq_head[ch]);
                i64 b1 = u % n, b2 = (u + 1) % n;
                if (st->s_epoch[b1] == epoch || st->s_epoch[b2] == epoch) {
                    st->deferrals += 1;
                } else {
                    st->s_epoch[b1] = epoch;
                    st->s_epoch[b2] = epoch;
                    retired += fe_retire(st, ch);
                }
            }
        }
    }
    st->fstart = wrap(st->fstart + 1, n);
    /* -- route: crossbar tick under issue-queue budgets (tick_budget:
     * budget[dest] = issue_depth - len(issue_q[dest]), computed before
     * arbitration; each granted dest accepts exactly one item) */
    if (st->fx_count) {
        i64 epoch = ++st->epoch_ctr;
        i64 total = st->fx_count, seen = 0;
        for (i64 i = 0; i < n; i++) {
            if (!st->fx_len[i]) continue;
            seen++;
            i64 u = RING(st->fx_qu, i, D, st->fx_head[i]);
            i64 dest = u % n;
            if (st->iq_len[dest] >= ID) {
                /* every requester of a full output loses */
            } else if (st->s_epoch2[dest] != epoch) {
                st->s_epoch2[dest] = epoch;
                st->s_val2[dest] = i;
            } else {
                /* round-robin distances (i - ptr) mod n, (w - ptr) mod n */
                i64 ptr = st->fx_rr[dest];
                i64 di = i - ptr, dw = st->s_val2[dest] - ptr;
                if (di < 0) di += n;
                if (dw < 0) dw += n;
                if (di < dw) st->s_val2[dest] = i;
            }
            if (seen == total) break;
        }
        /* winners pop distinct inputs into distinct issue queues, so
         * ascending-dest order here matches dict insertion order */
        for (i64 dest = 0; dest < n; dest++) {
            if (st->s_epoch2[dest] != epoch) continue;
            i64 i = st->s_val2[dest];
            i64 h = st->fx_head[i];
            i64 slot = wrap(st->iq_head[dest] + st->iq_len[dest], ID);
            RING(st->iq_u, dest, ID, slot) = RING(st->fx_qu, i, D, h);
            RING(st->iq_s, dest, ID, slot) = RING(st->fx_qs, i, D, h);
            st->iq_len[dest] += 1;
            st->iq_total += 1;
            st->fx_head[i] = wrap(h + 1, D);
            st->fx_len[i] -= 1;
            st->fx_count--;
            st->fx_rr[dest] = wrap(i + 1, n);
        }
    }
    /* -- inject parts: offer one head per alive part (xbar offer has
     * no combining here and does NOT count rejected offers) */
    for (i64 p = 0; p < n; p++) {
        i64 pos = st->part_pos[p];
        if (pos >= st->part_end[p]) continue;
        if (st->fx_len[p] >= st->fifo_depth) continue;  /* refused */
        i64 slot = wrap(st->fx_head[p] + st->fx_len[p], D);
        RING(st->fx_qu, p, D, slot) = st->part_u[pos];
        RING(st->fx_qs, p, D, slot) = st->part_sp[pos];
        st->fx_len[p] += 1;
        st->fx_count++;
        st->part_pos[p] = pos + 1;
    }
    return retired;
}

/* ================================================================== */
/* Range-split network (RangeSplitNetwork; own radix and block line) */
/* ================================================================== */

/* A piece {off, length} starting at bank sb = off % m is cut at the
 * stage's block boundaries: the sub-piece at bank b takes up to
 * rn_room[stage][b] banks and goes to queue rn_port[stage][entry][b].
 * Pieces never wrap the bank space, so b stays below m. */

/* push every sub-piece, unchecked */
static void rn_push(SoaState *st, i64 stage, i64 entry, i64 off, i64 sb,
                    i64 length, f64 payload) {
    i64 m = st->m, RD = st->rn_ring;
    const i64 *room = st->rn_room + stage * m;
    const i64 *port = st->rn_port + (stage * st->w + entry) * m;
    i64 added = 0;
    while (length > 0) {
        i64 take = (length < room[sb]) ? length : room[sb];
        i64 qi = port[sb];
        i64 slot = wrap(st->rn_head[qi] + st->rn_len[qi], RD);
        RING(st->rn_qo, qi, RD, slot) = off;
        RING(st->rn_ql, qi, RD, slot) = take;
        RING(st->rn_qp, qi, RD, slot) = payload;
        st->rn_len[qi] += 1;
        off += take; sb += take; length -= take;
        added++;
    }
    st->rn_counts[stage] += added;
    st->rn_count += added;
}

/* two passes exactly like RangeSplitNetwork._try_insert: every
 * sub-piece validates against PRE-push queue lengths (sub-pieces may
 * share a target queue), then all push */
static i64 rn_try_insert(SoaState *st, i64 stage, i64 entry, i64 off,
                         i64 sb, i64 length, f64 payload) {
    i64 m = st->m, bl = st->rn_block_len;
    const i64 *room = st->rn_room + stage * m;
    const i64 *port = st->rn_port + (stage * st->w + entry) * m;
    for (i64 b = sb, len = length; len > 0;) {
        i64 take = (len < room[b]) ? len : room[b];
        if (st->rn_len[port[b]] > bl) return 0;
        b += take; len -= take;
    }
    rn_push(st, stage, entry, off, sb, length, payload);
    return 1;
}

static i64 rn_offer(SoaState *st, i64 entry, i64 off, i64 length,
                    f64 payload) {
    i64 sb = off % st->m;
    if (st->rn_count <= st->rn_block_len) {
        rn_push(st, 0, entry, off, sb, length, payload);
        return 1;
    }
    if (rn_try_insert(st, 0, entry, off, sb, length, payload)) return 1;
    st->rnet_rej += 1;
    return 0;
}

static void rn_advance_checked(SoaState *st) {
    i64 m = st->m, w = st->w, RD = st->rn_ring, bl = st->rn_block_len;
    i64 stalled_total = 0;
    for (i64 s = st->rn_stages - 1; s >= 1; s--) {
        i64 total = st->rn_counts[s - 1];
        if (!total) continue;
        const i64 *room = st->rn_room + s * m;
        i64 seen = 0, moved = 0, stalled = 0;
        for (i64 p = 0; p < w; p++) {
            i64 qi = (s - 1) * w + p;
            if (!st->rn_len[qi]) continue;
            seen++;
            i64 h = st->rn_head[qi];
            i64 off = RING(st->rn_qo, qi, RD, h);
            i64 length = RING(st->rn_ql, qi, RD, h);
            i64 sb = off % m;
            if (length <= room[sb]) {       /* plain move */
                i64 ti = st->rn_port[(s * w + p) * m + sb];
                if (st->rn_len[ti] > bl) {
                    stalled++;
                } else {
                    i64 slot = wrap(st->rn_head[ti] + st->rn_len[ti], RD);
                    RING(st->rn_qo, ti, RD, slot) = off;
                    RING(st->rn_ql, ti, RD, slot) = length;
                    RING(st->rn_qp, ti, RD, slot) = RING(st->rn_qp, qi, RD, h);
                    st->rn_len[ti] += 1;
                    st->rn_head[qi] = wrap(h + 1, RD);
                    st->rn_len[qi] -= 1;
                    moved++;
                }
            } else if (rn_try_insert(st, s, p, off, sb, length,
                                     RING(st->rn_qp, qi, RD, h))) {
                st->rn_head[qi] = wrap(h + 1, RD);
                st->rn_len[qi] -= 1;
                st->rn_counts[s - 1] -= 1;
                st->rn_count -= 1;
            } else {
                stalled++;
            }
            if (seen == total) break;
        }
        if (moved) {
            st->rn_counts[s - 1] -= moved;
            st->rn_counts[s] += moved;
        }
        stalled_total += stalled;
    }
    if (stalled_total) st->rnet_stall += stalled_total;
}

/* ================================================================== */
/* Edge stages: shared ePE emission                                   */
/* ================================================================== */

static inline void epe_push(SoaState *st, i64 bank, i64 v, f64 imm) {
    i64 D = st->epe_depth;
    i64 slot = wrap(st->ep_head[bank] + st->ep_cnt[bank], D);
    RING(st->ep_v, bank, D, slot) = v;
    RING(st->ep_imm, bank, D, slot) = imm;
    st->ep_cnt[bank] += 1;
}

static void edge_emit(SoaState *st, i64 off, i64 length, f64 payload,
                      i64 first_bank) {
    /* replay pieces never wrap, so banks are consecutive from off % m;
     * proc dispatch hoisted out of the per-edge loop */
    i64 bank = first_bank;
    switch (st->proc) {
    case PROC_IDENTITY:
        for (i64 e = off; e < off + length; e++, bank++)
            epe_push(st, bank, st->dst[e], payload);
        break;
    case PROC_ADD_W:
        for (i64 e = off; e < off + length; e++, bank++)
            epe_push(st, bank, st->dst[e], payload + (f64)st->weights[e]);
        break;
    case PROC_MIN_W:
        for (i64 e = off; e < off + length; e++, bank++) {
            f64 wt = (f64)st->weights[e];
            epe_push(st, bank, st->dst[e], (payload < wt) ? payload : wt);
        }
        break;
    default: {      /* PROC_ADD_CONST: hoisted weight-independent form */
        f64 pv = payload + st->proc_const;
        for (i64 e = off; e < off + length; e++, bank++)
            epe_push(st, bank, st->dst[e], pv);
        break;
    }
    }
    st->epe_count += length;
}

/* ================================================================== */
/* MDP edge stage                                                     */
/* ================================================================== */

static i64 disp_accept0(SoaState *st, i64 off, i64 length, f64 payload) {
    if (st->dq_cnt[0] >= st->disp_depth) return 0;
    i64 slot = wrap(st->dq_head[0] + st->dq_cnt[0], st->disp_depth);
    st->dq_off[slot] = off;
    st->dq_len[slot] = length;
    st->dq_pay[slot] = payload;
    st->dq_cnt[0] += 1;
    st->disp_count += 1;
    return 1;
}

/* lazy piece stream: (cur_off, cur_rem, cur_pay) replaces rp_pieces.
 * Pieces are consumed strictly head-first, and split_request(off, len,
 * m) yields successive min(rem, m - off % m) chunks, so emitting
 * the next chunk on demand is exactly the recorded deque of pieces. */
static i64 rp_emit(SoaState *st, i64 ch, i64 *off, i64 *length, f64 *pay) {
    if (!st->rp_cur_rem[ch]) {
        if (!st->rp_cnt[ch]) return 0;
        i64 D = st->replay_depth;
        i64 h = st->rp_head[ch];
        st->rp_cur_off[ch] = RING(st->rp_po, ch, D, h);
        st->rp_cur_rem[ch] = RING(st->rp_pl, ch, D, h);
        st->rp_cur_pay[ch] = RING(st->rp_ps, ch, D, h);
        st->rp_head[ch] = wrap(h + 1, D);
        st->rp_cnt[ch] -= 1;
    }
    i64 o = st->rp_cur_off[ch];
    i64 room = st->m - o % st->m;
    i64 rem = st->rp_cur_rem[ch];
    *off = o;
    *length = (rem < room) ? rem : room;
    *pay = st->rp_cur_pay[ch];
    return 1;
}

static void rp_consume(SoaState *st, i64 ch, i64 pos, i64 piece_len) {
    st->rp_cur_off[ch] += piece_len;
    st->rp_cur_rem[ch] -= piece_len;
    if (!st->rp_cur_rem[ch] && !st->rp_cnt[ch]) {
        st->busy_at[pos] -= 1;
        st->rp_busy_total -= 1;
    }
}

static void edge_mdp_tick(SoaState *st) {
    i64 m = st->m, w = st->w;
    /* 1. dispatchers issue bank reads into the ePE queues */
    if (st->disp_count) {
        i64 DD = st->disp_depth;
        i64 issued = 0;
        for (i64 d = 0; d < w; d++) {
            if (!st->dq_cnt[d]) continue;
            i64 sb = st->disp_stall[d];
            if (sb >= 0) {
                if (st->ep_cnt[sb] >= st->epe_depth) {
                    st->edge_blocked += 1;
                    continue;
                }
                st->disp_stall[d] = -1;
            }
            i64 h = st->dq_head[d];
            i64 off = RING(st->dq_off, d, DD, h);
            i64 length = RING(st->dq_len, d, DD, h);
            i64 bank = off % m;
            i64 blocked = 0;
            for (i64 b = bank; b < bank + length; b++) {
                if (st->ep_cnt[b] >= st->epe_depth) {
                    st->disp_stall[d] = b;
                    blocked = 1;
                    break;
                }
            }
            if (blocked) {
                st->edge_blocked += 1;
                continue;
            }
            f64 pay = RING(st->dq_pay, d, DD, h);
            st->dq_head[d] = wrap(h + 1, DD);
            st->dq_cnt[d] -= 1;
            issued++;
            edge_emit(st, off, length, pay, bank);
        }
        st->disp_count -= issued;
    }
    /* 2. network delivers pieces to dispatchers, then advances */
    if (st->has_rnet && st->rn_count) {
        i64 last = st->rn_stages - 1;
        if (st->rn_counts[last]) {
            i64 RD = st->rn_ring, DD = st->disp_depth;
            i64 popped = 0;
            for (i64 d = 0; d < w; d++) {
                i64 qi = last * w + d;
                if (st->rn_len[qi] && st->dq_cnt[d] < DD) {
                    i64 h = st->rn_head[qi];
                    i64 slot = wrap(st->dq_head[d] + st->dq_cnt[d], DD);
                    RING(st->dq_off, d, DD, slot) = RING(st->rn_qo, qi, RD, h);
                    RING(st->dq_len, d, DD, slot) = RING(st->rn_ql, qi, RD, h);
                    RING(st->dq_pay, d, DD, slot) = RING(st->rn_qp, qi, RD, h);
                    st->rn_head[qi] = wrap(h + 1, RD);
                    st->rn_len[qi] -= 1;
                    st->dq_cnt[d] += 1;
                    popped++;
                }
            }
            st->rn_counts[last] -= popped;
            st->rn_count -= popped;
            st->disp_count += popped;
        }
        if (st->rn_count) rn_advance_checked(st);
    }
    /* 3. replay engines emit one piece per network input position:
     * first channel in rr order holding a piece gets ONE offer attempt,
     * then the position is done this cycle regardless of acceptance */
    if (st->rp_busy_total) {
        for (i64 pos = 0; pos < w; pos++) {
            if (!st->busy_at[pos]) continue;
            i64 num = st->chan_at_cnt[pos];
            i64 rr = st->rp_rr[pos];
            for (i64 k = 0; k < num; k++) {
                i64 idx = wrap(rr + k, num);
                i64 ch = st->chan_at[st->chan_at_start[pos] + idx];
                i64 off, length;
                f64 pay;
                if (!rp_emit(st, ch, &off, &length, &pay)) continue;
                i64 accepted = st->has_rnet
                    ? rn_offer(st, pos, off, length, pay)
                    : disp_accept0(st, off, length, pay);
                if (accepted) {
                    rp_consume(st, ch, pos, length);
                    st->rp_rr[pos] = wrap(idx + 1, num);
                }
                break;
            }
        }
    }
    /* 4. replay engines pull new {Off, Len} requests from the frontend */
    if (st->fe_total) {
        i64 FD = st->fe_depth, RD2 = st->replay_depth;
        i64 pulled = 0;
        for (i64 ch = 0; ch < st->n; ch++) {
            if (!st->fo_cnt[ch]) continue;
            if (st->rp_cnt[ch] < RD2) {
                if (!st->rp_cnt[ch] && !st->rp_cur_rem[ch]) {
                    st->busy_at[st->pos_of[ch]] += 1;
                    st->rp_busy_total += 1;
                }
                i64 h = st->fo_head[ch];
                i64 slot = wrap(st->rp_head[ch] + st->rp_cnt[ch], RD2);
                RING(st->rp_po, ch, RD2, slot) = RING(st->fo_off, ch, FD, h);
                RING(st->rp_pl, ch, RD2, slot) = RING(st->fo_len, ch, FD, h);
                RING(st->rp_ps, ch, RD2, slot) = RING(st->fo_s, ch, FD, h);
                st->fo_head[ch] = wrap(h + 1, FD);
                st->fo_cnt[ch] -= 1;
                st->rp_cnt[ch] += 1;
                pulled++;
            }
        }
        st->fe_total -= pulled;
    }
}

/* ================================================================== */
/* Central edge stage                                                 */
/* ================================================================== */

static void edge_central_tick(SoaState *st) {
    i64 m = st->m;
    i64 cap = st->ce_capacity;
    /* 1. in-order greedy window issue (with the blocked-head memo) */
    i64 issue_blocked = 0;
    if (st->ce_stall_off >= 0) {
        if (st->ce_cnt
            && st->ce_off[st->ce_head] == st->ce_stall_off
            && st->ce_len[st->ce_head] == st->ce_stall_len
            && st->ep_cnt[st->ce_stall_bank] >= st->epe_depth) {
            issue_blocked = 1;      /* head still blocked: provable no-op */
        } else {
            st->ce_stall_off = st->ce_stall_len = st->ce_stall_bank = -1;
        }
    }
    if (st->ce_cnt && !issue_blocked) {
        i64 epoch = ++st->epoch_ctr;    /* claimed-banks set for this tick */
        i64 any_claimed = 0;
        i64 issued_requests = 0;
        while (st->ce_cnt && issued_requests < st->ce_issue_limit) {
            i64 off = st->ce_off[st->ce_head];
            i64 length = st->ce_len[st->ce_head];
            i64 k = (length < m) ? length : m;
            i64 b0 = off % m;       /* the window's banks: b0 + j mod m */
            if (any_claimed) {      /* first window can never conflict */
                i64 conflict = 0;
                for (i64 j = 0; j < k; j++) {
                    if (st->s_epoch[wrap(b0 + j, m)] == epoch) {
                        conflict = 1;
                        break;
                    }
                }
                if (conflict) {
                    st->edge_blocked += 1;
                    break;          /* strict in-order: head blocks rest */
                }
            }
            i64 full = 0, jf = 0;
            for (i64 j = 0; j < k; j++) {
                if (st->ep_cnt[wrap(b0 + j, m)] >= st->epe_depth) {
                    full = 1;
                    jf = j;
                    break;
                }
            }
            if (full) {
                if (!any_claimed) {     /* nothing issued: memoize */
                    st->ce_stall_off = off;
                    st->ce_stall_len = length;
                    st->ce_stall_bank = wrap(b0 + jf, m);
                }
                break;
            }
            f64 pay = st->ce_pay[st->ce_head];
            switch (st->proc) {
            case PROC_IDENTITY:
                for (i64 j = 0; j < k; j++) {
                    i64 e = off + j, b = wrap(b0 + j, m);
                    epe_push(st, b, st->dst[e], pay);
                    st->s_epoch[b] = epoch;
                }
                break;
            case PROC_ADD_W:
                for (i64 j = 0; j < k; j++) {
                    i64 e = off + j, b = wrap(b0 + j, m);
                    epe_push(st, b, st->dst[e], pay + (f64)st->weights[e]);
                    st->s_epoch[b] = epoch;
                }
                break;
            case PROC_MIN_W:
                for (i64 j = 0; j < k; j++) {
                    i64 e = off + j, b = wrap(b0 + j, m);
                    f64 wt = (f64)st->weights[e];
                    epe_push(st, b, st->dst[e], (pay < wt) ? pay : wt);
                    st->s_epoch[b] = epoch;
                }
                break;
            default: {
                f64 pv = pay + st->proc_const;
                for (i64 j = 0; j < k; j++) {
                    i64 e = off + j, b = wrap(b0 + j, m);
                    epe_push(st, b, st->dst[e], pv);
                    st->s_epoch[b] = epoch;
                }
                break;
            }
            }
            any_claimed = 1;
            st->epe_count += k;
            if (k == length) {
                st->ce_head = wrap(st->ce_head + 1, cap);
                st->ce_cnt -= 1;
                issued_requests++;
            } else {
                st->ce_off[st->ce_head] = off + k;
                st->ce_len[st->ce_head] = length - k;
                break;      /* the window already spans all banks */
            }
        }
    }
    /* 2. merge front-end requests in channel order */
    if (st->fe_total) {
        i64 FD = st->fe_depth;
        i64 pulled = 0;
        for (i64 ch = 0; ch < st->n; ch++) {
            if (st->ce_cnt >= cap) break;
            if (st->fo_cnt[ch]) {
                i64 h = st->fo_head[ch];
                i64 slot = wrap(st->ce_head + st->ce_cnt, cap);
                st->ce_off[slot] = RING(st->fo_off, ch, FD, h);
                st->ce_len[slot] = RING(st->fo_len, ch, FD, h);
                st->ce_pay[slot] = RING(st->fo_s, ch, FD, h);
                st->fo_head[ch] = wrap(h + 1, FD);
                st->fo_cnt[ch] -= 1;
                st->ce_cnt += 1;
                pulled++;
            }
        }
        st->fe_total -= pulled;
    }
}

/* ================================================================== */
/* Propagation MDP net (MdpNetworkSim over (v % m, v, imm, cnt))     */
/* ================================================================== */

static void pn_advance_checked(SoaState *st) {
    i64 m = st->m, D = st->fifo_depth, bl = st->block_len;
    i64 combining = st->combining, op = st->reduce_op;
    PropRec *q = st->pn_q;
    i64 *head = st->pn_head, *len = st->pn_len;
    i64 *src = st->s_src, *tgt = st->s_tgt;
    i64 combined_total = 0, stalled_total = 0;
    for (i64 s = st->pn_stages - 1; s >= 1; s--) {
        if (!st->pn_counts[s - 1]) continue;
        const i64 *tbl = st->pn_table + s * m * m;
        /* route: each non-empty source queue and its head's target
         * queue, in ascending source order, without a branch.  An empty
         * queue's head slot is stale but holds a bank in [0, m) (the
         * rings start zeroed), so its table read stays in bounds; the
         * next entry overwrites it. */
        i64 k = 0;
        for (i64 p = 0; p < m; p++) {
            i64 qi = (s - 1) * m + p;
            src[k] = qi;
            tgt[k] = s * m + tbl[p * m + RING(q, qi, D, head[qi]).bank];
            k += len[qi] != 0;
        }
        /* move: sources sit in stage s - 1 and targets in stage s, so
         * no move changes a later entry's route; in ascending source
         * order, combining, the block line and stalls see the scan's
         * sequence */
        i64 moved = 0, combined = 0;
        for (i64 j = 0; j < k; j++) {
            i64 qi = src[j], ti = tgt[j];
            i64 h = head[qi];
            const PropRec *r = &RING(q, qi, D, h);
            i64 tlen = len[ti];
            if (tlen) {
                PropRec *tail = &RING(q, ti, D, wrap(head[ti] + tlen - 1, D));
                if (combining && tail->v == r->v) {
                    tail->imm = red(op, tail->imm, r->imm);
                    tail->cnt += r->cnt;
                    head[qi] = wrap(h + 1, D);
                    len[qi] -= 1;
                    combined++;
                    continue;
                }
                if (tlen > bl) {
                    stalled_total++;
                    continue;
                }
            }
            RING(q, ti, D, wrap(head[ti] + tlen, D)) = *r;
            len[ti] += 1;
            head[qi] = wrap(h + 1, D);
            len[qi] -= 1;
            moved++;
        }
        st->pn_counts[s - 1] -= (combined + moved);
        st->pn_counts[s] += moved;
        combined_total += combined;
    }
    if (combined_total) st->pn_count -= combined_total;
    if (stalled_total) st->prop_stall += stalled_total;
}

static void pn_deliver_reduce(SoaState *st, i64 *got_out, i64 *red_out) {
    i64 m = st->m, D = st->fifo_depth, op = st->reduce_op;
    i64 last = st->pn_stages - 1;
    i64 total = st->pn_counts[last];
    if (!total) { *got_out = 0; *red_out = 0; return; }
    const PropRec *q = st->pn_q;
    i64 *head = st->pn_head, *len = st->pn_len;
    i64 got = 0, reduces = 0;
    for (i64 p = 0; p < m; p++) {
        i64 qi = last * m + p;
        if (len[qi]) {
            i64 h = head[qi];
            const PropRec *r = &RING(q, qi, D, h);
            i64 dv = r->v;
            reduces += r->cnt;
            st->touch_dv[st->touch_len++] = dv;
            head[qi] = wrap(h + 1, D);
            len[qi] -= 1;
            st->tprop[dv] = red(op, st->tprop[dv], r->imm);
            got++;
            if (got == total) break;
        }
    }
    st->pn_counts[last] -= got;
    st->pn_count -= got;
    *got_out = got;
    *red_out = reduces;
}

/* stage-0 MdpNetworkSim.offer from the ePE queues, one record per
 * channel per cycle (the reference scatter loop's step 2) */
static void pn_offer_epes(SoaState *st) {
    i64 m = st->m, D = st->fifo_depth, ED = st->epe_depth;
    i64 bl = st->block_len, combining = st->combining, op = st->reduce_op;
    const i64 *tbl0 = st->pn_table;
    PropRec *q = st->pn_q;
    i64 *head = st->pn_head, *len = st->pn_len;
    i64 total = st->epe_count, consumed = 0, added = 0, seen = 0;
    for (i64 k = 0; k < m; k++) {
        if (!st->ep_cnt[k]) continue;
        seen++;
        i64 h = st->ep_head[k];
        i64 v = RING(st->ep_v, k, ED, h);
        f64 imm = RING(st->ep_imm, k, ED, h);
        i64 bank = v % m;
        i64 t = tbl0[k * m + bank];     /* stage-0 queue index == t */
        i64 tlen = len[t];
        PropRec *tail = tlen ? &RING(q, t, D, wrap(head[t] + tlen - 1, D)) : 0;
        if (tail && combining && tail->v == v) {
            tail->imm = red(op, tail->imm, imm);
            tail->cnt += 1;
        } else if (tlen > bl) {     /* bl >= 0: only a non-empty FIFO */
            st->prop_rej += 1;
            if (seen == total) break;
            continue;
        } else {
            PropRec *slot = &RING(q, t, D, wrap(head[t] + tlen, D));
            slot->v = v;
            slot->cnt = 1;
            slot->imm = imm;
            slot->bank = bank;
            len[t] += 1;
            added++;
        }
        st->ep_head[k] = wrap(h + 1, ED);
        st->ep_cnt[k] -= 1;
        consumed++;
        if (seen == total) break;
    }
    st->epe_count -= consumed;
    st->pn_counts[0] += added;
    st->pn_count += added;
}

/* ================================================================== */
/* Propagation crossbar (ArbitratedCrossbar, input-tail combining)  */
/* ================================================================== */

static void px_deliver_reduce(SoaState *st, i64 *got_out, i64 *red_out) {
    i64 m = st->m, D = st->fifo_depth, op = st->reduce_op;
    i64 total = st->px_count;
    if (!total) { *got_out = 0; *red_out = 0; return; }
    const PropRec *q = st->px_q;
    i64 *head = st->px_head, *len = st->px_len;
    /* tick_unit: incremental round-robin winner per destination */
    i64 epoch = ++st->epoch_ctr;
    i64 seen = 0, conflicts = 0;
    for (i64 i = 0; i < m; i++) {
        if (!len[i]) continue;
        seen++;
        i64 dest = RING(q, i, D, head[i]).bank;
        if (st->s_epoch2[dest] != epoch) {
            st->s_epoch2[dest] = epoch;
            st->s_val2[dest] = i;
        } else {
            conflicts++;
            /* round-robin distances (i - ptr) mod m, (w - ptr) mod m */
            i64 ptr = st->px_rr[dest];
            i64 di = i - ptr, dw = st->s_val2[dest] - ptr;
            if (di < 0) di += m;
            if (dw < 0) dw += m;
            if (di < dw) st->s_val2[dest] = i;
        }
        if (seen == total) break;
    }
    st->prop_stall += conflicts;
    /* distinct dests pop distinct inputs and reduce distinct vertices
     * (dv % m == dest), so ascending-dest order matches dict order */
    i64 got = 0, reduces = 0;
    for (i64 dest = 0; dest < m; dest++) {
        if (st->s_epoch2[dest] != epoch) continue;
        i64 i = st->s_val2[dest];
        i64 h = head[i];
        const PropRec *r = &RING(q, i, D, h);
        i64 dv = r->v;
        reduces += r->cnt;
        st->touch_dv[st->touch_len++] = dv;
        head[i] = wrap(h + 1, D);
        len[i] -= 1;
        st->px_count--;
        st->tprop[dv] = red(op, st->tprop[dv], r->imm);
        got++;
        st->px_rr[dest] = wrap(i + 1, m);
    }
    *got_out = got;
    *red_out = reduces;
}

static void px_offer_epes(SoaState *st) {
    i64 m = st->m, D = st->fifo_depth, ED = st->epe_depth;
    i64 combining = st->combining, op = st->reduce_op;
    PropRec *q = st->px_q;
    i64 *head = st->px_head, *len = st->px_len;
    i64 total = st->epe_count, consumed = 0, seen = 0;
    for (i64 k = 0; k < m; k++) {
        if (!st->ep_cnt[k]) continue;
        seen++;
        i64 h = st->ep_head[k];
        i64 v = RING(st->ep_v, k, ED, h);
        f64 imm = RING(st->ep_imm, k, ED, h);
        i64 flen = len[k];
        PropRec *tail = flen ? &RING(q, k, D, wrap(head[k] + flen - 1, D)) : 0;
        if (tail && combining && tail->v == v) {
            tail->imm = red(op, tail->imm, imm);
            tail->cnt += 1;
        } else if (flen >= D) {
            if (seen == total) break;
            continue;       /* xbar offer: reject, no counter */
        } else {
            PropRec *slot = &RING(q, k, D, wrap(head[k] + flen, D));
            slot->v = v;
            slot->cnt = 1;
            slot->imm = imm;
            slot->bank = v % m;
            len[k] += 1;
            st->px_count++;
        }
        st->ep_head[k] = wrap(h + 1, ED);
        st->ep_cnt[k] -= 1;
        consumed++;
        if (seen == total) break;
    }
    st->epe_count -= consumed;
}

/* ================================================================== */
/* The march                                                          */
/* ================================================================== */

i64 soa_abi_version(void) { return SOA_ABI_VERSION; }

/* The layout table: one row per SoaState field (kind, name, offset),
 * then the named constants ("const", name, value), then the sizes of
 * the struct and of the record a "PropRec*" ring holds ("sizeof", name,
 * bytes); a NULL kind ends it. */
typedef struct { const char *kind, *name; i64 value; } SoaLayoutRow;

#define KIND_I64 "i64"
#define KIND_F64 "f64"
#define KIND_I64P "i64*"
#define KIND_F64P "f64*"
#define KIND_CI64P "i64*"
#define KIND_CF64P "f64*"
#define KIND_PRECP "PropRec*"

static const SoaLayoutRow SOA_LAYOUT[] = {
#define SOA_FIELD_ROW(kind, name) \
    {KIND_##kind, #name, (i64)offsetof(SoaState, name)},
    SOA_FIELDS(SOA_FIELD_ROW)
#undef SOA_FIELD_ROW
#define SOA_CONST_ROW(name, value) {"const", #name, name},
    SOA_CONSTS(SOA_CONST_ROW)
#undef SOA_CONST_ROW
    {"sizeof", "SoaState", (i64)sizeof(SoaState)},
    {"sizeof", "PropRec", (i64)sizeof(PropRec)},
    {0, 0, 0},
};

const SoaLayoutRow *soa_layout(void) { return SOA_LAYOUT; }

i64 soa_march(SoaState *st) {
    if (st->magic != SOA_MAGIC || st->magic2 != SOA_MAGIC) return -2;
    i64 n = st->n, m = st->m, w = st->w;
    /* zero the transient queue metadata (ring payloads need no clear;
     * all queues are provably empty at phase boundaries) */
    st->fe_total = st->iq_total = st->fn_count = st->fx_count = 0;
    st->rn_count = st->disp_count = st->epe_count = st->rp_busy_total = 0;
    st->ce_cnt = st->ce_head = st->pn_count = st->px_count = 0;
    st->epoch_ctr = 0;
    st->touch_len = 0;
    memset(st->iq_head, 0, n * sizeof(i64));
    memset(st->iq_len, 0, n * sizeof(i64));
    memset(st->fo_head, 0, n * sizeof(i64));
    memset(st->fo_cnt, 0, n * sizeof(i64));
    memset(st->ep_head, 0, m * sizeof(i64));
    memset(st->ep_cnt, 0, m * sizeof(i64));
    i64 mx = n > m ? n : m;
    if (w > mx) mx = w;
    memset(st->s_epoch, 0, mx * sizeof(i64));
    memset(st->s_epoch2, 0, mx * sizeof(i64));
    if (st->front_is_mdp) {
        memset(st->fn_head, 0, st->fn_stages * n * sizeof(i64));
        memset(st->fn_len, 0, st->fn_stages * n * sizeof(i64));
        memset(st->fn_counts, 0, st->fn_stages * sizeof(i64));
    } else {
        memset(st->fx_head, 0, n * sizeof(i64));
        memset(st->fx_len, 0, n * sizeof(i64));
    }
    if (st->edge_is_mdp) {
        memset(st->rp_head, 0, n * sizeof(i64));
        memset(st->rp_cnt, 0, n * sizeof(i64));
        memset(st->rp_cur_rem, 0, n * sizeof(i64));
        memset(st->busy_at, 0, w * sizeof(i64));
        memset(st->dq_head, 0, w * sizeof(i64));
        memset(st->dq_cnt, 0, w * sizeof(i64));
        if (st->has_rnet) {
            memset(st->rn_head, 0, st->rn_stages * w * sizeof(i64));
            memset(st->rn_len, 0, st->rn_stages * w * sizeof(i64));
            memset(st->rn_counts, 0, st->rn_stages * sizeof(i64));
        }
    }
    if (st->prop_is_mdp) {
        memset(st->pn_head, 0, st->pn_stages * m * sizeof(i64));
        memset(st->pn_len, 0, st->pn_stages * m * sizeof(i64));
        memset(st->pn_counts, 0, st->pn_stages * sizeof(i64));
    } else {
        memset(st->px_head, 0, m * sizeof(i64));
        memset(st->px_len, 0, m * sizeof(i64));
    }

    i64 expected = st->expected;
    i64 fe_pending = st->fe_pending;
    i64 limit = st->limit;
    i64 cycles = 0, starved = 0, busy = 0, reduces = 0;

    while (fe_pending > 0 || reduces < expected) {
        cycles++;
        if (cycles > limit) {
            st->cycles = cycles; st->starved = starved;
            st->busy = busy; st->reduces = reduces;
            st->fe_pending = fe_pending;
            return 1;       /* non-convergence: Python raises */
        }
        /* 1. propagation delivers; vPEs reduce into tProperty banks */
        i64 got, red_cnt;
        if (st->prop_is_mdp) {
            pn_deliver_reduce(st, &got, &red_cnt);
            if (st->pn_count) pn_advance_checked(st);
        } else {
            px_deliver_reduce(st, &got, &red_cnt);
        }
        starved += m - got;
        busy += got;
        reduces += red_cnt;
        /* 2. ePEs: Process_Edge, one record per channel per cycle */
        if (st->epe_count) {
            if (st->prop_is_mdp) pn_offer_epes(st);
            else px_offer_epes(st);
        }
        /* 3. Edge Array access (site 2) */
        if (st->edge_is_mdp) edge_mdp_tick(st);
        else edge_central_tick(st);
        /* 4. Offset Array access + ActiveVertex fetch (site 1) */
        if (st->front_is_mdp) fe_pending -= front_mdp_tick(st);
        else fe_pending -= front_xbar_tick(st);
    }
    st->cycles = cycles;
    st->starved = starved;
    st->busy = busy;
    st->reduces = reduces;
    st->fe_pending = 0;
    return 0;
}
