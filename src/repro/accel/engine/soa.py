"""The ``soa`` engine (the default): the batched engine with a compiled
SoA marcher.

:class:`SoaEngine` subclasses :class:`~repro.accel.engine.batched.
BatchedEngine` and overrides exactly one seam — :meth:`_march`, the
cycle-by-cycle simulation of a scatter phase.  Everything else (harvest,
telemetry reset, the Python march it falls back to) is inherited
unchanged, which is what keeps the equivalence argument small: the two
engines can only differ inside one well-contained function held to the
byte-identical ``SimStats`` differential contract.

The marcher lives in ``_soa_march.c`` (see its header comment for the
cycle-model equivalence argument) and operates on structure-of-arrays
state: every FIFO bank is a slice of a preallocated int64/float64
numpy array with head/occupancy vectors, the MDP/range-network routing
is the precomputed ``table[stage][pos][dest]`` tensor flattened to an
int64 tensor, and persistent arbiter state (odd-even parity, rotating
scan starts, round-robin pointers, stall memos) is seeded from the
Python subnetwork objects before each phase and written back after —
so a phase that falls back to the Python march mid-run picks up exactly
where the C marcher left off.

Once the kernel is bound, **every** scatter phase marches in C: the
engine builds no window memo (``phase_memo`` is ``None``), because at C
speed recording and replaying whole phases costs more than it saves.
The engine also keeps tProperty *resident*: :meth:`scatter_phase`
holds an identity-seeded buffer across phases and restores only the
vertices the kernel actually delivered to (``touch_dv``), so sparse
frontiers stop paying full-array seeding per phase.

Fallback rules (always byte-identical, never an error):

* no C compiler / load failure / ``REPRO_SOA_KERNEL=off`` — the engine
  runs batched semantics, window memo included, for the whole run;
* algorithms whose ``reduce``/``process_edge`` kernels have no declared
  closed form (custom reductions, weight-dependent kernels beyond
  add/min) — the C kernel cannot call back into Python per edge, so
  the engine runs batched semantics for the whole run;
* phases whose expected deliveries exceed the preallocated touch log
  (duplicate actives — never a real frontier) — the inherited Python
  march, for that phase only.
"""

from __future__ import annotations

import ctypes
import types

import numpy as np

from repro.accel.engine.batched import BatchedEngine
from repro.accel.engine.registry import FFWD_TELEMETRY
from repro.accel.engine.soakernel import load_kernel
from repro.errors import SimulationError

_i64 = ctypes.c_longlong
_f64 = ctypes.c_double
_P = ctypes.c_void_p

_RED_CODES = types.MappingProxyType({"add": 0, "min": 1, "max": 2})

#: counter slots, mirroring the C kernel's C_* defines
_C_DEFERRALS = 0
_C_FRONT_STALL = 1
_C_FRONT_REJ = 2
_C_EDGE_BLOCKED = 3
_C_RNET_STALL = 4
_C_RNET_REJ = 5
_C_PROP_STALL = 6
_C_PROP_REJ = 7
_C_NUM = 8

#: Seam metadata: which Python counter-site attributes each C counter
#: slot is committed to in :meth:`SoaEngine._march` (one slot may feed
#: different sites depending on the configured subnetwork kind).  The
#: ``c-seam-counters`` lint rule cross-checks this map three ways:
#: slot constants above, the ``+= int(ctr[...])`` commit statements
#: below, and the ``counter_sites()`` attribute names the batched
#: subnetworks expose.
_SLOT_SITES = types.MappingProxyType({
    "_C_DEFERRALS": ("deferrals",),
    "_C_FRONT_STALL": ("stall_events", "conflicts"),
    "_C_FRONT_REJ": ("rejected_offers",),
    "_C_EDGE_BLOCKED": ("disp_blocked", "window_conflicts"),
    "_C_RNET_STALL": ("stall_events",),
    "_C_RNET_REJ": ("rejected_offers",),
    "_C_PROP_STALL": ("stall_events", "conflicts"),
    "_C_PROP_REJ": ("rejected_offers",),
})


class _SoaState(ctypes.Structure):
    """ctypes mirror of ``SoaState`` in ``_soa_march.c``.

    Field order must match the C struct declaration exactly; every
    field is 8 bytes so the layout is padding-free on both sides, and
    the magic fields at both ends catch any skew at runtime.
    """

    _fields_ = (
        ("magic", _i64),
        ("n", _i64), ("m", _i64), ("w", _i64),
        ("fifo_depth", _i64), ("block_len", _i64),
        ("issue_depth", _i64), ("fe_depth", _i64), ("disp_depth", _i64),
        ("epe_depth", _i64), ("replay_depth", _i64),
        ("combining", _i64),
        ("reduce_op", _i64),
        ("proc", _i64),
        ("proc_const", _f64),
        ("front_is_mdp", _i64), ("edge_is_mdp", _i64), ("prop_is_mdp", _i64),
        ("ce_issue_limit", _i64), ("ce_capacity", _i64),
        ("has_rnet", _i64),
        ("rn_radix", _i64), ("rn_block_len", _i64), ("rn_ring", _i64),
        ("offsets", _P), ("dst", _P), ("weights", _P),
        ("fn_stages", _i64),
        ("fn_table", _P),
        ("fn_qu", _P), ("fn_qs", _P), ("fn_head", _P), ("fn_len", _P),
        ("fn_counts", _P),
        ("fx_qu", _P), ("fx_qs", _P), ("fx_head", _P), ("fx_len", _P),
        ("fx_rr", _P),
        ("iq_u", _P), ("iq_s", _P), ("iq_head", _P), ("iq_len", _P),
        ("fo_off", _P), ("fo_len", _P), ("fo_s", _P), ("fo_head", _P),
        ("fo_cnt", _P),
        ("part_u", _P), ("part_sp", _P), ("part_pos", _P), ("part_end", _P),
        ("rp_po", _P), ("rp_pl", _P), ("rp_ps", _P), ("rp_head", _P),
        ("rp_cnt", _P),
        ("rp_cur_off", _P), ("rp_cur_rem", _P), ("rp_cur_pay", _P),
        ("pos_of", _P),
        ("chan_at", _P), ("chan_at_start", _P), ("chan_at_cnt", _P),
        ("busy_at", _P), ("rp_rr", _P),
        ("rn_stages", _i64),
        ("rn_block", _P), ("rn_ptbl", _P),
        ("rn_qo", _P), ("rn_ql", _P), ("rn_qp", _P), ("rn_head", _P),
        ("rn_len", _P),
        ("rn_counts", _P),
        ("dq_off", _P), ("dq_len", _P), ("dq_pay", _P), ("dq_head", _P),
        ("dq_cnt", _P),
        ("disp_stall", _P),
        ("ce_off", _P), ("ce_len", _P), ("ce_pay", _P),
        ("ce_stall_off", _i64), ("ce_stall_len", _i64), ("ce_stall_bank", _i64),
        ("ep_v", _P), ("ep_imm", _P), ("ep_head", _P), ("ep_cnt", _P),
        ("pn_stages", _i64),
        ("pn_table", _P),
        ("pn_qv", _P), ("pn_qc", _P), ("pn_qi", _P), ("pn_head", _P),
        ("pn_len", _P),
        ("pn_counts", _P),
        ("px_qv", _P), ("px_qc", _P), ("px_qi", _P), ("px_head", _P),
        ("px_len", _P),
        ("px_rr", _P),
        ("s_epoch", _P), ("s_val", _P), ("s_epoch2", _P), ("s_val2", _P),
        ("parity", _i64), ("fstart", _i64),
        ("tprop", _P),
        ("expected", _i64), ("fe_pending", _i64), ("limit", _i64),
        ("touch_dv", _P), ("touch_len", _i64),
        ("ctr", _P),
        ("cycles", _i64), ("starved", _i64), ("busy", _i64), ("reduces", _i64),
        ("magic2", _i64),
    )


_MAGIC = 0x534F4133


def _flat_i64(nested) -> np.ndarray:
    """Flatten a nested table (lists/tuples of ints) to a C-order array."""
    return np.ascontiguousarray(np.asarray(nested, dtype=np.int64).ravel())


class SoaEngine(BatchedEngine):
    """Batched engine whose cycle march runs in the compiled SoA kernel."""

    name = "soa"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self._lib = load_kernel()
        self._st = None
        #: identity value the resident tprop buffer is currently seeded
        #: with everywhere (None = unknown, full reseed required)
        self._tprop_seed: float | None = None
        #: vertices the last C-marched phase delivered to (a view of
        #: touch_dv), or None when a Python march wrote unknown entries
        self._phase_touched = None
        if self._lib is not None and self._kernel_supported():
            self._bind_state(sim)
            # every phase marches in C: at kernel speed, recording and
            # replaying whole phases costs more than it saves
            self.phase_memo = None

    # ------------------------------------------------------------------
    def _kernel_supported(self) -> bool:
        """True when every value-plane kernel has a declared closed form
        the C side reproduces bit-for-bit."""
        alg = self.algorithm
        if _RED_CODES.get(alg.reduce_op) is None:
            return False
        if self._proc == 1 and getattr(alg, "process_const", None) is None:
            return False
        if self._proc == 4:
            return False
        # weights enter the C kernel as exact int64 -> double conversions
        return self._weights_np.dtype.kind in "iu"

    # ------------------------------------------------------------------
    def _bind_state(self, sim) -> None:
        config = self.config
        n, m = self.n, self.m
        fe = self.frontend
        edge = self.edge
        prop = self.prop
        st = _SoaState()
        keep = []           # array refs the struct points into

        def arr(shape_or_data, dtype=np.int64):
            if isinstance(shape_or_data, (int, tuple)):
                a = np.zeros(shape_or_data, dtype=dtype)
            else:
                a = np.ascontiguousarray(shape_or_data, dtype=dtype)
            keep.append(a)
            return a

        def ptr(a) -> int:
            return a.ctypes.data

        st.magic = _MAGIC
        st.magic2 = _MAGIC
        st.n, st.m = n, m
        st.fifo_depth = config.fifo_depth
        st.block_len = config.fifo_depth - config.radix
        st.issue_depth = config.issue_queue_depth
        st.fe_depth = config.fe_out_depth
        st.epe_depth = config.epe_queue_depth
        st.reduce_op = _RED_CODES[self.algorithm.reduce_op]
        if self._proc == 1:
            st.proc = 5
            st.proc_const = float(self.algorithm.process_const)
        else:
            st.proc = self._proc
            st.proc_const = 0.0

        st.offsets = ptr(arr(self._offsets_np))
        st.dst = ptr(arr(self._dst_np))
        st.weights = ptr(arr(self._weights_np))

        fifo = config.fifo_depth
        # -- frontend ---------------------------------------------------
        st.front_is_mdp = 1 if fe.kind == "mdp" else 0
        if st.front_is_mdp:
            net = fe.net
            sf = net.num_stages
            st.fn_stages = sf
            st.fn_table = ptr(arr(_flat_i64(net.table)))
            st.fn_qu = ptr(arr(sf * n * fifo))
            st.fn_qs = ptr(arr(sf * n * fifo, np.float64))
            st.fn_head = ptr(arr(sf * n))
            st.fn_len = ptr(arr(sf * n))
            st.fn_counts = ptr(arr(sf))
        else:
            st.fn_stages = 1
            st.fx_qu = ptr(arr(n * fifo))
            st.fx_qs = ptr(arr(n * fifo, np.float64))
            st.fx_head = ptr(arr(n))
            st.fx_len = ptr(arr(n))
            self._fx_rr = arr(n)
            st.fx_rr = ptr(self._fx_rr)
        st.iq_u = ptr(arr(n * config.issue_queue_depth))
        st.iq_s = ptr(arr(n * config.issue_queue_depth, np.float64))
        st.iq_head = ptr(arr(n))
        st.iq_len = ptr(arr(n))
        st.fo_off = ptr(arr(n * config.fe_out_depth))
        st.fo_len = ptr(arr(n * config.fe_out_depth))
        st.fo_s = ptr(arr(n * config.fe_out_depth, np.float64))
        st.fo_head = ptr(arr(n))
        st.fo_cnt = ptr(arr(n))
        v = self.num_vertices
        self._part_u = arr(max(v, 1))
        self._part_sp = arr(max(v, 1), np.float64)
        self._part_pos = arr(n)
        self._part_end = arr(n)
        st.part_u = ptr(self._part_u)
        st.part_sp = ptr(self._part_sp)
        st.part_pos = ptr(self._part_pos)
        st.part_end = ptr(self._part_end)

        # -- edge stage -------------------------------------------------
        st.edge_is_mdp = 1 if edge.kind == "mdp" else 0
        if st.edge_is_mdp:
            w = edge.w
            st.w = w
            st.disp_depth = edge.disp_depth
            st.replay_depth = edge.replay_depth
            st.rp_po = ptr(arr(n * edge.replay_depth))
            st.rp_pl = ptr(arr(n * edge.replay_depth))
            st.rp_ps = ptr(arr(n * edge.replay_depth, np.float64))
            st.rp_head = ptr(arr(n))
            st.rp_cnt = ptr(arr(n))
            st.rp_cur_off = ptr(arr(n))
            st.rp_cur_rem = ptr(arr(n))
            st.rp_cur_pay = ptr(arr(n, np.float64))
            st.pos_of = ptr(arr(np.asarray(edge._position_of)))
            chan_flat, starts, cnts = [], [], []
            for channels in edge._channels_at:
                starts.append(len(chan_flat))
                cnts.append(len(channels))
                chan_flat.extend(channels)
            st.chan_at = ptr(arr(np.asarray(chan_flat + [0])))
            st.chan_at_start = ptr(arr(np.asarray(starts)))
            st.chan_at_cnt = ptr(arr(np.asarray(cnts)))
            st.busy_at = ptr(arr(w))
            self._rp_rr = arr(w)
            st.rp_rr = ptr(self._rp_rr)
            rnet = edge.rnet
            st.has_rnet = 0 if rnet is None else 1
            if rnet is not None:
                sr = rnet.num_stages
                st.rn_stages = sr
                st.rn_radix = rnet.radix
                st.rn_block_len = rnet.block_len
                # range-net split inserts may push several pieces into
                # ONE queue in a single offer (a span covers up to w
                # blocks), briefly exceeding fifo_depth — the Python
                # deques are unbounded, so the rings get headroom
                st.rn_ring = fifo + w + 2
                st.rn_block = ptr(arr(np.asarray(rnet.stage_block)))
                st.rn_ptbl = ptr(arr(_flat_i64(rnet.stage_ports)))
                st.rn_qo = ptr(arr(sr * w * st.rn_ring))
                st.rn_ql = ptr(arr(sr * w * st.rn_ring))
                st.rn_qp = ptr(arr(sr * w * st.rn_ring, np.float64))
                st.rn_head = ptr(arr(sr * w))
                st.rn_len = ptr(arr(sr * w))
                st.rn_counts = ptr(arr(sr))
            else:
                st.rn_stages = 1
            st.dq_off = ptr(arr(w * edge.disp_depth))
            st.dq_len = ptr(arr(w * edge.disp_depth))
            st.dq_pay = ptr(arr(w * edge.disp_depth, np.float64))
            st.dq_head = ptr(arr(w))
            st.dq_cnt = ptr(arr(w))
            self._disp_stall = arr(w)
            st.disp_stall = ptr(self._disp_stall)
        else:
            st.w = 1
            st.ce_issue_limit = edge.ce_issue_limit
            st.ce_capacity = edge.ce_capacity
            st.ce_off = ptr(arr(edge.ce_capacity))
            st.ce_len = ptr(arr(edge.ce_capacity))
            st.ce_pay = ptr(arr(edge.ce_capacity, np.float64))
            st.rn_stages = 1
        st.ep_v = ptr(arr(m * config.epe_queue_depth))
        st.ep_imm = ptr(arr(m * config.epe_queue_depth, np.float64))
        st.ep_head = ptr(arr(m))
        st.ep_cnt = ptr(arr(m))

        # -- propagation ------------------------------------------------
        st.prop_is_mdp = 1 if prop.kind == "mdp" else 0
        if st.prop_is_mdp:
            pnet = prop.net
            st.combining = 1 if pnet.combining else 0
            sp = pnet.num_stages
            st.pn_stages = sp
            st.pn_table = ptr(arr(_flat_i64(pnet.table)))
            st.pn_qv = ptr(arr(sp * m * fifo))
            st.pn_qc = ptr(arr(sp * m * fifo))
            st.pn_qi = ptr(arr(sp * m * fifo, np.float64))
            st.pn_head = ptr(arr(sp * m))
            st.pn_len = ptr(arr(sp * m))
            st.pn_counts = ptr(arr(sp))
        else:
            st.combining = 1 if prop.xbar.combining else 0
            st.pn_stages = 1
            st.px_qv = ptr(arr(m * fifo))
            st.px_qc = ptr(arr(m * fifo))
            st.px_qi = ptr(arr(m * fifo, np.float64))
            st.px_head = ptr(arr(m))
            st.px_len = ptr(arr(m))
            self._px_rr = arr(m)
            st.px_rr = ptr(self._px_rr)

        mx = max(n, m, int(st.w))
        st.s_epoch = ptr(arr(mx))
        st.s_val = ptr(arr(mx))
        st.s_epoch2 = ptr(arr(mx))
        st.s_val2 = ptr(arr(mx))

        self._tprop_buf = arr(max(v, 1), np.float64)
        st.tprop = ptr(self._tprop_buf)
        self._ctr = arr(_C_NUM)
        st.ctr = ptr(self._ctr)

        # -- resident-delta buffer: one touch_dv entry per delivery, and
        # a delivery carries at least one edge of an active vertex, so a
        # real frontier touches at most E vertices
        self._cap_e = max(int(self._dst_np.size), 1)
        self._touch_dv = arr(self._cap_e)
        st.touch_dv = ptr(self._touch_dv)

        self._keep = keep
        self._st = st

    # ------------------------------------------------------------------
    def _march(self, active, sprop_all, tprop, stats,
               record_key: tuple | None) -> None:
        st = self._st
        size = int(active.size)
        expected = int(self.out_degree[active].sum())
        if st is not None and expected > self._cap_e:
            # touch_dv is sized for real frontiers (touches <= E);
            # duplicate actives march in Python instead
            st = None
        if st is None:
            super()._march(active, sprop_all, tprop, stats, record_key)
            self._phase_touched = None      # unknown writes: full reseed
            return
        fe = self.frontend
        edge = self.edge
        prop = self.prop
        n = self.n

        if size:
            sel = sprop_all[active]
            pos = 0
            for ch in range(n):
                seg = active[ch::n]
                k = int(seg.size)
                self._part_u[pos:pos + k] = seg
                self._part_sp[pos:pos + k] = sel[ch::n]
                self._part_pos[ch] = pos
                self._part_end[ch] = pos + k
                pos += k
        else:
            self._part_pos[:] = 0
            self._part_end[:] = 0
        v = self.num_vertices
        resident = tprop is self._tprop_buf
        if v and not resident:
            # a direct scatter() caller owns tprop: the resident buffer
            # is clobbered here, so the identity seed no longer holds
            self._tprop_seed = None
            self._tprop_buf[:v] = tprop

        # seed persistent arbiter state from the Python subnetworks
        if st.front_is_mdp:
            st.parity = fe.parity
        else:
            st.fstart = fe.fstart
            self._fx_rr[:] = fe.xbar.rr
        if st.edge_is_mdp:
            self._rp_rr[:] = edge.rp_rr
            self._disp_stall[:] = edge.disp_stall
        else:
            ce = edge.ce_stall
            st.ce_stall_off, st.ce_stall_len, st.ce_stall_bank = (
                ce if ce is not None else (-1, -1, -1))
        if not st.prop_is_mdp:
            self._px_rr[:] = prop.xbar.rr

        st.expected = expected
        st.fe_pending = size
        limit = 4 * expected + 8 * size + 10_000
        st.limit = limit

        rc = int(self._lib.soa_march(ctypes.byref(st)))
        if rc == 1:
            raise SimulationError(
                f"scatter did not converge within {limit} cycles "
                f"({st.reduces}/{expected} reduces, {st.fe_pending} vertices "
                f"pending) — queue sizing bug?")
        if rc != 0:
            # defensive: ABI skew detected at runtime — state untouched,
            # disable the kernel and redo the phase in Python
            self._st = None
            super()._march(active, sprop_all, tprop, stats, record_key)
            self._phase_touched = None
            return

        # commit: values, stats, counters, arbiter state
        if not resident:
            tprop[:] = self._tprop_buf[:v].tolist()
        # valid until the next soa_march call; scatter_phase consumes it
        # immediately after scatter() returns
        self._phase_touched = self._touch_dv[:int(st.touch_len)]
        stats.scatter_cycles += st.cycles
        stats.vpe_starvation_cycles += st.starved
        stats.vpe_busy_cycles += st.busy
        stats.edges_processed += st.reduces
        FFWD_TELEMETRY["cycles_simulated"] += st.cycles
        ctr = self._ctr
        if st.front_is_mdp:
            fe.parity = int(st.parity)
            fe.deferrals += int(ctr[_C_DEFERRALS])
            fe.net.stall_events += int(ctr[_C_FRONT_STALL])
            fe.net.rejected_offers += int(ctr[_C_FRONT_REJ])
        else:
            fe.fstart = int(st.fstart)
            fe.xbar.rr[:] = self._fx_rr.tolist()
            fe.deferrals += int(ctr[_C_DEFERRALS])
            fe.xbar.conflicts += int(ctr[_C_FRONT_STALL])
        if st.edge_is_mdp:
            edge.rp_rr[:] = self._rp_rr.tolist()
            edge.disp_stall[:] = self._disp_stall.tolist()
            edge.disp_blocked += int(ctr[_C_EDGE_BLOCKED])
            if edge.rnet is not None:
                edge.rnet.stall_events += int(ctr[_C_RNET_STALL])
                edge.rnet.rejected_offers += int(ctr[_C_RNET_REJ])
        else:
            edge.window_conflicts += int(ctr[_C_EDGE_BLOCKED])
            edge.ce_stall = (None if st.ce_stall_off < 0 else
                             (int(st.ce_stall_off), int(st.ce_stall_len),
                              int(st.ce_stall_bank)))
        if st.prop_is_mdp:
            prop.net.stall_events += int(ctr[_C_PROP_STALL])
            prop.net.rejected_offers += int(ctr[_C_PROP_REJ])
        else:
            prop.xbar.rr[:] = self._px_rr.tolist()
            prop.xbar.conflicts += int(ctr[_C_PROP_STALL])

    # ------------------------------------------------------------------
    # Resident tProperty (the per-phase marshalling prologue, hoisted)
    # ------------------------------------------------------------------
    def scatter_phase(self, active, sprop_all, identity: float,
                      stats) -> np.ndarray:
        """One whole scatter phase against the resident tProperty buffer.

        The buffer stays identity-seeded across phases: after each phase
        only the vertices the kernel delivered to (``touch_dv``) are
        restored — the tiny-phase seeding tax on sparse frontiers drops
        from O(V) to O(touched).  A phase that marched in Python leaves
        unknown writes, so the whole buffer is reseeded next phase.
        """
        st = self._st
        if st is None:
            return super().scatter_phase(active, sprop_all, identity, stats)
        buf = self._tprop_buf
        v = self.num_vertices
        if self._tprop_seed != identity:
            buf[:v] = identity
            self._tprop_seed = identity
        else:
            FFWD_TELEMETRY["prologue_reuse"] += 1
        self._phase_touched = None
        self.scatter(active, sprop_all, buf, stats)
        out = buf[:v].copy()
        touched = self._phase_touched
        if touched is None or 4 * len(touched) > v:
            buf[:v] = identity      # unknown or dense: bulk reseed wins
        elif len(touched):
            buf[touched] = identity
        return out
