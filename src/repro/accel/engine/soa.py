"""The ``soa`` engine (the default): every scatter phase in one C call.

:class:`SoaEngine` stands alone.  At construction it binds
structure-of-arrays state straight from the
:class:`~repro.accel.config.AcceleratorConfig` and the
:mod:`repro.mdp.generator` wiring plans: every FIFO bank is a slice of
a preallocated int64/float64 numpy array with head/occupancy vectors,
MDP routing is the flattened ``table[stage][pos][dest]`` tensor, and
the range network's module ports are a ``[stage][pos][digit]`` tensor.
The compiled kernel (``_soa_march.c``, whose header carries the
equivalence argument against the reference component models) marches
one whole phase per call.

State that outlives a phase stays in the kernel's own struct for the
whole run: the arbiter state (odd-even parity, rotating scan start,
round-robin pointers, stall memos), set once at bind, and the conflict
counters, which are run totals :meth:`SoaEngine.harvest` reads out.
tProperty is *resident* too: :meth:`SoaEngine.scatter_phase` holds an
identity-seeded buffer across phases and restores only the vertices
the kernel delivered to (``touch_dv``), so sparse frontiers stop
paying full-array seeding per phase.

The engine runs only where the kernel reproduces the run bit for bit
(:func:`kernel_supports`).  Otherwise — no C compiler, a failed build,
``REPRO_SOA_KERNEL=off``, or an algorithm without declared closed-form
kernels — :func:`~repro.accel.engine.registry.make_engine` hands the
run to the golden ``reference`` engine: byte-identical, many times
slower.
"""

from __future__ import annotations

import ctypes
import types

import numpy as np

from repro.accel.edge_access import _compatible_radix
from repro.accel.engine.registry import FFWD_TELEMETRY, reset_ffwd_telemetry
from repro.accel.engine.soakernel import load_kernel
from repro.errors import SimulationError
from repro.mdp.generator import generate_network

_i64 = ctypes.c_longlong
_f64 = ctypes.c_double
_P = ctypes.c_void_p

_RED_CODES = types.MappingProxyType({"add": 0, "min": 1, "max": 2})

#: counter slots, mirroring the C kernel's C_* defines (run totals)
_C_DEFERRALS = 0
_C_FRONT_STALL = 1
_C_FRONT_REJ = 2
_C_EDGE_BLOCKED = 3
_C_RNET_STALL = 4
_C_RNET_REJ = 5
_C_PROP_STALL = 6
_C_PROP_REJ = 7
_C_NUM = 8


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


_MAGIC = 0x534F4134


def _proc_code(alg) -> int | None:
    """The kernel's ``PROC_*`` code for ``alg``'s Process_Edge, or
    ``None`` when it declares no closed form the kernel reproduces."""
    if alg.process_is_identity:
        return 0
    if not alg.uses_weights:
        return None if alg.process_const is None else 5
    if alg.process_op == "add":
        return 2
    if alg.process_op == "min":
        return 3
    return None


def kernel_supports(sim) -> bool:
    """True when the kernel loads and reproduces every value-plane
    kernel of ``sim``'s run bit for bit."""
    alg = sim.algorithm
    return (load_kernel() is not None
            and alg.reduce_op in _RED_CODES
            and _proc_code(alg) is not None
            # weights enter the kernel as exact int64 -> double conversions
            and sim.graph.weights.dtype.kind in "iu")


def _mdp_table(plan) -> np.ndarray:
    """``table[stage][pos][dest]``: where a datum bound for ``dest``
    leaves input ``pos`` of each stage."""
    dest = np.arange(plan.channels)
    return np.stack([
        np.asarray(ports)[:, (dest // plan.radix ** stage.digit_index)
                          % plan.radix]
        for stage, ports in zip(plan.stages, plan.stage_ports())])


class SoaEngine:
    """Scatter engine whose every phase marches in the compiled kernel."""

    name = "soa"

    def __init__(self, sim) -> None:
        if not kernel_supports(sim):
            raise SimulationError(
                "the soa kernel cannot run this simulation; "
                "make_engine() hands it to the reference engine")
        # one run == one engine: zeroing here keeps the process-wide
        # telemetry per-run without relying on callers to reset it
        reset_ffwd_telemetry()
        self._lib = load_kernel()
        self.n = sim.config.front_channels
        self.out_degree = sim.out_degree
        self.num_vertices = sim.graph.num_vertices
        #: identity value the resident tprop buffer is currently seeded
        #: with everywhere (None = unknown, full reseed required)
        self._tprop_seed: float | None = None
        self._bind_state(sim)

    # ------------------------------------------------------------------
    def _bind_state(self, sim) -> None:
        config = sim.config
        alg = sim.algorithm
        graph = sim.graph
        n, m = config.front_channels, config.back_channels
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
        fifo = config.fifo_depth
        st.fifo_depth = fifo
        st.block_len = fifo - config.radix
        st.issue_depth = config.issue_queue_depth
        st.fe_depth = config.fe_out_depth
        st.epe_depth = config.epe_queue_depth
        st.combining = 1 if config.vertex_combining else 0
        st.reduce_op = _RED_CODES[alg.reduce_op]
        st.proc = _proc_code(alg)
        st.proc_const = (0.0 if alg.process_const is None
                         else float(alg.process_const))

        st.offsets = ptr(arr(graph.offsets))
        st.dst = ptr(arr(graph.dst))
        st.weights = ptr(arr(graph.weights))

        # -- frontend (site 1) ------------------------------------------
        st.front_is_mdp = 1 if config.offset_site == "mdp" else 0
        if st.front_is_mdp:
            plan = generate_network(n, config.radix)
            sf = plan.num_stages
            st.fn_stages = sf
            st.fn_table = ptr(arr(_mdp_table(plan)))
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
            st.fx_rr = ptr(arr(n))
        st.iq_u = ptr(arr(n * config.issue_queue_depth))
        st.iq_s = ptr(arr(n * config.issue_queue_depth, np.float64))
        st.iq_head = ptr(arr(n))
        st.iq_len = ptr(arr(n))
        st.fo_off = ptr(arr(n * config.fe_out_depth))
        st.fo_len = ptr(arr(n * config.fe_out_depth))
        st.fo_s = ptr(arr(n * config.fe_out_depth, np.float64))
        st.fo_head = ptr(arr(n))
        st.fo_cnt = ptr(arr(n))
        # phase-sized buffers start empty; scatter() grows them to fit
        self._part_u = arr(0)
        self._part_sp = arr(0, np.float64)
        self._part_pos = arr(n)
        self._part_end = arr(n)
        st.part_u = ptr(self._part_u)
        st.part_sp = ptr(self._part_sp)
        st.part_pos = ptr(self._part_pos)
        st.part_end = ptr(self._part_end)

        # -- edge stage (site 2) ----------------------------------------
        st.edge_is_mdp = 1 if config.edge_site == "mdp" else 0
        if st.edge_is_mdp:
            w = config.num_dispatchers
            st.w = w
            st.disp_depth = config.dispatcher_queue_depth
            st.replay_depth = config.replay_queue_depth
            st.rp_po = ptr(arr(n * config.replay_queue_depth))
            st.rp_pl = ptr(arr(n * config.replay_queue_depth))
            st.rp_ps = ptr(arr(n * config.replay_queue_depth, np.float64))
            st.rp_head = ptr(arr(n))
            st.rp_cnt = ptr(arr(n))
            st.rp_cur_off = ptr(arr(n))
            st.rp_cur_rem = ptr(arr(n))
            st.rp_cur_pay = ptr(arr(n, np.float64))
            # the n replay engines spread over the w network inputs
            pos_of = np.array([(ch * w) // n if n <= w else ch % w
                               for ch in range(n)])
            counts = np.bincount(pos_of, minlength=w)
            st.pos_of = ptr(arr(pos_of))
            st.chan_at = ptr(arr(np.argsort(pos_of, kind="stable")))
            st.chan_at_start = ptr(arr(np.cumsum(counts) - counts))
            st.chan_at_cnt = ptr(arr(counts))
            st.busy_at = ptr(arr(w))
            st.rp_rr = ptr(arr(w))
            net_radix = _compatible_radix(w, config.radix)
            st.has_rnet = 0 if net_radix is None else 1
            if st.has_rnet:
                plan = generate_network(w, net_radix)
                sr = plan.num_stages
                st.rn_stages = sr
                st.rn_radix = net_radix
                st.rn_block_len = fifo - net_radix
                # a split insert may push several pieces into ONE queue
                # in a single offer (a span covers up to w blocks),
                # briefly exceeding fifo_depth, so the rings get headroom
                st.rn_ring = fifo + w + 2
                st.rn_block = ptr(arr([
                    config.dispatcher_group * net_radix ** stage.digit_index
                    for stage in plan.stages]))
                st.rn_ptbl = ptr(arr(plan.stage_ports()))
                st.rn_qo = ptr(arr(sr * w * st.rn_ring))
                st.rn_ql = ptr(arr(sr * w * st.rn_ring))
                st.rn_qp = ptr(arr(sr * w * st.rn_ring, np.float64))
                st.rn_head = ptr(arr(sr * w))
                st.rn_len = ptr(arr(sr * w))
                st.rn_counts = ptr(arr(sr))
            else:
                st.rn_stages = 1
            st.dq_off = ptr(arr(w * config.dispatcher_queue_depth))
            st.dq_len = ptr(arr(w * config.dispatcher_queue_depth))
            st.dq_pay = ptr(arr(w * config.dispatcher_queue_depth,
                                np.float64))
            st.dq_head = ptr(arr(w))
            st.dq_cnt = ptr(arr(w))
            st.disp_stall = ptr(arr(np.full(w, -1)))
        else:
            st.w = 1
            capacity = config.fe_out_depth * n
            st.ce_issue_limit = config.issue_limit
            st.ce_capacity = capacity
            st.ce_off = ptr(arr(capacity))
            st.ce_len = ptr(arr(capacity))
            st.ce_pay = ptr(arr(capacity, np.float64))
            st.ce_stall_off = st.ce_stall_len = st.ce_stall_bank = -1
            st.rn_stages = 1
        st.ep_v = ptr(arr(m * config.epe_queue_depth))
        st.ep_imm = ptr(arr(m * config.epe_queue_depth, np.float64))
        st.ep_head = ptr(arr(m))
        st.ep_cnt = ptr(arr(m))

        # -- propagation (site 3) ---------------------------------------
        st.prop_is_mdp = 1 if config.propagation_site == "mdp" else 0
        if st.prop_is_mdp:
            plan = generate_network(m, config.radix)
            sp = plan.num_stages
            st.pn_stages = sp
            st.pn_table = ptr(arr(_mdp_table(plan)))
            st.pn_qv = ptr(arr(sp * m * fifo))
            st.pn_qc = ptr(arr(sp * m * fifo))
            st.pn_qi = ptr(arr(sp * m * fifo, np.float64))
            st.pn_head = ptr(arr(sp * m))
            st.pn_len = ptr(arr(sp * m))
            st.pn_counts = ptr(arr(sp))
        else:
            st.pn_stages = 1
            st.px_qv = ptr(arr(m * fifo))
            st.px_qc = ptr(arr(m * fifo))
            st.px_qi = ptr(arr(m * fifo, np.float64))
            st.px_head = ptr(arr(m))
            st.px_len = ptr(arr(m))
            st.px_rr = ptr(arr(m))

        mx = max(n, m, int(st.w))
        st.s_epoch = ptr(arr(mx))
        st.s_val = ptr(arr(mx))
        st.s_epoch2 = ptr(arr(mx))
        st.s_val2 = ptr(arr(mx))

        self._tprop_buf = arr(max(self.num_vertices, 1), np.float64)
        st.tprop = ptr(self._tprop_buf)
        self._touch_dv = arr(0)
        st.touch_dv = ptr(self._touch_dv)
        self._ctr = arr(_C_NUM)
        st.ctr = ptr(self._ctr)

        self._keep = keep
        self._st = st

    def _grow(self, size: int, expected: int) -> None:
        """Resize the phase buffers to fit ``size`` actives and
        ``expected`` deliveries (a direct ``scatter()`` may repeat
        actives, so a phase can exceed |V| actives and |E| edges)."""
        st = self._st
        if size > self._part_u.size:
            self._part_u = np.zeros(size, dtype=self._part_u.dtype)
            self._part_sp = np.zeros(size, dtype=self._part_sp.dtype)
            st.part_u = self._part_u.ctypes.data
            st.part_sp = self._part_sp.ctypes.data
        if expected > self._touch_dv.size:
            # one touch per delivery, and every delivery reduces >= 1 edge
            self._touch_dv = np.zeros(expected, dtype=self._touch_dv.dtype)
            st.touch_dv = self._touch_dv.ctypes.data

    # ------------------------------------------------------------------
    def scatter(self, active, sprop_all, tprop, stats) -> None:
        """Simulate one scatter phase in C, reducing into ``tprop`` (a
        list, or the engine's resident buffer)."""
        st = self._st
        n = self.n
        size = int(active.size)
        expected = int(self.out_degree[active].sum())
        if size > self._part_u.size or expected > self._touch_dv.size:
            self._grow(size, expected)
        pos = 0
        sel = sprop_all[active]
        for ch in range(n):
            seg = active[ch::n]
            k = int(seg.size)
            self._part_u[pos:pos + k] = seg
            self._part_sp[pos:pos + k] = sel[ch::n]
            self._part_pos[ch] = pos
            self._part_end[ch] = pos + k
            pos += k
        v = self.num_vertices
        resident = tprop is self._tprop_buf
        if v and not resident:
            # a direct scatter() caller owns tprop: the resident buffer
            # is clobbered here, so the identity seed no longer holds
            self._tprop_seed = None
            self._tprop_buf[:v] = tprop

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
            raise SimulationError(
                f"soa kernel rejected its state (code {rc}): the struct "
                f"layout and the loaded kernel disagree")

        if not resident:
            tprop[:] = self._tprop_buf[:v].tolist()
        stats.scatter_cycles += st.cycles
        stats.vpe_starvation_cycles += st.starved
        stats.vpe_busy_cycles += st.busy
        stats.edges_processed += st.reduces
        FFWD_TELEMETRY["cycles_simulated"] += st.cycles

    def scatter_phase(self, active, sprop_all, identity: float,
                      stats) -> np.ndarray:
        """One whole scatter phase against the resident tProperty buffer.

        The buffer stays identity-seeded across phases: after each phase
        only the vertices the kernel delivered to (``touch_dv``) are
        restored, so the seeding tax on sparse frontiers is O(touched)
        rather than O(V).
        """
        buf = self._tprop_buf
        v = self.num_vertices
        if self._tprop_seed != identity:
            buf[:v] = identity
            self._tprop_seed = identity
        else:
            FFWD_TELEMETRY["prologue_reuse"] += 1
        self.scatter(active, sprop_all, buf, stats)
        out = buf[:v].copy()
        touched = self._touch_dv[:self._st.touch_len]
        if 4 * len(touched) > v:
            buf[:v] = identity      # dense: one bulk reseed wins
        elif len(touched):
            buf[touched] = identity
        return out

    def harvest(self, stats) -> None:
        """Assign the run's conflict counters from the kernel's slots."""
        ctr = self._ctr
        stats.offset_deferrals = int(ctr[_C_DEFERRALS])
        stats.edge_conflicts = int(ctr[_C_EDGE_BLOCKED] + ctr[_C_RNET_STALL]
                                   + ctr[_C_RNET_REJ])
        stats.propagation_conflicts = int(ctr[_C_PROP_STALL]
                                          + ctr[_C_PROP_REJ])
