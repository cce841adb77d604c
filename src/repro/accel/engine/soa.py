"""The ``soa`` engine (the default): every scatter phase in one C call.

:class:`SoaEngine` stands alone.  At construction it binds
structure-of-arrays state straight from the
:class:`~repro.accel.config.AcceleratorConfig` and the
:mod:`repro.mdp.generator` wiring plans: every FIFO bank is a slice of
a preallocated numpy array with head/occupancy vectors (int64/float64
per record field, or whole records for the propagation FIFOs), MDP
routing is the flattened ``table[stage][pos][dest]`` tensor, and the
range network routes a piece by its start bank through two tables
(banks left in the block, target queue; :func:`_range_tables`).
The compiled kernel (``_soa_march.c``, whose header carries the
equivalence argument against the reference component models) marches
one whole phase per call.  The struct the kernel marches over is the
one :func:`~repro.accel.engine.soakernel.load_kernel` built from the
kernel's own layout table: every array takes its dtype from its
field's kind (a record ring is opaque records of the size the table
exports), and every code and counter is looked up by name.

State that outlives a phase stays in the kernel's own struct for the
whole run: the arbiter state (odd-even parity, rotating scan start,
round-robin pointers, stall memos), set once at bind, and the conflict
counters, which are run totals :meth:`SoaEngine.harvest` reads out.
tProperty is the caller's: :meth:`SoaEngine.scatter_phase` points the
struct at the float64 array the iteration loop seeded, and the kernel
reduces into it in place.

Building the engine loads the kernel, and a kernel that cannot load
raises :class:`~repro.errors.SimulationError` naming why.  The one run
the engine never gets is an algorithm without a closed-form Reduce and
Process_Edge (:func:`has_closed_forms`):
:func:`~repro.accel.engine.registry.make_engine` gives it to
``reference``, the only engine that can run it.
"""

from __future__ import annotations

import ctypes
import types

import numpy as np

from repro.accel.config import _compatible_radix
from repro.accel.engine.soakernel import load_kernel
from repro.errors import SimulationError
from repro.mdp.generator import generate_network

#: reduce op -> the kernel constant that selects its closed form
_RED_CODES = types.MappingProxyType(
    {"add": "RED_ADD", "min": "RED_MIN", "max": "RED_MAX"})
#: process op -> the kernel constant that selects its closed form
_PROC_CODES = types.MappingProxyType(
    {"identity": "PROC_IDENTITY", "add": "PROC_ADD_W", "min": "PROC_MIN_W",
     "const": "PROC_ADD_CONST"})

#: scalar pointer kind -> dtype of the array the field points into
_DTYPES = types.MappingProxyType({"i64*": np.int64, "f64*": np.float64})


def _dtype(kernel, kind: str) -> np.dtype:
    """dtype of the array a pointer field of ``kind`` points into: int64,
    float64, or opaque records of the size the kernel exports."""
    if kind in _DTYPES:
        return np.dtype(_DTYPES[kind])
    return np.dtype((np.void, kernel.records[kind[:-1]]))


def has_closed_forms(alg) -> bool:
    """True when ``alg`` declares the closed-form Reduce and
    Process_Edge the kernel marches; decided without loading it."""
    return alg.reduce_op in _RED_CODES and alg.process_op in _PROC_CODES


def _mdp_table(plan) -> np.ndarray:
    """``table[stage][pos][dest]``: where a datum bound for ``dest``
    leaves input ``pos`` of each stage."""
    dest = np.arange(plan.channels)
    return np.stack([
        np.asarray(ports)[:, (dest // plan.radix ** stage.digit_index)
                          % plan.radix]
        for stage, ports in zip(plan.stages, plan.stage_ports())])


def _range_tables(plan, banks: int,
                  group: int) -> tuple[np.ndarray, np.ndarray]:
    """The range network's routing, per start bank.

    ``room[stage][bank]``: banks left in ``bank``'s block at that stage
    (a block is ``group * radix**digit_index`` banks), so a piece
    starting there is cut after that many.  ``port[stage][pos][bank]``:
    the queue (``stage * channels + output``) a piece starting at
    ``bank`` leaves input ``pos`` for, the module port its block
    index's routing digit selects.
    """
    bank = np.arange(banks)
    ports = np.asarray(plan.stage_ports())      # [stage][pos][digit]
    room, port = [], []
    for s, stage in enumerate(plan.stages):
        block = group * plan.radix ** stage.digit_index
        room.append(block - bank % block)
        digit = (bank // block) % plan.radix
        port.append(s * plan.channels + ports[s][:, digit])
    return np.stack(room), np.stack(port)


class SoaEngine:
    """Scatter engine whose every phase marches in the compiled kernel."""

    name = "soa"

    def __init__(self, sim) -> None:
        self._kernel = load_kernel()
        self.n = sim.config.front_channels
        self.out_degree = sim.out_degree
        self.num_vertices = sim.graph.num_vertices
        self._bind_state(sim)

    # ------------------------------------------------------------------
    def _bind_state(self, sim) -> None:
        config = sim.config
        alg = sim.algorithm
        graph = sim.graph
        kernel = self._kernel
        consts = kernel.consts
        n, m = config.front_channels, config.back_channels
        st = kernel.State()
        keep = []           # array refs the struct points into

        def bind(**fields) -> list[np.ndarray]:
            """Point each named field at a fresh array in the dtype of
            the field's kind: zeros of the given length, or a copy of
            the given data.  Returns the arrays in argument order."""
            arrays = []
            for name, size_or_data in fields.items():
                dtype = _dtype(kernel, kernel.kinds[name])
                if np.ndim(size_or_data) == 0:
                    a = np.zeros(size_or_data, dtype=dtype)
                else:
                    a = np.ascontiguousarray(size_or_data, dtype=dtype)
                setattr(st, name, a.ctypes.data)
                arrays.append(a)
            keep.extend(arrays)
            return arrays

        st.magic = st.magic2 = consts["SOA_MAGIC"]
        st.n, st.m = n, m
        fifo = config.fifo_depth
        st.fifo_depth = fifo
        st.block_len = fifo - config.radix
        st.issue_depth = config.issue_queue_depth
        st.fe_depth = config.fe_out_depth
        st.epe_depth = config.epe_queue_depth
        st.combining = 1 if config.vertex_combining else 0
        st.reduce_op = consts[_RED_CODES[alg.reduce_op]]
        st.proc = consts[_PROC_CODES[alg.process_op]]
        st.proc_const = alg.process_const
        bind(offsets=graph.offsets, dst=graph.dst, weights=graph.weights)

        # -- frontend (site 1) ------------------------------------------
        st.front_is_mdp = 1 if config.offset_site == "mdp" else 0
        if st.front_is_mdp:
            plan = generate_network(n, config.radix)
            sf = plan.num_stages
            st.fn_stages = sf
            bind(fn_table=_mdp_table(plan), fn_qu=sf * n * fifo,
                 fn_qs=sf * n * fifo, fn_head=sf * n, fn_len=sf * n,
                 fn_counts=sf)
        else:
            st.fn_stages = 1
            bind(fx_qu=n * fifo, fx_qs=n * fifo, fx_head=n, fx_len=n,
                 fx_rr=n)
        issue, fe_out = n * config.issue_queue_depth, n * config.fe_out_depth
        bind(iq_u=issue, iq_s=issue, iq_head=n, iq_len=n,
             fo_off=fe_out, fo_len=fe_out, fo_s=fe_out, fo_head=n, fo_cnt=n)
        # phase-sized buffers start empty; scatter_phase() grows them
        self._part_u, self._part_sp, self._part_pos, self._part_end = bind(
            part_u=0, part_sp=0, part_pos=n, part_end=n)

        # -- edge stage (site 2) ----------------------------------------
        st.edge_is_mdp = 1 if config.edge_site == "mdp" else 0
        if st.edge_is_mdp:
            w = config.num_dispatchers
            st.w = w
            st.disp_depth = config.dispatcher_queue_depth
            st.replay_depth = config.replay_queue_depth
            replay = n * config.replay_queue_depth
            bind(rp_po=replay, rp_pl=replay, rp_ps=replay, rp_head=n,
                 rp_cnt=n, rp_cur_off=n, rp_cur_rem=n, rp_cur_pay=n)
            # the n replay engines spread over the w network inputs
            pos_of = np.array([(ch * w) // n if n <= w else ch % w
                               for ch in range(n)])
            counts = np.bincount(pos_of, minlength=w)
            bind(pos_of=pos_of, chan_at=np.argsort(pos_of, kind="stable"),
                 chan_at_start=np.cumsum(counts) - counts,
                 chan_at_cnt=counts, busy_at=w, rp_rr=w)
            net_radix = _compatible_radix(w, config.radix)
            st.has_rnet = 0 if net_radix is None else 1
            if st.has_rnet:
                plan = generate_network(w, net_radix)
                sr = plan.num_stages
                st.rn_stages = sr
                st.rn_block_len = fifo - net_radix
                # a split insert may push several pieces into ONE queue
                # in a single offer (a span covers up to w blocks),
                # briefly exceeding fifo_depth, so the rings get headroom
                st.rn_ring = fifo + w + 2
                ring = sr * w * st.rn_ring
                room, port = _range_tables(plan, m, config.dispatcher_group)
                bind(rn_room=room, rn_port=port, rn_qo=ring, rn_ql=ring,
                     rn_qp=ring, rn_head=sr * w, rn_len=sr * w,
                     rn_counts=sr)
            else:
                st.rn_stages = 1
            disp = w * config.dispatcher_queue_depth
            bind(dq_off=disp, dq_len=disp, dq_pay=disp, dq_head=w, dq_cnt=w,
                 disp_stall=np.full(w, -1))
        else:
            st.w = 1
            capacity = config.fe_out_depth * n
            st.ce_issue_limit = config.front_channels
            st.ce_capacity = capacity
            bind(ce_off=capacity, ce_len=capacity, ce_pay=capacity)
            st.ce_stall_off = st.ce_stall_len = st.ce_stall_bank = -1
            st.rn_stages = 1
        epe = m * config.epe_queue_depth
        bind(ep_v=epe, ep_imm=epe, ep_head=m, ep_cnt=m)

        # -- propagation (site 3) ---------------------------------------
        st.prop_is_mdp = 1 if config.propagation_site == "mdp" else 0
        if st.prop_is_mdp:
            plan = generate_network(m, config.radix)
            sp = plan.num_stages
            st.pn_stages = sp
            bind(pn_table=_mdp_table(plan), pn_q=sp * m * fifo,
                 pn_head=sp * m, pn_len=sp * m, pn_counts=sp)
        else:
            st.pn_stages = 1
            bind(px_q=m * fifo, px_head=m, px_len=m, px_rr=m)

        mx = max(n, m, int(st.w))
        bind(s_epoch=mx, s_val=mx, s_epoch2=mx, s_val2=mx, s_src=mx,
             s_tgt=mx)

        self._keep = keep
        self._st = st

    # ------------------------------------------------------------------
    def scatter_phase(self, active, sprop_all, tprop: np.ndarray,
                      stats) -> None:
        """Simulate one scatter phase in C, reducing into ``tprop``."""
        # the kernel writes through this pointer, so only an array of
        # exactly the shape it indexes may reach it
        if not (isinstance(tprop, np.ndarray) and tprop.dtype == np.float64
                and tprop.flags.c_contiguous
                and tprop.shape == (self.num_vertices,)):
            raise SimulationError(
                f"tprop must be a C-contiguous float64 array of "
                f"{self.num_vertices} entries")
        st = self._st
        n = self.n
        size = int(active.size)
        if size > self._part_u.size:
            # a phase may repeat actives, so it can exceed |V| entries
            self._part_u = np.zeros(size, dtype=self._part_u.dtype)
            self._part_sp = np.zeros(size, dtype=self._part_sp.dtype)
            st.part_u = self._part_u.ctypes.data
            st.part_sp = self._part_sp.ctypes.data
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

        expected = int(self.out_degree[active].sum())
        st.tprop = tprop.ctypes.data
        st.expected = expected
        st.fe_pending = size
        limit = 4 * expected + 8 * size + 10_000
        st.limit = limit
        rc = int(self._kernel.soa_march(ctypes.byref(st)))
        if rc == 1:
            raise SimulationError(
                f"scatter did not converge within {limit} cycles "
                f"({st.reduces}/{expected} reduces, {st.fe_pending} vertices "
                f"pending) — queue sizing bug?")
        if rc != 0:
            raise SimulationError(
                f"soa kernel rejected its state (code {rc}): the struct "
                f"layout and the loaded kernel disagree")

        stats.scatter_cycles += st.cycles
        stats.vpe_starvation_cycles += st.starved
        stats.vpe_busy_cycles += st.busy
        stats.edges_processed += st.reduces

    def harvest(self, stats) -> None:
        """Assign the run's conflict counters from the kernel's totals."""
        st = self._st
        stats.offset_deferrals = st.deferrals
        stats.edge_conflicts = st.edge_blocked + st.rnet_stall + st.rnet_rej
        stats.propagation_conflicts = st.prop_stall + st.prop_rej
