"""Scatter-phase simulation engines — the ``SimEngine`` seam.

Every figure, sweep and report bottoms out in the scatter-phase cycle
loop, so it exists in three interchangeable implementations:

* ``reference`` — the original cycle-by-cycle loop driving the
  component models in :mod:`repro.accel.frontend`,
  :mod:`repro.accel.edge_access` and :mod:`repro.accel.backend`.  It is
  the golden engine: deliberately literal, one method call per
  component per cycle, and the only engine the pipeline tracer can
  sample.
* ``batched`` — a specialized re-implementation of the same cycle
  semantics built for wall-clock speed: numpy-vectorized iteration
  setup, occupancy-counted queue banks, precomputed routing tables,
  flat record tuples with inlined vertex-combining, closed-form scalar
  kernels, per-cycle no-backpressure window proofs, bulk fast-forwards
  of contention-free drains, and whole-phase structural windows with
  per-subnetwork keys (partially-repeating and sliced phases replay
  too).  ``docs/performance.md`` documents every invariant.
* ``soa`` — the default engine: the batched engine with its cycle
  marcher swapped for a compiled structure-of-arrays kernel
  (``_soa_march.c``): FIFO banks as preallocated int64/float64 rings
  with head/occupancy vectors, routing as flat
  ``table[stage][pos][dest]`` tensors, one C call per scatter phase.
  Every phase marches in C — the engine keeps no window memo — and
  tProperty stays resident across phases, reseeded only at the
  delivered vertices.  Undeclared value-plane kernels, or no compiler,
  mean the engine runs batched semantics for the whole run (still
  byte-identical, many times slower).

The package mirrors the decomposition the paper argues for in
hardware — no central blob, one module per concern:

=================  ====================================================
``registry.py``    engine names, selection (``$REPRO_ENGINE``), the
                   cache-equivalence class, fast-forward telemetry
``reference.py``   the golden component-model cycle loop
``batched.py``     the batched engine's control flow (cycle loop, bulk
                   drains, record/replay glue) — and nothing else
``fastnets.py``    fast network models (``_FastMdpNet`` / ``_FastXbar``
                   / ``_FastRangeNet``) and routing tables
``frontends.py``   site-① frontend subnetworks + the shadow replay
                   driver for partially-repeating phases
``edgestage.py``   site-② edge-access stages
``propagation.py`` site-③ propagation adapters over the fast networks
``soa.py``         the soa engine: SoA state marshalling + the C seam
``soakernel.py``   compile/cache/load of ``_soa_march.c`` (kill-switch
                   ``$REPRO_SOA_KERNEL=off``)
``windows.py``     whole-phase structural windows: phase programs, the
                   per-subnetwork-keyed memo, recording shims
=================  ====================================================

**Equivalence contract**: all three engines must produce *identical*
:class:`~repro.accel.stats.SimStats` — every counter, not just totals —
and identical result properties for every configuration, graph and
algorithm.  The differential test suite
(``tests/test_engine_differential.py``) enforces this over the tier-1
config x graph x algorithm matrix plus randomized rmat/ER/star/grid
graphs, partial-repeat and sliced-replay adversarial cases.  Because
the engines are equivalent, they share result-cache entries:
:func:`engine_cache_token` returns the *equivalence class* all three
engines belong to, and that token — not the engine name — enters
:meth:`repro.sweep.jobs.SweepJob.cache_key`.  If the batched engine is
ever changed in a way that has not been re-verified, bump
``_EQUIVALENCE_CLASS`` (in ``registry.py``) so its results stop
aliasing reference ones.

This package replaced the former ``repro/accel/engine.py`` monolith
(and absorbed ``repro/accel/phase_memo.py``); every public name is
re-exported here, so ``from repro.accel.engine import ...`` keeps
working unchanged.
"""

from repro.accel.engine.batched import BatchedEngine
from repro.accel.engine.fastnets import (
    _FastMdpNet,
    _FastRangeNet,
    _FastXbar,
)
from repro.accel.engine.reference import ReferenceEngine
from repro.accel.engine.registry import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    ENGINES,
    FFWD_TELEMETRY,
    _EQUIVALENCE_CLASS,
    engine_cache_token,
    make_engine,
    reset_ffwd_telemetry,
    resolve_engine,
)
from repro.accel.engine.soa import SoaEngine
from repro.accel.engine.windows import PhaseMemo, PhaseProgram, PhaseRecorder

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "FFWD_TELEMETRY",
    "reset_ffwd_telemetry",
    "resolve_engine",
    "engine_cache_token",
    "make_engine",
    "ReferenceEngine",
    "BatchedEngine",
    "SoaEngine",
    "PhaseMemo",
    "PhaseProgram",
    "PhaseRecorder",
]
