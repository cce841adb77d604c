"""Scatter-phase simulation engines — the ``SimEngine`` seam.

Every figure, sweep and report bottoms out in the scatter-phase cycle
loop, so it exists in two interchangeable implementations.  Each has
two methods: ``scatter_phase(active, sprop_all, tprop, stats)``
simulates one phase and reduces it into ``tprop``, the float64 array
:func:`~repro.accel.accelerator.run_vcpm` seeded with Reduce's
identity, and ``harvest(stats)`` reads out the run's conflict
counters:

* ``reference`` — the original cycle-by-cycle loop driving the
  component models in :mod:`repro.accel.frontend`,
  :mod:`repro.accel.edge_access` and :mod:`repro.accel.backend`.  It is
  the golden engine: deliberately literal, one method call per
  component per cycle, and the only engine the pipeline tracer can
  sample.
* ``soa`` — the default engine: a compiled structure-of-arrays kernel
  (``_soa_march.c``) that marches each whole scatter phase in one C
  call.  FIFO banks are preallocated rings with head/occupancy vectors
  (one int64/float64 ring per record field; the propagation FIFOs hold
  whole records), MDP routing is the flattened
  ``table[stage][pos][dest]`` tensor built from the
  :mod:`repro.mdp.generator` plans, the range network routes each piece
  by its start bank through two tables built from its plan, and
  arbiter state and conflict counters stay resident in the kernel's
  struct for the whole run.

The engine a caller names is the engine that runs.  ``soa`` runs in C
or the run fails with :class:`~repro.errors.SimulationError` naming
why the kernel cannot load; ``reference`` runs without it.  The one
hand-off is an algorithm without declared closed-form Reduce and
Process_Edge kernels, which runs on ``reference``, the only engine that
can run it.

=================  ====================================================
``registry.py``    engine names, ``resolve_engine``, ``make_engine``
``reference.py``   the golden component-model cycle loop
``soa.py``         the soa engine: SoA state binding + the C seam
``soakernel.py``   compile/cache/load of ``_soa_march.c``
=================  ====================================================

**Equivalence contract**: both engines must produce *identical*
:class:`~repro.accel.stats.SimStats` — every counter, not just totals —
and identical result properties for every configuration, graph and
algorithm.  The differential test suite
(``tests/test_engine_differential.py``) and the seeded fuzzer
(``tests/test_engine_fuzz.py``) enforce this over the tier-1
config x graph x algorithm matrix, randomized graphs, multi-phase
PageRank and sliced runs.  Because the engines are equivalent, the
engine choice does not enter :meth:`repro.sweep.jobs.SweepJob.cache_key`:
a sweep run with either engine warms the cache for both.  Any edit to
either engine moves :func:`repro.sweep.cache.code_version`, so an
entry is never served to code it was not computed by.
"""

from types import MappingProxyType

from repro._lazy import lazy_exports

#: exported name -> defining module; resolved on first access
#: (:mod:`repro._lazy`), so the registry's names import no numpy
_EXPORTS = MappingProxyType({
    "ENGINES": "repro.accel.engine.registry",
    "DEFAULT_ENGINE": "repro.accel.engine.registry",
    "resolve_engine": "repro.accel.engine.registry",
    "make_engine": "repro.accel.engine.registry",
    "ReferenceEngine": "repro.accel.engine.reference",
    "SoaEngine": "repro.accel.engine.soa",
})

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
