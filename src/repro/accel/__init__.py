"""Accelerator simulators: HiGraph, HiGraph-mini, GraphDynS, ablations.

Exports resolve on first access (:mod:`repro._lazy`): the presets,
``SimStats`` and the engine names import no numpy; the simulators do.
"""

from types import MappingProxyType

from repro._lazy import lazy_exports

#: exported name -> defining module
_EXPORTS = MappingProxyType({
    "AcceleratorSim": "repro.accel.accelerator",
    "SimResult": "repro.accel.accelerator",
    "simulate": "repro.accel.accelerator",
    "ENGINES": "repro.accel.engine.registry",
    "DEFAULT_ENGINE": "repro.accel.engine.registry",
    "resolve_engine": "repro.accel.engine.registry",
    "AcceleratorConfig": "repro.accel.config",
    "higraph": "repro.accel.config",
    "higraph_mini": "repro.accel.config",
    "graphdyns": "repro.accel.config",
    "ablation": "repro.accel.config",
    "fig7_layout": "repro.accel.config",
    "DESIGN_ID_BITS": "repro.accel.config",
    "DESIGN_MAX_VERTICES": "repro.accel.config",
    "DESIGN_MAX_EDGES": "repro.accel.config",
    "SlicedAcceleratorSim": "repro.accel.slicing",
    "slice_load_cycles": "repro.accel.slicing",
    "SimStats": "repro.accel.stats",
    "PipelineTrace": "repro.accel.trace",
    "PipelineTracer": "repro.accel.trace",
})

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
