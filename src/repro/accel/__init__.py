"""Accelerator simulators: HiGraph, HiGraph-mini, GraphDynS, ablations."""

from repro.accel.accelerator import AcceleratorSim, SimResult, simulate
from repro.accel.engine import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    ENGINES,
    resolve_engine,
)
from repro.accel.config import (
    DESIGN_ID_BITS,
    DESIGN_MAX_EDGES,
    DESIGN_MAX_VERTICES,
    AcceleratorConfig,
    ablation,
    fig7_layout,
    graphdyns,
    higraph,
    higraph_mini,
)
from repro.accel.slicing import SlicedAcceleratorSim, slice_load_cycles
from repro.accel.stats import SimStats
from repro.accel.trace import PipelineTrace, PipelineTracer

__all__ = [
    "AcceleratorSim",
    "SimResult",
    "simulate",
    "ENGINES",
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "resolve_engine",
    "AcceleratorConfig",
    "higraph",
    "higraph_mini",
    "graphdyns",
    "ablation",
    "fig7_layout",
    "DESIGN_ID_BITS",
    "DESIGN_MAX_VERTICES",
    "DESIGN_MAX_EDGES",
    "SlicedAcceleratorSim",
    "slice_load_cycles",
    "SimStats",
    "PipelineTrace",
    "PipelineTracer",
]
