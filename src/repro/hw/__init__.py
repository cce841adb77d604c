"""Hardware primitives: FIFOs, arbiters, crossbars, and the calibrated
timing / area / power models."""

from repro.hw.arbiter import GreedyClaimArbiter, OddEvenArbiter
from repro.hw.crossbar import ArbitratedCrossbar
from repro.hw.fifo import Fifo
from repro.hw.timing import (
    FIG4_PORT_SWEEP,
    TARGET_FREQUENCY_GHZ,
    crossbar_critical_path_ns,
    crossbar_frequency_ghz,
    design_frequency_ghz,
    fig4_rows,
    mdp_critical_path_ns,
    mdp_frequency_ghz,
)
from repro.hw.power import (
    crossbar_area_mm2,
    crossbar_power_mw,
    mdp_area_mm2,
    mdp_power_mw,
    sec54_rows,
)

__all__ = [
    "Fifo",
    "OddEvenArbiter",
    "GreedyClaimArbiter",
    "ArbitratedCrossbar",
    "FIG4_PORT_SWEEP",
    "TARGET_FREQUENCY_GHZ",
    "crossbar_critical_path_ns",
    "crossbar_frequency_ghz",
    "mdp_critical_path_ns",
    "mdp_frequency_ghz",
    "design_frequency_ghz",
    "fig4_rows",
    "mdp_area_mm2",
    "mdp_power_mw",
    "crossbar_area_mm2",
    "crossbar_power_mw",
    "sec54_rows",
]
