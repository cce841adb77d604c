"""Synthesis-timing model calibrated to the paper's reported numbers.

The paper's RTL is synthesized with Synopsys DC on TSMC 12nm at 0.8 V,
target clock 1 ns.  That flow is unavailable offline, so this module
fits simple critical-path models through every synthesis number the
paper reports, and exposes frequency as a function of structure:

* **Crossbar** (paper Fig. 4): frequency falls sharply with port count —
  about 2.2 GHz at 4 ports, 1.0 GHz at 32, 0.3 GHz at 256.  We model the
  critical path as ``t = A + B*log2(ports) + C*ports``: an arbitration
  tree depth term plus a wire/fan-out term, the standard decomposition
  for high-radix switch timing (Cagla et al. 2015, cited by the paper).
* **MDP-network** (§5.1, §5.3): critical path 0.93 ns for the 32-channel
  design, rising only to 0.97 ns at 256 channels — because each stage
  interacts over ``radix`` channels only.  Radix enters like a (small)
  crossbar; channel count only adds wiring growth.

GTEPS in the benchmark harness = edges × frequency / cycles, so these
models are what turns cycle counts into the paper's throughput plots
and caps GraphDynS scaling in Fig. 11.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError

# Crossbar critical-path fit t(p) = A + B*log2(p) + C*p, in ns.
# Solved through three of the paper's Fig. 4 operating points
# (4 ports -> ~2.23 GHz, 32 -> 1.00 GHz, 256 -> ~0.30 GHz); the
# remaining Fig. 4 points fall on the curve (see tests).
CROSSBAR_T0_NS = 0.216
CROSSBAR_LOG_NS = 0.0986
CROSSBAR_LINEAR_NS = 0.00908

# MDP-network critical path t(radix, channels), in ns.  Calibrated to
# 0.93 ns @ (radix 2, 32 ch) and 0.97 ns @ (radix 2, 256 ch) from §5.1
# and §5.3.  The radix terms reuse the crossbar coefficients: a stage's
# interaction structure is an (radix)-way arbitration-free mux plus an
# rW1R FIFO write port, which grows the same way a small switch does.
MDP_T0_NS = 0.7953
MDP_RADIX_LOG_NS = 0.05
MDP_RADIX_LINEAR_NS = CROSSBAR_LINEAR_NS
MDP_CHANNEL_LOG_NS = 0.0133

#: The paper's synthesis target: 1 ns clock at 0.8 V (§5.1).
TARGET_CLOCK_NS = 1.0
TARGET_FREQUENCY_GHZ = 1.0

#: Port counts shown on the paper's Fig. 4 x-axis.
FIG4_PORT_SWEEP = (4, 8, 16, 32, 64, 128, 256)


def crossbar_critical_path_ns(ports: int) -> float:
    """Critical path of an arbitrated crossbar with ``ports`` ports."""
    if ports < 2:
        raise ConfigError(f"crossbar needs >= 2 ports, got {ports}")
    return (CROSSBAR_T0_NS
            + CROSSBAR_LOG_NS * math.log2(ports)
            + CROSSBAR_LINEAR_NS * ports)


def crossbar_frequency_ghz(ports: int) -> float:
    """Achievable crossbar frequency (paper Fig. 4 curve)."""
    return 1.0 / crossbar_critical_path_ns(ports)


def mdp_critical_path_ns(channels: int, radix: int = 2) -> float:
    """Critical path of one MDP-network stage.

    Stages are registered, so the network's critical path is one stage's
    — the decentralization argument of §3.1: interaction per stage is
    bounded by ``radix`` regardless of total channel count.
    """
    if channels < 2:
        raise ConfigError(f"MDP-network needs >= 2 channels, got {channels}")
    if radix < 2:
        raise ConfigError(f"MDP radix must be >= 2, got {radix}")
    return (MDP_T0_NS
            + MDP_RADIX_LOG_NS * math.log2(radix)
            + MDP_RADIX_LINEAR_NS * radix
            + MDP_CHANNEL_LOG_NS * math.log2(channels))


def mdp_frequency_ghz(channels: int, radix: int = 2) -> float:
    return 1.0 / mdp_critical_path_ns(channels, radix)


def design_frequency_ghz(
    *,
    crossbar_ports: int | None = None,
    mdp_channels: int | None = None,
    mdp_radix: int = 2,
) -> float:
    """Frequency of a whole design: slowest structure, capped at target.

    The paper runs every Table 1 configuration at 1 GHz; structures
    faster than the target don't raise the clock (the rest of the
    pipeline is designed to the 1 ns budget), but a structure slower
    than the target drags the whole design down — this is what stops
    GraphDynS beyond 64 back-end channels in Fig. 11.
    """
    critical_ns = 0.0
    if crossbar_ports is not None and crossbar_ports >= 2:
        critical_ns = max(critical_ns, crossbar_critical_path_ns(crossbar_ports))
    if mdp_channels is not None and mdp_channels >= 2:
        critical_ns = max(critical_ns, mdp_critical_path_ns(mdp_channels, mdp_radix))
    if critical_ns <= 0.0:
        return TARGET_FREQUENCY_GHZ
    return min(TARGET_FREQUENCY_GHZ, 1.0 / critical_ns)


def fig4_rows() -> list[dict]:
    """The Fig. 4 reproduction: frequency versus crossbar port count."""
    return [
        {"ports": p,
         "critical_path_ns": crossbar_critical_path_ns(p),
         "frequency_ghz": crossbar_frequency_ghz(p)}
        for p in FIG4_PORT_SWEEP
    ]
