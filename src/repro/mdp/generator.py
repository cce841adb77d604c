"""Automatic MDP-network generator — paper Algorithm 1, generalized to radix r.

The paper's open-source artifact is an automatic generator that wires an
MDP-network for ``n`` channels out of small FIFO modules:

* **Step 1 — module construction**: ``r`` rW1R FIFOs form one "rWrR
  module" (the paper's 2W2R module for radix 2).
* **Step 2 — input ports connection**: for stage ``i`` the channels are
  divided into ``r**i`` groups (``target_group``), each of size
  ``group_base = n / r**i``; within a group, input ``k`` pairs with the
  inputs ``k + t * channel_step`` (``channel_step = group_base / r``)
  and the module routes by the ``(log_r(n) - 1 - i)``-th base-r digit of
  the destination address.

With radix 2 and n = 4 this reproduces the paper's Fig. 5(d) example:
stage 1 connects pairs {0, 2} and {1, 3} switched by ``addr[1]``, stage
2 connects {0, 1} and {2, 3} switched by ``addr[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ModuleSpec:
    """One rWrR module: ``r`` input/output positions plus its routing digit.

    ``channels[t]`` is both the t-th input port position and the output
    position selected by destination digit value ``t``.
    """

    stage: int
    index: int
    channels: tuple[int, ...]
    digit_index: int            # which base-r digit of the destination routes here

    @property
    def radix(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class StagePlan:
    """All modules of one MDP-network stage (they partition the channels)."""

    index: int
    digit_index: int
    modules: tuple[ModuleSpec, ...]

    def module_of(self, channel: int) -> ModuleSpec:
        for m in self.modules:
            if channel in m.channels:
                return m
        raise ConfigError(f"channel {channel} not wired in stage {self.index}")


@dataclass(frozen=True)
class NetworkPlan:
    """Complete wiring of an MDP-network (the generator's output)."""

    channels: int
    radix: int
    stages: tuple[StagePlan, ...]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def digit(self, dest: int, digit_index: int) -> int:
        """Base-``radix`` digit of a destination address."""
        return (dest // self.radix ** digit_index) % self.radix

    def stage_ports(self) -> list[list[tuple[int, ...]]]:
        """``ports[stage][pos]``: the output positions of the module that
        input ``pos`` feeds at ``stage``, indexed by routing digit."""
        table = []
        for stage in self.stages:
            ports: list[tuple[int, ...]] = [()] * self.channels
            for module in stage.modules:
                for pos in module.channels:
                    ports[pos] = module.channels
            table.append(ports)
        return table

    def route(self, dest: int) -> list[int]:
        """Positions a datum for ``dest`` occupies after each stage.

        Deterministic propagation (§3.1): entering at *any* input, after
        stage ``i`` the datum sits at the position selected by the
        destination's digits — the final position is ``dest`` itself.
        """
        positions = []
        pos = 0  # entry position does not affect the out-position sequence
        for stage in self.stages:
            module = stage.module_of(pos)
            pos = module.channels[self.digit(dest, stage.digit_index)]
            positions.append(pos)
        return positions


def _int_log(n: int, base: int) -> int:
    """log_base(n) for exact powers; raises otherwise."""
    count, value = 0, 1
    while value < n:
        value *= base
        count += 1
    if value != n:
        raise ConfigError(f"{n} is not a power of {base}")
    return count


def generate_network(channels: int, radix: int = 2) -> NetworkPlan:
    """Run Algorithm 1: produce the stage-by-stage wiring plan.

    ``channels`` must be an exact power of ``radix`` (the paper's
    generator shares this restriction: ``log_2 n`` stages of radix-2
    modules).
    """
    if radix < 2:
        raise ConfigError(f"radix must be >= 2, got {radix}")
    if channels < radix:
        raise ConfigError(
            f"need at least one module: channels {channels} < radix {radix}")
    num_stages = _int_log(channels, radix)

    stages = []
    for i in range(num_stages):                      # stage i  (Alg. 1 line 2)
        target_group = radix ** i                    # line 4
        group_base = channels // target_group        # line 5
        channel_step = group_base // radix           # line 6
        digit_index = num_stages - 1 - i             # line 15 ("(log2 n - i)th bit")
        modules = []
        for j in range(target_group):                # group j (line 7)
            real_base = group_base * j               # line 8
            for k in range(channel_step):            # pair k (line 9)
                ports = tuple(real_base + k + t * channel_step
                              for t in range(radix))  # lines 10-12, radix-r
                modules.append(ModuleSpec(stage=i, index=len(modules),
                                          channels=ports, digit_index=digit_index))
        stages.append(StagePlan(index=i, digit_index=digit_index,
                                modules=tuple(modules)))
    return NetworkPlan(channels=channels, radix=radix, stages=tuple(stages))


def pair_list(plan: NetworkPlan, stage: int) -> list[list[int]]:
    """Algorithm 1's ``pair_list`` for one stage (test/debug helper)."""
    return [list(m.channels) for m in plan.stages[stage].modules]


def validate_plan(plan: NetworkPlan) -> None:
    """Structural invariants every generated plan must satisfy."""
    n, r = plan.channels, plan.radix
    if r ** plan.num_stages != n:
        raise ConfigError("stage count does not cover the address space")
    for stage in plan.stages:
        seen: set[int] = set()
        for m in stage.modules:
            if len(m.channels) != r:
                raise ConfigError(f"module {m} is not radix {r}")
            seen.update(m.channels)
        if seen != set(range(n)):
            raise ConfigError(
                f"stage {stage.index} modules do not partition the channels")
    # deterministic routing reaches every destination
    for dest in range(n):
        if plan.route(dest)[-1] != dest:
            raise ConfigError(f"routing failed for destination {dest}")
