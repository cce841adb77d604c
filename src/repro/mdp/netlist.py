"""Structural netlist of a generated MDP-network + RTL-style emission.

The paper open-sources an automatic generator that produces the RTL of
an MDP-network (github.com/OpenSource88/MDP-network).  This module is
the equivalent artifact for this reproduction: it turns a
:class:`~repro.mdp.generator.NetworkPlan` into an explicit structural
netlist — FIFO instances, mux selects, port connections — and can emit
it as well-formed (elaboration-style) Verilog text.

The netlist is also what the area/latency reports in the examples and
benchmarks introspect: instance counts scale as ``n * log_r(n)`` FIFOs,
which is the "decentralized" structure of §3.1 (compare a monolithic
n-port crossbar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.mdp.generator import NetworkPlan, generate_network


@dataclass(frozen=True)
class FifoInst:
    """One rW1R FIFO instance (a module contributes ``radix`` of them)."""

    name: str
    stage: int
    position: int               # output channel position this FIFO feeds
    write_ports: int
    depth: int


@dataclass(frozen=True)
class Connection:
    """Directed wire: producer endpoint -> consumer FIFO write port."""

    src: str                    # "input[i]" or "stage{s}.fifo[p]"
    dst: str                    # "stage{s}.fifo[p]"
    digit_value: int            # destination digit that selects this path


@dataclass
class Netlist:
    plan: NetworkPlan
    fifo_depth: int
    data_width: int
    fifos: list[FifoInst] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)

    @property
    def num_fifos(self) -> int:
        return len(self.fifos)

    @property
    def num_stages(self) -> int:
        return self.plan.num_stages

    @property
    def addr_width(self) -> int:
        return max(1, math.ceil(math.log2(self.plan.channels)))

    def buffer_bits(self) -> int:
        """Total storage bits across every stage FIFO."""
        return self.num_fifos * self.fifo_depth * self.data_width


def build_netlist(channels: int, radix: int = 2, fifo_depth: int = 32,
                  data_width: int = 38, plan: NetworkPlan | None = None) -> Netlist:
    """Elaborate a plan into FIFO instances and port connections.

    ``data_width`` defaults to 38 bits: a 19-bit destination vertex id
    plus a 19-bit property/immediate value, the paper's quantization.
    """
    if fifo_depth < 1 or data_width < 1:
        raise ConfigError("fifo_depth and data_width must be positive")
    plan = plan or generate_network(channels, radix)
    net = Netlist(plan=plan, fifo_depth=fifo_depth, data_width=data_width)

    for stage in plan.stages:
        for module in stage.modules:
            for t, pos in enumerate(module.channels):
                net.fifos.append(FifoInst(
                    name=f"s{stage.index}_f{pos}",
                    stage=stage.index,
                    position=pos,
                    write_ports=plan.radix,
                    depth=fifo_depth,
                ))
                for src_pos in module.channels:
                    src = (f"input[{src_pos}]" if stage.index == 0
                           else f"stage{stage.index - 1}.fifo[{src_pos}]")
                    net.connections.append(Connection(
                        src=src,
                        dst=f"stage{stage.index}.fifo[{pos}]",
                        digit_value=t,
                    ))
    return net


def emit_verilog(net: Netlist, module_name: str | None = None) -> str:
    """Emit the netlist as structural Verilog text.

    One ``mdp_fifo`` definition (rW1R: ``radix`` write ports, one read
    port) plus a top module that instantiates every stage FIFO and wires
    the digit-selected routing, mirroring what the paper's generator
    publishes.
    """
    plan = net.plan
    n, r, s = plan.channels, plan.radix, plan.num_stages
    name = module_name or f"mdp_network_n{n}_r{r}"
    aw, dw = net.addr_width, net.data_width
    lines: list[str] = []
    out = lines.append

    out(f"// MDP-network: {n} channels, radix {r}, {s} stages")
    out(f"// generated by repro.mdp (paper Algorithm 1)")
    out(f"module {name} #(")
    out(f"    parameter ADDR_W = {aw},")
    out(f"    parameter DATA_W = {dw},")
    out(f"    parameter DEPTH  = {net.fifo_depth}")
    out(") (")
    out("    input  wire                 clk,")
    out("    input  wire                 rst_n,")
    out(f"    input  wire [{n}-1:0]          in_valid,")
    out(f"    input  wire [{n}*ADDR_W-1:0]   in_addr,")
    out(f"    input  wire [{n}*DATA_W-1:0]   in_data,")
    out(f"    output wire [{n}-1:0]          in_ready,")
    out(f"    output wire [{n}-1:0]          out_valid,")
    out(f"    output wire [{n}*DATA_W-1:0]   out_data,")
    out(f"    input  wire [{n}-1:0]          out_ready")
    out(");")
    out("")
    for stage in plan.stages:
        out(f"    // ---- stage {stage.index}: routed by base-{r} digit "
            f"{stage.digit_index} of the destination address ----")
        for module in stage.modules:
            ports = ", ".join(str(c) for c in module.channels)
            out(f"    // module {module.index}: ports {{{ports}}}")
            for t, pos in enumerate(module.channels):
                inst = f"s{stage.index}_f{pos}"
                out(f"    mdp_fifo #(.W_PORTS({r}), .DATA_W(DATA_W+ADDR_W), "
                    f".DEPTH(DEPTH)) {inst} (")
                out("        .clk(clk), .rst_n(rst_n),")
                srcs = ", ".join(
                    (f"in[{c}]" if stage.index == 0 else f"s{stage.index - 1}_q[{c}]")
                    for c in module.channels)
                out(f"        .wr_sel(digit_{stage.digit_index}), "
                    f".wr_bus({{{srcs}}}), .wr_match({t}),")
                out(f"        .rd_data(s{stage.index}_q[{pos}])")
                out("    );")
        out("")
    out("endmodule")
    out("")
    out("// rW1R FIFO: accepts up to W_PORTS writes per cycle when")
    out("// free >= W_PORTS (conservative full signal, paper Section 3.1),")
    out("// pops one datum per cycle when out_ready.")
    out("module mdp_fifo #(parameter W_PORTS = 2, DATA_W = 57, DEPTH = 32) (")
    out("    input  wire clk, input wire rst_n,")
    out("    input  wire [W_PORTS*DATA_W-1:0] wr_bus,")
    out("    input  wire [W_PORTS-1:0] wr_sel,")
    out("    input  wire [$clog2(W_PORTS)-1:0] wr_match,")
    out("    output wire [DATA_W-1:0] rd_data")
    out(");")
    out("    // behavioural body elided: storage DEPTH x DATA_W,")
    out("    // write pointers advance per accepted port, single read port")
    out("endmodule")
    return "\n".join(lines) + "\n"


def netlist_summary(net: Netlist) -> dict:
    """Instance-count summary used by examples/benches."""
    plan = net.plan
    return {
        "channels": plan.channels,
        "radix": plan.radix,
        "stages": plan.num_stages,
        "fifo_instances": net.num_fifos,
        "modules": sum(len(st.modules) for st in plan.stages),
        "connections": len(net.connections),
        "buffer_bits": net.buffer_bits(),
        "min_latency_cycles": plan.num_stages,
    }
