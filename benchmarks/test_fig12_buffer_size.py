"""Fig. 12 — throughput versus per-channel FIFO buffer size (PR / R14).

Paper: "MDP-network outperforms FIFO-plus-crossbar consistently with
various buffer sizes ... We choose 160 entries as the buffer size of
FIFO in each channel because the throughput rarely increases with
larger buffers."
"""

from repro.bench import FIG12_BUFFER_SIZES


def test_fig12_buffer_size_sweep(section):
    rows = section("fig12_buffer_size")

    mdp = {r["buffer_entries"]: r["gteps"] for r in rows
           if r["design"] == "MDP-network"}
    xbar = {r["buffer_entries"]: r["gteps"] for r in rows
            if r["design"] == "FIFO+crossbar"}

    # MDP-network wins at every buffer size
    for entries in FIG12_BUFFER_SIZES:
        assert mdp[entries] >= xbar[entries], entries

    # throughput grows with buffering, then saturates around 160 entries
    assert mdp[160] > mdp[8]
    assert mdp[320] - mdp[160] < 0.1 * mdp[160] + 0.3
