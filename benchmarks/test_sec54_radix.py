"""§5.4 — design option: MDP-network radix.

Paper: "We find that a too large radix still encounters design
centralization, which degrades the performance.  By contrast, the
performance changes slightly with relatively small radices.  Thus, we
choose radix 2 in our design."

Swept at 64 back-end channels (64 = 2^6 = 4^3 = 8^2, so radices 2, 4
and 8 all admit a legal network).
"""


def test_sec54_radix_study(section):
    rows = section("sec54_radix")

    by_radix = {r["radix"]: r for r in rows}
    # small radices perform within a few percent of each other
    assert abs(by_radix[2]["gteps"] - by_radix[4]["gteps"]) \
        < 0.15 * by_radix[2]["gteps"]
    # a large radix loses frequency (re-centralization) ...
    assert by_radix[8]["frequency_ghz"] <= by_radix[2]["frequency_ghz"]
    # ... and does not win overall
    assert by_radix[8]["gteps"] <= by_radix[2]["gteps"] * 1.05
