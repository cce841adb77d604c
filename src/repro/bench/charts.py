"""Terminal chart rendering for figure data (no plotting deps offline).

The paper's evaluation figures are bar/line charts; these helpers render
the regenerated series as unicode bar charts, so ``repro sweep
--figure`` and ``repro report --charts`` show the *shape* directly, not
just rows.  A section's chart is a ``functools.partial`` of
:func:`bar_chart` or :func:`series_chart` on its
:class:`~repro.bench.report.SectionSpec`.
"""

from __future__ import annotations

from repro.errors import ConfigError

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(value: float, vmax: float, width: int) -> str:
    if vmax <= 0:
        return ""
    cells = value / vmax * width
    full = int(cells)
    frac = int((cells - full) * 8)
    bar = "█" * full
    if frac and full < width:
        bar += _BLOCKS[frac]
    return bar


def bar_chart(rows: list[dict], label_key: str, value_key: str,
              title: str | None = None, width: int = 40,
              group_key: str | None = None) -> str:
    """Horizontal bar chart of ``value_key`` per row.

    ``group_key`` (optional) prefixes labels, rendering grouped series
    the way the paper's clustered bar figures do.
    """
    if not rows:
        return "(no data)\n"
    for key in (label_key, value_key):
        if key not in rows[0]:
            raise ConfigError(f"rows have no column {key!r}")
    values = [float(r[value_key]) for r in rows]
    vmax = max(values)
    labels = []
    for r in rows:
        label = str(r[label_key])
        if group_key is not None:
            label = f"{r[group_key]}/{label}"
        labels.append(label)
    label_w = max(len(l) for l in labels)
    lines = [] if title is None else [title]
    for label, value in zip(labels, values):
        lines.append(f"{label.ljust(label_w)} |{_bar(value, vmax, width).ljust(width)}| "
                     f"{value:.2f}")
    return "\n".join(lines) + "\n"


def series_chart(rows: list[dict], x_key: str, y_key: str, series_key: str,
                 title: str | None = None, width: int = 40) -> str:
    """Grouped bars per x value, one row per series — line-chart stand-in
    for the paper's sweep figures (Fig. 11, Fig. 12)."""
    if not rows:
        return "(no data)\n"
    vmax = max(float(r[y_key]) for r in rows)
    xs = list(dict.fromkeys(r[x_key] for r in rows))
    series = list(dict.fromkeys(r[series_key] for r in rows))
    lines = [] if title is None else [title]
    label_w = max(len(f"{s} @ {x}") for s in series for x in xs)
    for x in xs:
        for s in series:
            match = [r for r in rows if r[x_key] == x and r[series_key] == s]
            if not match:
                continue
            value = float(match[0][y_key])
            label = f"{s} @ {x}"
            lines.append(f"{label.ljust(label_w)} |"
                         f"{_bar(value, vmax, width).ljust(width)}| {value:.2f}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
