"""Shared fixtures for the figure/table benchmark suite.

Each bench builds its report section through
:data:`repro.bench.regen.SECTIONS` — the description ``repro report``
regenerates from — so a table written here is the table the report
writes for the same results.  One session context runs every sweep;
the Fig. 8/9 evaluation matrix and the Fig. 10(a)/(b) ablation sweep
are each run once and shared by their two sections.  Three
environment variables tune how it runs — the numbers are identical in
every case:

* ``REPRO_JOBS``       worker threads (default 0 = one per CPU;
                       set 1 to force serial execution);
* ``REPRO_CACHE_DIR``  sweep result cache directory (default: no
                       cache, always simulate);
* ``REPRO_ENGINE``     scatter engine, ``soa`` (default) or
                       ``reference`` — the engines are cycle-exact
                       equivalents, so this only changes wall-clock
                       (see docs/performance.md).

Every bench writes its rendered table under ``benchmarks/results/`` so
the numbers survive the pytest run.  A cache warmed here (set
``REPRO_CACHE_DIR``) lets ``repro report --cache-dir <dir>``
regenerate the whole consolidated report afterwards without a single
simulation — see docs/cli.md.
"""

import os

import pytest

from repro.api import LocalSession
from repro.bench.regen import SECTIONS, RegenContext, write_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def section(results_dir):
    """``section(key)`` builds one report section, prints its table,
    writes it as ``results/<key>.txt`` and returns the rows."""
    session = LocalSession(cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
                           num_workers=int(os.environ.get("REPRO_JOBS", "0")))
    ctx = RegenContext(session.sweep)

    def build(key: str) -> list[dict]:
        rows, _accounting = SECTIONS[key].build(ctx)
        print("\n" + write_table(results_dir, key, rows))
        return rows
    return build
