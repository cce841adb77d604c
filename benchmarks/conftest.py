"""Shared fixtures for the figure/table benchmark suite.

The Fig. 8 and Fig. 9 benches share one expensive evaluation matrix
(4 algorithms x 6 datasets x 3 designs); it is computed once per
session on the sweep engine.  Three environment variables tune how it
runs — the numbers are identical in every case:

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

from repro.bench import format_table, run_matrix

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def _env_jobs() -> int:
    """Worker threads for sweep-backed benches (0 = one per CPU).

    The default went serial -> per-CPU once the executor's scheduling
    and caching had soaked; results are identical regardless.
    """
    return int(os.environ.get("REPRO_JOBS", "0"))


def _env_cache():
    return os.environ.get("REPRO_CACHE_DIR") or None


@pytest.fixture(scope="session")
def sweep_options():
    """(num_workers, cache) honoured by every sweep-backed fixture."""
    return {"jobs": _env_jobs(), "cache": _env_cache()}


@pytest.fixture(scope="session")
def evaluation_matrix(sweep_options):
    """The Fig. 8/9 matrix: 4 algorithms x 6 datasets x 3 designs."""
    return run_matrix(jobs=sweep_options["jobs"], cache=sweep_options["cache"])


@pytest.fixture(scope="session")
def fig10_data(sweep_options):
    """Fig. 10(a)/(b) share one ablation sweep (16 simulations).

    Every sweep-backed bench references its graph symbolically (the
    default `GraphSpec`), never as a loaded `CSRGraph` — inline graphs
    fingerprint differently, and a cache warmed here must hand the
    exact same keys to `repro report`.  Workers memoize the loaded
    graph per process, so this costs one R14 load either way.
    """
    from repro.bench import fig10_rows
    return fig10_rows(num_workers=sweep_options["jobs"],
                      cache=sweep_options["cache"])


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a table and persist it under benchmarks/results/."""
    def _emit(name: str, rows, columns=None, title=None, floatfmt=".2f"):
        text = format_table(rows, columns=columns, title=title, floatfmt=floatfmt)
        print("\n" + text)
        with open(os.path.join(results_dir, f"{name}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        return text
    return _emit
