"""The rule catalog.  Importing this package registers every rule.

One module per concern, mirroring the invariants they guard:

=================  ====================================================
``state.py``       no module-level mutable state in the simulation core
                   (the PR 3 ``backend.py`` bug class)
``determinism.py`` unordered-set iteration, ``id()`` keys, wall-clock /
                   unseeded-random calls in deterministic code
``cachekey.py``    cache-key completeness: every ``AcceleratorConfig``
                   field and every ``SweepJob`` axis reaches the key
``telemetry.py``   every ``FFWD_TELEMETRY`` key written anywhere is
                   zeroed by the soa engine's run-start reset
``engines.py``     every registered engine has a cache-equivalence
                   entry and a ``make_engine`` branch
``apisurface.py``  the package root exports exactly its frozen
                   ``PACKAGE_EXPORTS`` manifest (PEP 562 lazy surface,
                   deprecation shims out of ``__all__`` and unused
                   in-repo)
``exceptions.py``  no bare/broad excepts in engine code; raised errors
                   derive from :mod:`repro.errors`
``repo.py``        refolded repo guards: tracked bytecode, docs/cli.md
                   vs the real CLI, the BENCH history gate
``forksafety.py``  multiprocessing hygiene in the sweep layer: shared
                   module state, non-atomic writes, captured handles
=================  ====================================================

``docs/linting.md`` is the human-readable catalog.
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    apisurface,
    cachekey,
    determinism,
    engines,
    exceptions,
    forksafety,
    repo,
    state,
    telemetry,
)
