"""The rule catalog.  Importing this package registers every rule.

One module per concern, mirroring the invariants they guard:

=================  ====================================================
``state.py``       no module-level mutable state in the simulation core
                   (the PR 3 ``backend.py`` bug class)
``determinism.py`` unordered-set iteration, ``id()`` keys, wall-clock /
                   unseeded-random calls in deterministic code
``exceptions.py``  no bare/broad excepts in engine code; raised errors
                   derive from :mod:`repro.errors`
``forksafety.py``  sweep-layer file writes go through the atomic
                   writer (processes share one cache directory)
=================  ====================================================

``docs/linting.md`` is the human-readable catalog.
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    determinism,
    exceptions,
    forksafety,
    state,
)
