"""Graph substrate: CSR container, generators, Table 2 datasets, slicing.

Exports resolve on first access (:mod:`repro._lazy`): the Table 2
registry imports no numpy; graphs and their generators do.
"""

from types import MappingProxyType

from repro._lazy import lazy_exports

#: exported name -> defining module
_EXPORTS = MappingProxyType({
    "CSRGraph": "repro.graph.csr",
    "MemoryFootprint": "repro.graph.csr",
    "PAPER_ID_BITS": "repro.graph.csr",
    "DATASET_ORDER": "repro.graph.datasets",
    "TABLE2": "repro.graph.datasets",
    "DatasetSpec": "repro.graph.datasets",
    "load": "repro.graph.datasets",
    "chain": "repro.graph.generators",
    "complete": "repro.graph.generators",
    "erdos_renyi": "repro.graph.generators",
    "grid_2d": "repro.graph.generators",
    "inverse_star": "repro.graph.generators",
    "preferential_attachment": "repro.graph.generators",
    "random_weights": "repro.graph.generators",
    "rmat": "repro.graph.generators",
    "star": "repro.graph.generators",
    "GraphSlice": "repro.graph.partition",
    "partition_by_destination": "repro.graph.partition",
    "partition_for_budget": "repro.graph.partition",
    "slice_count_for_budget": "repro.graph.partition",
})

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
