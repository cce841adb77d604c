"""Graph substrate: CSR container, generators, Table 2 datasets, slicing."""

from repro.graph.csr import CSRGraph, MemoryFootprint, PAPER_ID_BITS
from repro.graph.datasets import DATASET_ORDER, TABLE2, DatasetSpec, load
from repro.graph.generators import (
    chain,
    complete,
    erdos_renyi,
    grid_2d,
    inverse_star,
    preferential_attachment,
    random_weights,
    rmat,
    star,
)
from repro.graph.partition import (
    GraphSlice,
    destination_slice_edges,
    partition_by_destination,
    partition_for_budget,
    slice_count_for_budget,
)

__all__ = [
    "CSRGraph",
    "MemoryFootprint",
    "PAPER_ID_BITS",
    "DATASET_ORDER",
    "TABLE2",
    "DatasetSpec",
    "load",
    "chain",
    "complete",
    "erdos_renyi",
    "grid_2d",
    "inverse_star",
    "preferential_attachment",
    "random_weights",
    "rmat",
    "star",
    "GraphSlice",
    "destination_slice_edges",
    "partition_by_destination",
    "partition_for_budget",
    "slice_count_for_budget",
]
