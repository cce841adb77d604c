"""Graph substrate: CSR container, generators, Table 2 datasets, slicing, IO."""

from repro.graph.csr import CSRGraph, MemoryFootprint, PAPER_ID_BITS
from repro.graph.datasets import DATASET_ORDER, TABLE2, DatasetSpec, load, table2_rows
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
from repro.graph.io import load_edge_list, load_npz, save_edge_list, save_npz
from repro.graph.partition import (
    GraphSlice,
    destination_slice_edges,
    partition_by_destination,
    partition_for_budget,
    slice_count_for_budget,
    validate_partition,
)

__all__ = [
    "CSRGraph",
    "MemoryFootprint",
    "PAPER_ID_BITS",
    "DATASET_ORDER",
    "TABLE2",
    "DatasetSpec",
    "load",
    "table2_rows",
    "chain",
    "complete",
    "erdos_renyi",
    "grid_2d",
    "inverse_star",
    "preferential_attachment",
    "random_weights",
    "rmat",
    "star",
    "load_edge_list",
    "load_npz",
    "save_edge_list",
    "save_npz",
    "GraphSlice",
    "destination_slice_edges",
    "partition_by_destination",
    "partition_for_budget",
    "slice_count_for_budget",
    "validate_partition",
]
