"""Graph substrate plus the GraphLab (GAS) and Giraph (BSP) engines."""

from repro.graph.giraph import GiraphContext, GiraphEngine, OUTGOING_BUFFER_FRACTION
from repro.graph.graph import GraphEngine, VertexId, VertexKind
from repro.graph.graphlab import GASProgram, GraphLabEngine
from repro.kernels.grouping import (
    SUPER_VERTICES_PER_MACHINE,
    group_items,
    group_rows,
    paper_group_count,
)

__all__ = [
    "GASProgram",
    "GiraphContext",
    "GiraphEngine",
    "GraphEngine",
    "GraphLabEngine",
    "OUTGOING_BUFFER_FRACTION",
    "SUPER_VERTICES_PER_MACHINE",
    "VertexId",
    "VertexKind",
    "group_items",
    "group_rows",
    "paper_group_count",
]
