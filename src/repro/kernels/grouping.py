"""Super-vertex grouping math (paper Section 5.6).

The single most important implementation technique in the paper:
combine large numbers of data points into "super vertices" so that the
platform moves one model copy (and one aggregate) per *group* instead of
per *point*.  "A similar super vertex construction was a necessary part
of each one of the GraphLab implementations; without it, none of our
GraphLab codes would run."

The paper uses 8,000 super vertices on the 100-machine cluster; the
:func:`paper_group_count` helper reproduces that sizing rule (80 super
vertices per machine).

This lives in the kernel layer because it is pure partitioning math
with no execution semantics: both the graph engines and the model layer
(the collapsed-LDA ablation) consume it, and kernels is the lowest
layer both may import (L001).  ``repro.graph`` re-exports everything
for the engine-side callers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Super vertices per machine in the paper's GMM configuration
#: (8,000 super vertices / 100 machines).
SUPER_VERTICES_PER_MACHINE = 80


def paper_group_count(machines: int) -> int:
    """Number of super vertices the paper's sizing rule gives."""
    if machines < 1:
        raise ValueError(f"machines must be positive, got {machines}")
    return machines * SUPER_VERTICES_PER_MACHINE


def group_rows(rows: np.ndarray, groups: int) -> list[np.ndarray]:
    """Split a data matrix into ``groups`` contiguous row blocks.

    Blocks differ in size by at most one row; empty blocks are dropped
    (a tiny laptop-scale dataset may have fewer rows than the paper's
    group count).
    """
    if groups < 1:
        raise ValueError(f"groups must be positive, got {groups}")
    rows = np.asarray(rows)
    blocks = np.array_split(rows, groups)
    return [b for b in blocks if len(b)]


def group_items(items: Sequence, groups: int) -> list[list]:
    """Split arbitrary items (e.g. documents) into super-vertex groups."""
    if groups < 1:
        raise ValueError(f"groups must be positive, got {groups}")
    size, extra = divmod(len(items), groups)
    out, start = [], 0
    for i in range(groups):
        end = start + size + (1 if i < extra else 0)
        if end > start:
            out.append(list(items[start:end]))
        start = end
    return out


__all__ = ["SUPER_VERTICES_PER_MACHINE", "group_items", "group_rows",
           "paper_group_count"]
