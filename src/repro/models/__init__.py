"""Model mathematics, reference samplers, diagnostics, and metrics."""

from repro.models import collapsed_lda, diagnostics, evaluation
from repro.models.reference import (
    ReferenceGMM,
    ReferenceHMM,
    ReferenceImputation,
    ReferenceLDA,
    ReferenceLasso,
)

__all__ = [
    "ReferenceGMM",
    "collapsed_lda",
    "diagnostics",
    "evaluation",
    "ReferenceHMM",
    "ReferenceImputation",
    "ReferenceLDA",
    "ReferenceLasso",
]
