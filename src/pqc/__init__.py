"""pqc: succinct storage for well-spaced point sets.

Stores Morton-ordered fixed-point coordinates as gamma-coded xor deltas in
blocks behind a small search index, supports quadtree and restricted
Voronoi queries directly on the compressed form, and refines point sets to
a target aspect ratio without decompressing them.
"""

from .codec import KERNEL_BACKEND
from .errors import (
    CorruptPayloadError,
    DimensionError,
    DomainError,
    DuplicatePointError,
    FormatError,
    GenerationError,
    OutOfRangeError,
    ParseError,
    PqcError,
    RefineError,
    TruncatedStreamError,
    UnsortedInputError,
)
from .geom import HeightedPoint, round_point, round_set
from .ingest import TextPointReader, read_multiscan
from .morton import Config, Point, TrieSquare
from .qtree import ArrayPointSource, PointSource, restricted_voronoi, square_of, vertices
from .refine import RefineParams, RefineReport, refine
from .store import LOSSLESS, LOSSY, CompressedStore

__version__ = "0.1.0"

__all__ = [
    "Config",
    "Point",
    "TrieSquare",
    "HeightedPoint",
    "CompressedStore",
    "LOSSLESS",
    "LOSSY",
    "PointSource",
    "ArrayPointSource",
    "round_point",
    "round_set",
    "square_of",
    "vertices",
    "restricted_voronoi",
    "read_multiscan",
    "TextPointReader",
    "refine",
    "RefineParams",
    "RefineReport",
    "KERNEL_BACKEND",
    "PqcError",
    "DomainError",
    "DimensionError",
    "DuplicatePointError",
    "UnsortedInputError",
    "TruncatedStreamError",
    "CorruptPayloadError",
    "FormatError",
    "ParseError",
    "OutOfRangeError",
    "RefineError",
    "GenerationError",
    "__version__",
]
