"""Exact dimension computations for linear systems of plane curves with fat points."""

from .core import (LinearSystem, SystemParseError, arithmetic_genus, canonical_intersect,
                   expected_dim, format_system, intersect, parse_system, virtual_dim)
from .cremona import Move, NegativeEntryError, NotFixedError, standard_reduce
from .degeneration import (Budget, CertificateError, DegenerationSplit,
                           check_certificate, degenerate, recursive_dim)
from .neg_curves import (ClassificationRow, find_splittings, generate_classification,
                         hh_dimension, is_minus_one_class, is_minus_one_special)
from .oracle import DEFAULT_PRIME, PrimeFieldMatrix, build_matrix, dimension_char_p, rank_ff
from .tables import classification_table, known_hard_cases, verify_table
from .verdict import DimVerdict

__version__ = "0.1.0"

__all__ = [
    "LinearSystem", "SystemParseError",
    "virtual_dim", "expected_dim", "intersect", "canonical_intersect",
    "arithmetic_genus", "parse_system", "format_system",
    "standard_reduce", "Move",
    "NegativeEntryError", "NotFixedError",
    "find_splittings",
    "is_minus_one_class", "is_minus_one_special", "hh_dimension",
    "generate_classification", "ClassificationRow",
    "degenerate", "DegenerationSplit", "recursive_dim", "Budget", "check_certificate",
    "CertificateError", "DimVerdict",
    "build_matrix", "rank_ff", "dimension_char_p",
    "PrimeFieldMatrix", "DEFAULT_PRIME",
    "classification_table", "known_hard_cases", "verify_table",
]
