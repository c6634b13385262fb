"""Theories, views, flattening, and the term/theory surface syntax."""

from glf.modsys.theory import (
    FlatTheory,
    Theory,
    TheoryGraph,
    View,
    ViewApplier,
    apply_view,
    check_totality,
    validate_view,
)
from glf.modsys.syntax import parse_term, print_term
from glf.modsys.files import parse_theory_file

__all__ = [
    "FlatTheory", "Theory", "TheoryGraph", "View", "ViewApplier",
    "apply_view", "check_totality", "validate_view",
    "parse_term", "print_term", "parse_theory_file",
]
