"""Typed λ-calculus core: terms, reduction, and type checking."""

from glf.kernel.terms import (
    App,
    Const,
    KIND,
    Lam,
    Pi,
    Sort,
    TYPE,
    Term,
    Var,
    alpha_eq,
    alpha_normal,
    app,
    arrow,
    constants,
    free_vars,
    fresh_name,
    lam,
    pi_spine,
    spine,
    substitute,
)
from glf.kernel.declarations import Declaration, Notation, Signature
from glf.kernel.reduce import Normalizer, def_eq, normalize, whnf
from glf.kernel.typecheck import Context, ProofCheck, check_proof, check_type, infer_type

__all__ = [
    "App", "Const", "KIND", "Lam", "Pi", "Sort", "TYPE", "Term", "Var",
    "alpha_eq", "alpha_normal", "app", "arrow", "constants", "free_vars",
    "fresh_name", "lam", "pi_spine", "spine", "substitute",
    "Declaration", "Notation", "Signature",
    "Normalizer", "def_eq", "normalize", "whnf",
    "Context", "ProofCheck", "check_proof", "check_type", "infer_type",
]
