"""Turning abstract syntax trees back into sentences."""

from __future__ import annotations

from glf.errors import GrammarError, MissingLin
from glf.grammar.abstract import AbstractGrammar, ast_category
from glf.grammar.concrete import ConcreteGrammar, check_against_lintype, check_concrete_of, eval_lin
from glf.kernel import Const, Term, spine


def linearize(abstract: AbstractGrammar, concrete: ConcreteGrammar, ast: Term) -> str:
    """Linearize a tree whose category has a plain-string linearization."""
    check_concrete_of(abstract, concrete)
    cat = ast_category(abstract, ast)
    lt = concrete.lincat(cat)
    if lt.s_params or lt.inherent:
        raise GrammarError(
            f"cannot render a {cat} as a single string; "
            "its linearization carries parameters"
        )
    value = _eval(abstract, concrete, ast)
    _, rows = check_against_lintype(concrete, value, lt, f"linearize {cat}")
    return " ".join(rows[()])


def _eval(abstract: AbstractGrammar, concrete: ConcreteGrammar, ast: Term):
    head, args = spine(ast)
    assert isinstance(head, Const)
    rule = concrete.lin(head.name)
    if rule is None:
        raise MissingLin(head.name)
    if len(rule.params) != len(args):
        raise GrammarError(
            f"lin {head.name} takes {len(rule.params)} arguments, tree has {len(args)}"
        )
    f = abstract.fun(head.name)
    env = {}
    for name, arg, cat in zip(rule.params, args, f.args):
        value = _eval(abstract, concrete, arg)
        # Re-checking each subtree against its lincat keeps error messages
        # pointed at the offending rule instead of a distant selection.
        check_against_lintype(concrete, value, concrete.lincat(cat), f"lin {head.name}")
        env[name] = value
    return eval_lin(concrete, rule.expr, env, f"lin {head.name}")
