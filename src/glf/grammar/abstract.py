"""Abstract grammars: categories and typed syntax functions.

Abstract syntax trees are kernel terms built from `Const` (function names)
and `App` only, so the semantics bridge can translate them without a
separate tree type.
"""

from __future__ import annotations

from dataclasses import dataclass

from glf.errors import GrammarError, UnknownCategory
from glf.kernel import Const, Term, spine
from glf.kernel.terms import show


@dataclass(frozen=True)
class FunDecl:
    name: str
    args: tuple[str, ...]
    result: str


@dataclass(frozen=True)
class AbstractGrammar:
    """Categories and functions, flattened over the optional base grammar.

    `extends` keeps the name of the base so the bridge can mirror the
    extension structure as theory includes; `own_cats`/`own_funs` hold just
    this grammar's declarations while `cats`/`funs` include the base's.
    """

    name: str
    startcat: str
    cats: tuple[str, ...]
    funs: tuple[FunDecl, ...]
    extends: str | None = None
    own_cats: tuple[str, ...] = ()
    own_funs: tuple[FunDecl, ...] = ()

    def __post_init__(self) -> None:
        if not self.own_cats and not self.own_funs and self.extends is None:
            object.__setattr__(self, "own_cats", self.cats)
            object.__setattr__(self, "own_funs", self.funs)
        seen: set[str] = set()
        for c in self.cats:
            if c in seen:
                raise GrammarError(f"{self.name}: category {c} declared twice")
            seen.add(c)
        for f in self.funs:
            if f.name in seen:
                raise GrammarError(f"{self.name}: duplicate name {f.name}")
            seen.add(f.name)
            for c in f.args + (f.result,):
                if c not in self.cats:
                    raise UnknownCategory(
                        f"{self.name}: function {f.name} uses unknown category {c}"
                    )
        if self.startcat not in self.cats:
            raise UnknownCategory(
                f"{self.name}: start category {self.startcat} is not declared"
            )

    def fun(self, name: str) -> FunDecl:
        for f in self.funs:
            if f.name == name:
                return f
        raise GrammarError(f"{self.name} has no function {name}")


def ast_category(grammar: AbstractGrammar, ast: Term) -> str:
    """The category of a well-formed tree; raises GrammarError otherwise."""
    head, args = spine(ast)
    if not isinstance(head, Const):
        raise GrammarError(f"not an abstract syntax tree: {show(ast)}")
    f = grammar.fun(head.name)
    if len(args) != len(f.args):
        raise GrammarError(
            f"{f.name} expects {len(f.args)} arguments, got {len(args)}"
        )
    for arg, want in zip(args, f.args):
        got = ast_category(grammar, arg)
        if got != want:
            raise GrammarError(
                f"argument of {f.name} has category {got}, expected {want}"
            )
    return f.result


def ast_depth(ast: Term) -> int:
    head, args = spine(ast)
    if not isinstance(head, Const):
        raise GrammarError(f"not an abstract syntax tree: {show(ast)}")
    return 1 + max((ast_depth(a) for a in args), default=0)
