"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import gc
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import AbstractSet

import hypothesis.strategies as st

import glf

from glf.errors import (
    DuplicateName,
    GrammarError,
    NonTerminationGuard,
    NotAFunction,
    PartialView,
    TermSyntaxError,
    TypeError_,
    TypeMismatch,
    UnknownConstant,
    UntypedBinder,
)
from glf.grammar import AbstractGrammar, FunDecl, GrammarRegistry
from glf.grammar.concrete import (
    ArgField,
    Concat,
    ConcreteGrammar,
    Ctor,
    LinRule,
    LinType,
    Literal,
    ParamType,
    Record,
    Select,
    Table,
)
from glf.kernel import (
    App,
    Const,
    Declaration,
    KIND,
    Lam,
    Notation,
    Pi,
    Signature,
    Sort,
    TYPE,
    Term,
    Var,
    alpha_eq,
    app,
    arrow,
    constants,
    def_eq,
    free_vars,
    fresh_name,
    lam,
    normalize,
    spine,
    substitute,
    whnf,
)
from glf.kernel.reduce import DEFAULT_BUDGET
from glf.kernel.terms import rename_away, show
from glf.kernel.typecheck import EMPTY, Context, check_type, infer_type
from glf.modsys import print_term
from glf.modsys.syntax import (
    APP_PREC,
    ARROW_PREC,
    IDENT_RE,
    KEYWORDS,
    NotationTable,
    notation_table,
    parse_term,
)
from glf.modsys.theory import Theory, TheoryGraph, View, validate_view

O = Const("o")
I = Const("ι")


def ksig() -> Signature:
    """A small logic+domain signature for kernel-level tests."""
    d = lambda name, ty, definiens=None: Declaration(name, ty, definiens)
    return Signature([
        d("o", TYPE),
        d("ι", TYPE),
        d("joan'", I),
        d("mary'", I),
        d("john'", I),
        d("sunny'", O),
        d("windy'", O),
        d("love'", arrow(I, I, O)),
        d("run'", arrow(I, O)),
        d("and", arrow(O, O, O)),
        d("neg", arrow(O, O)),
        Declaration(
            "or",
            arrow(O, O, O),
            lam([("a", O), ("b", O)],
                app(Const("neg"),
                    app(Const("and"),
                        app(Const("neg"), Var("a")),
                        app(Const("neg"), Var("b"))))),
        ),
    ])


def applicative_normalize(sig, t: Term, budget: int = 100_000) -> Term:
    """Rightmost-innermost normalization, used as a confluence cross-check."""
    from glf.errors import NonTerminationGuard

    steps = [budget]

    def norm(t: Term) -> Term:
        match t:
            case App(fn, arg):
                fn, arg = norm(fn), norm(arg)
                if isinstance(fn, Lam):
                    steps[0] -= 1
                    if steps[0] < 0:
                        raise NonTerminationGuard("test budget exceeded")
                    return norm(substitute(fn.body, fn.binder, arg))
                if isinstance(fn, Const) and sig is not None:
                    d = sig.lookup(fn.name)
                    if d is not None and isinstance(d.definiens, Lam):
                        steps[0] -= 1
                        if steps[0] < 0:
                            raise NonTerminationGuard("test budget exceeded")
                        return norm(App(d.definiens, arg))
                head, args = spine(App(fn, arg))
                return app(head, *args)
            case Lam(b, bt, body):
                return Lam(b, norm(bt) if bt is not None else None, norm(body))
            case Pi(b, dom, cod):
                return Pi(b, norm(dom), norm(cod))
            case _:
                return t

    return norm(t)


class _Budget:
    __slots__ = ("left", "total")

    def __init__(self, n: int):
        self.left = n
        self.total = n

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise NonTerminationGuard(
                f"reduction exceeded the step budget of {self.total}"
            )


def reference_whnf(t: Term, sig: Signature | None, delta: str, budget: _Budget) -> Term:
    """Weak head normal form as glf computed it before redex spines were
    contracted in one walk: one `substitute` per binder, and the spine it
    stops on rebuilt."""
    args: list[Term] = []
    while True:
        if isinstance(t, App):
            args.append(t.arg)
            t = t.fn
            continue
        if isinstance(t, Lam) and args:
            budget.spend()
            t = substitute(t.body, t.binder, args.pop())
            continue
        if isinstance(t, Const) and sig is not None:
            d = sig.lookup(t.name)
            if d is not None and d.definiens is not None:
                if delta == "full" or (args and isinstance(d.definiens, Lam)):
                    budget.spend()
                    t = d.definiens
                    continue
        break
    for a in reversed(args):
        t = App(t, a)
    return t


def reference_normalize(sig, t: Term, *, delta: str = "applied",
                        budget: int = DEFAULT_BUDGET) -> Term:
    """`normalize` before it was memoized: every subterm normalized afresh,
    one step budget for the whole term."""
    bud = _Budget(budget)

    def norm(t: Term) -> Term:
        t = reference_whnf(t, sig, delta, bud)
        match t:
            case App():
                head, args = spine(t)
                return app(norm(head), *[norm(a) for a in args])
            case Lam(binder, binder_type, body):
                bt = norm(binder_type) if binder_type is not None else None
                return Lam(binder, bt, norm(body))
            case Pi(binder, domain, codomain):
                return Pi(binder, norm(domain), norm(codomain))
            case Const() | Var() | Sort():
                return t
        raise TypeError(f"not a term: {t!r}")

    return norm(t)


def reference_check_in_target_logic(fragment, t: Term) -> tuple[bool, tuple[str, ...]]:
    """`check_in_target_logic` before it was memoized: one walk over the
    whole term, every subterm checked afresh."""
    flat = fragment.target_flat
    diagnostics: list[str] = []

    def pretty(sub: Term) -> str:
        return print_term(flat, sub)

    def check_names(sub: Term) -> None:
        for name in sorted(constants(sub)):
            if name not in flat:
                diagnostics.append(f"constant {name} is not in the target logic")

    def domains_of(name: str) -> list[Term]:
        d = flat.lookup(name)
        ty = d.type_ if d else None
        out = []
        while isinstance(ty, Pi):
            out.append(ty.domain)
            ty = ty.codomain
        return out

    def is_function_type(ty: Term) -> bool:
        return isinstance(reference_normalize(flat, ty, delta="full"), Pi)

    def visit(sub: Term, sanctioned: bool) -> None:
        if isinstance(sub, Lam):
            if not sanctioned:
                diagnostics.append(f"binder outside higher-order position: {pretty(sub)}")
            if sub.binder_type is not None:
                check_names(sub.binder_type)
            visit(sub.body, isinstance(sub.body, Lam) and sanctioned)
            return
        if isinstance(sub, Pi):
            check_names(sub)
            return
        if isinstance(sub, (Var, Sort)):
            return
        head, args = spine(sub)
        if isinstance(head, Const):
            if head.name not in flat:
                diagnostics.append(f"constant {head.name} is not in the target logic")
                domains = []
            else:
                domains = domains_of(head.name)
            for i, arg in enumerate(args):
                ok_here = (
                    isinstance(arg, Lam)
                    and i < len(domains)
                    and is_function_type(domains[i])
                )
                visit(arg, ok_here)
        else:
            visit(head, False)
            for arg in args:
                visit(arg, False)

    visit(t, False)
    return (not diagnostics, tuple(diagnostics))


def reference_free_vars(t: Term) -> frozenset[str]:
    """Free variables by a plain traversal that never reads a node's cache."""
    match t:
        case Var(name):
            return frozenset((name,))
        case Const() | Sort():
            return frozenset()
        case App(fn, arg):
            return reference_free_vars(fn) | reference_free_vars(arg)
        case Lam(binder, binder_type, body):
            fv = reference_free_vars(body) - {binder}
            if binder_type is not None:
                fv |= reference_free_vars(binder_type)
            return fv
        case Pi(binder, domain, codomain):
            return reference_free_vars(domain) | (reference_free_vars(codomain) - {binder})
    raise TypeError(f"not a term: {t!r}")


def reference_structural_eq(t: Term, u: Term) -> bool:
    """Structural equality as the term classes' generated `__eq__` computed
    it before terms were interned: the same class and equal fields, with
    subterms compared by the same walk."""
    match (t, u):
        case (Var(a), Var(b)) | (Const(a), Const(b)) | (Sort(a), Sort(b)):
            return a == b
        case (App(f1, a1), App(f2, a2)):
            return reference_structural_eq(f1, f2) and reference_structural_eq(a1, a2)
        case (Lam(b1, t1, m1), Lam(b2, t2, m2)):
            if t1 is None or t2 is None:
                same_type = t1 is t2
            else:
                same_type = reference_structural_eq(t1, t2)
            return b1 == b2 and same_type and reference_structural_eq(m1, m2)
        case (Pi(b1, d1, c1), Pi(b2, d2, c2)):
            return (b1 == b2 and reference_structural_eq(d1, d2)
                    and reference_structural_eq(c1, c2))
    return False


def reference_alpha_eq(t: Term, u: Term) -> bool:
    """True iff `t` and `u` are identical up to renaming of bound variables.

    The environment walk `glf.kernel.alpha_eq` used before it became a
    comparison of α-normal forms, kept verbatim as an oracle.
    """

    def go(t: Term, u: Term, env_t: dict[str, int], env_u: dict[str, int], depth: int) -> bool:
        match (t, u):
            case (Var(a), Var(b)):
                la, lb = env_t.get(a), env_u.get(b)
                if la is None and lb is None:
                    return a == b
                return la == lb
            case (Const(a), Const(b)):
                return a == b
            case (Sort(a), Sort(b)):
                return a == b
            case (App(f1, a1), App(f2, a2)):
                return go(f1, f2, env_t, env_u, depth) and go(a1, a2, env_t, env_u, depth)
            case (Lam(b1, t1, m1), Lam(b2, t2, m2)):
                if (t1 is None) != (t2 is None):
                    return False
                if t1 is not None and not go(t1, t2, env_t, env_u, depth):
                    return False
                return go(m1, m2, {**env_t, b1: depth}, {**env_u, b2: depth}, depth + 1)
            case (Pi(b1, d1, c1), Pi(b2, d2, c2)):
                if not go(d1, d2, env_t, env_u, depth):
                    return False
                return go(c1, c2, {**env_t, b1: depth}, {**env_u, b2: depth}, depth + 1)
        return False

    return go(t, u, {}, {}, 0)


def reference_substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution of `s` for free occurrences of `x`.

    `glf.kernel.substitute` as it was before it dispatched on the node's
    class and freed its closure, kept verbatim as an oracle.
    """
    fv_s = free_vars(s)

    def go(t: Term) -> Term:
        if x not in free_vars(t):
            return t
        match t:
            case Var():
                return s
            case App(fn, arg):
                return App(go(fn), go(arg))
            case Lam(binder, binder_type, body):
                bt = go(binder_type) if binder_type is not None else None
                if binder == x:
                    return Lam(binder, bt, body)
                if binder in fv_s and x in free_vars(body):
                    binder, body = rename_away(binder, body, fv_s)
                return Lam(binder, bt, go(body))
            case Pi(binder, domain, codomain):
                dom = go(domain)
                if binder == x:
                    return Pi(binder, dom, codomain)
                if binder in fv_s and x in free_vars(codomain):
                    binder, codomain = rename_away(binder, codomain, fv_s)
                return Pi(binder, dom, go(codomain))
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def reference_alpha_normal(t: Term) -> Term:
    """Canonical α-representative: the binder at depth d named $d, primed
    while that is free in `t`.

    `glf.kernel.alpha_normal` as it was before it cached its result on the
    node, kept verbatim as an oracle.
    """
    avoid: AbstractSet[str] = frozenset()  # the names no binder may take
    free: list[str] = []  # the free variable occurrences met

    def go(t: Term, env: dict[str, str], depth: int) -> Term:
        match t:
            case Var(name):
                if name in env:
                    return Var(env[name])
                free.append(name)
                return t
            case Const() | Sort():
                return t
            case App(fn, arg):
                return App(go(fn, env, depth), go(arg, env, depth))
            case Lam(binder, binder_type, body):
                bt = go(binder_type, env, depth) if binder_type is not None else None
                fresh = fresh_name(f"${depth}", avoid)
                return Lam(fresh, bt, go(body, {**env, binder: fresh}, depth + 1))
            case Pi(binder, domain, codomain):
                dom = go(domain, env, depth)
                fresh = fresh_name(f"${depth}", avoid)
                return Pi(fresh, dom, go(codomain, {**env, binder: fresh}, depth + 1))
        raise TypeError(f"not a term: {t!r}")

    normal = go(t, {}, 0)
    # Only a free name starting with "$" can clash with a binder's. Checking
    # the free occurrences met on the way spares a free-variable pass over
    # every (usually closed) term.
    if free and any(name.startswith("$") for name in free):
        avoid = frozenset(free)
        normal = go(t, {}, 0)
    return normal


def _reference_binder_ok(name: str, table: NotationTable) -> bool:
    return (
        IDENT_RE.fullmatch(name) is not None
        and "?" not in name
        and name not in KEYWORDS
        and name not in table.word_lexemes
    )


class _ReferencePrinter:
    """The printer before notations kept their placeholders: each token
    matched against ``%n`` as it is printed, each constant looked up in the
    signature."""

    def __init__(self, signature: Signature, table: NotationTable):
        self.sig = signature
        self.table = table

    def render(self, t: Term, prec: int, right_open: bool) -> str:
        match t:
            case Sort(name):
                return name
            case Var(name):
                return name
            case Const():
                return self.const(t)
            case App():
                return self.application(t, prec, right_open)
            case Lam():
                return self.lam(t, right_open)
            case Pi():
                return self.pi(t, prec, right_open)
        raise TypeError(f"not a term: {t!r}")

    def const(self, t: Const) -> str:
        d = self.decl(t.name)
        if d is not None and d.notation is not None and d.notation.arity == 0:
            return " ".join(d.notation.tokens)
        return t.name

    def decl(self, name: str) -> Declaration | None:
        try:
            return self.sig.lookup(name)
        except DuplicateName:
            return None

    def application(self, t: App, prec: int, right_open: bool) -> str:
        head, args = spine(t)
        if isinstance(head, Const):
            d = self.decl(head.name)
            if d is not None and d.notation is not None and 0 < d.notation.arity <= len(args):
                n = d.notation
                rest = args[n.arity:]
                if not rest:
                    return self.notation(n, args, prec, right_open)
                inner = self.notation(n, args[: n.arity], APP_PREC, False)
                return self.juxtapose(inner, rest, prec, right_open)
        return self.juxtapose(self.render(head, APP_PREC, False), args, prec, right_open)

    def notation(self, n: Notation, args: list[Term], prec: int, right_open: bool) -> str:
        parts: list[str] = []
        last = len(n.tokens) - 1
        for i, tok in enumerate(n.tokens):
            index = Notation.placeholder_index(tok)
            if index is None:
                parts.append(tok)
            elif i == 0:
                parts.append(self.render(args[index - 1], n.precedence, False))
            elif i == last:
                parts.append(self.render(args[index - 1], n.precedence + 1, right_open))
            else:
                parts.append(self.render(args[index - 1], 0, True))
        text = " ".join(parts)
        open_ended = (
            Notation.placeholder_index(n.tokens[0]) is not None
            or Notation.placeholder_index(n.tokens[-1]) is not None
        )
        if open_ended and n.precedence < prec:
            return f"({text})"
        return text

    def juxtapose(self, fn: str, args: list[Term], prec: int, right_open: bool) -> str:
        if not args:
            return fn
        parts = [fn]
        for i, arg in enumerate(args):
            ro = right_open and i == len(args) - 1
            parts.append(self.render(arg, APP_PREC + 1, ro))
        text = " ".join(parts)
        if APP_PREC < prec:
            return f"({text})"
        return text

    def lam(self, t: Lam, right_open: bool) -> str:
        groups: list[str] = []
        while isinstance(t, Lam):
            t = self.fix_binder(t)
            if t.binder_type is None:
                groups.append(t.binder)
            else:
                groups.append(f"{t.binder} : {self.render(t.binder_type, 0, True)}")
            t = t.body
        text = f"[{', '.join(groups)}] {self.render(t, 0, True)}"
        if not right_open:
            return f"({text})"
        return text

    def pi(self, t: Pi, prec: int, right_open: bool) -> str:
        if t.binder not in free_vars(t.codomain):
            left = self.render(t.domain, ARROW_PREC + 1, False)
            right = self.render(t.codomain, ARROW_PREC, right_open)
            text = f"{left} -> {right}"
            if ARROW_PREC < prec:
                return f"({text})"
            return text
        groups: list[str] = []
        while isinstance(t, Pi) and t.binder in free_vars(t.codomain):
            t = self.fix_binder(t)
            groups.append(f"{t.binder} : {self.render(t.domain, 0, True)}")
            t = t.codomain
        text = f"{{{', '.join(groups)}}} {self.render(t, 0, True)}"
        if not right_open:
            return f"({text})"
        return text

    def fix_binder(self, t: Lam | Pi) -> Lam | Pi:
        if _reference_binder_ok(t.binder, self.table):
            return t
        body = t.body if isinstance(t, Lam) else t.codomain
        fresh = fresh_name("x", free_vars(body) | constants(body))
        renamed = substitute(body, t.binder, Var(fresh))
        if isinstance(t, Lam):
            return Lam(fresh, t.binder_type, renamed)
        return Pi(fresh, t.domain, renamed)


def reference_print_term(signature: Signature, t: Term, prec: int = 0,
                         right_open: bool = True) -> str:
    """`print_term` as it was before notations kept their placeholders, at
    any precedence and openness to the right; the defaults are the top's."""
    return _ReferencePrinter(signature, notation_table(signature)).render(t, prec, right_open)


def reference_apply_view(graph: TheoryGraph, view: View, t: Term) -> Term:
    """Homomorphic translation along the view; the result is NOT normalized.

    `glf.modsys.apply_view` as it was before it remembered images, kept
    verbatim as an oracle.
    """
    source = graph.flatten(view.source)
    assignments = graph.merged_assignments(view)

    def go(t: Term) -> Term:
        match t:
            case Const(name):
                d = source.lookup(name)
                if d is None:
                    return t
                if d.qualified in assignments:
                    return assignments[d.qualified]
                if d.definiens is not None:
                    return go(d.definiens)
                raise PartialView(d.name)
            case Var() | Sort():
                return t
            case App(fn, arg):
                return App(go(fn), go(arg))
            case Lam(binder, binder_type, body):
                bt = go(binder_type) if binder_type is not None else None
                return Lam(binder, bt, go(body))
            case Pi(binder, domain, codomain):
                return Pi(binder, go(domain), go(codomain))
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def cyclic_garbage(fn) -> int:
    """The number of unreachable objects `fn()` leaves for the cyclic
    collector: what a collection finds afterwards, with the collector off
    while `fn` runs and every unreachable object saved rather than freed.

    Garbage already there is collected first; the collector's state is
    restored however `fn` ends.
    """
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return len(gc.garbage) - before
    finally:
        del gc.garbage[before:]
        gc.set_debug(flags)
        if was_enabled:
            gc.enable()



def reference_infer_type(sig: Signature, ctx: Context, t: Term) -> Term:
    """β-normal type of `t` under standard LF rules.

    The recursive checker `glf.kernel.infer_type` was before it shared work
    through a `Checker`, kept verbatim as an oracle (its recursive calls
    renamed, and `_fail` written as the `raise` it was).
    """
    match t:
        case Sort("type"):
            return KIND
        case Sort():
            raise TypeError_(f"{show(t)} has no classifier")
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None:
                raise UnknownConstant(f"unbound variable {name}")
            return normalize(sig, ty)
        case Const(name):
            d = sig.lookup(name)
            if d is None:
                raise UnknownConstant(f"unknown constant {name}")
            if d.type_ is not None:
                return normalize(sig, d.type_)
            return reference_infer_type(sig, EMPTY, d.definiens)
        case App(fn, arg):
            fn_type = whnf(sig, reference_infer_type(sig, ctx, fn), delta="full")
            if not isinstance(fn_type, Pi):
                raise NotAFunction(
                    f"{show(fn)} of type {show(fn_type)} is applied to {show(arg)}"
                )
            reference_check_type(sig, ctx, arg, fn_type.domain)
            return normalize(sig, substitute(fn_type.codomain, fn_type.binder, arg))
        case Lam(binder, binder_type, body):
            if binder_type is None:
                raise UntypedBinder(
                    f"cannot infer the type of [{binder}] without an annotation"
                )
            _reference_check_is_type(sig, ctx, binder_type)
            binder, body = rename_away(binder, body, ctx.names())
            body_type = reference_infer_type(sig, ctx.extend(binder, binder_type), body)
            return Pi(binder, normalize(sig, binder_type), body_type)
        case Pi(binder, domain, codomain):
            _reference_check_is_type(sig, ctx, domain)
            binder, codomain = rename_away(binder, codomain, ctx.names())
            sort = reference_infer_type(sig, ctx.extend(binder, domain), codomain)
            if not isinstance(sort, Sort):
                raise TypeMismatch("type or kind", show(sort), show(t))
            return sort
    raise TypeError(f"not a term: {t!r}")


def reference_check_type(sig: Signature, ctx: Context, t: Term, expected: Term) -> None:
    """Check `t` against `expected`, pushing Π domains into unannotated λs."""
    expected_w = whnf(sig, expected, delta="full")
    if isinstance(t, Lam) and isinstance(expected_w, Pi):
        if t.binder_type is not None and not def_eq(sig, t.binder_type, expected_w.domain):
            raise TypeMismatch(show(expected_w.domain), show(t.binder_type),
                               f"binder [{t.binder}]")
        binder, body = rename_away(t.binder, t.body, ctx.names())
        body_expected = substitute(expected_w.codomain, expected_w.binder, Var(binder))
        reference_check_type(sig, ctx.extend(binder, expected_w.domain), body, body_expected)
        return
    actual = reference_infer_type(sig, ctx, t)
    if not def_eq(sig, actual, expected):
        raise TypeMismatch(show(expected), show(actual), show(t))


def _reference_check_is_type(sig: Signature, ctx: Context, t: Term) -> None:
    sort = reference_infer_type(sig, ctx, t)
    if sort != TYPE:
        raise TypeMismatch("a type", f"{show(t)} : {show(sort)}", show(t))


# --- random well-typed terms -------------------------------------------------

def _peel(ty: Term) -> tuple[list[Term], Term]:
    args = []
    while isinstance(ty, Pi):
        args.append(ty.domain)
        ty = ty.codomain
    return args, ty


@st.composite
def typed_terms(
    draw, sig: Signature, target: Term | None = None, depth: int = 4,
    bases: tuple[Term, Term] = (O, I),
):
    """A random term of the given (simple) type over `sig`, with binders annotated."""
    prop, ind = bases
    if target is None:
        target = draw(st.sampled_from([prop, ind, arrow(ind, prop), arrow(prop, prop)]))
    return _gen(draw, sig, target, (), depth, 0, bases)


def _gen(draw, sig: Signature, target: Term, ctx: tuple, depth: int, fresh: int,
         bases: tuple[Term, Term] = (O, I)) -> Term:
    heads: list[tuple[Term, list[Term]]] = []
    for d in sig:
        if d.type_ is None:
            continue
        args, result = _peel(d.type_)
        if alpha_eq(result, target) and (depth > 0 or not args):
            heads.append((Const(d.name), args))
    for name, ty in ctx:
        args, result = _peel(ty)
        if alpha_eq(result, target) and (depth > 0 or not args):
            heads.append((Var(name), args))

    options: list[str] = []
    if heads:
        options.append("head")
    if isinstance(target, Pi) and depth > 0:
        options.append("lam")
    if depth > 1:
        options.append("redex")
    if not options:
        # dead end: fall back to an η-style lambda chain down to a base head
        if isinstance(target, Pi):
            options = ["lam"]
        else:  # pragma: no cover - the test signatures always inhabit o and ι
            raise AssertionError(f"uninhabited target in generator: {target}")

    choice = draw(st.sampled_from(sorted(options)))
    if choice == "lam":
        name = f"v{fresh}"
        body = _gen(draw, sig, target.codomain, ctx + ((name, target.domain),),
                    depth - 1, fresh + 1, bases)
        return Lam(name, target.domain, body)
    if choice == "redex":
        dom = draw(st.sampled_from(list(bases)))
        name = f"v{fresh}"
        body = _gen(draw, sig, target, ctx + ((name, dom),), depth - 1, fresh + 1, bases)
        argument = _gen(draw, sig, dom, ctx, depth - 1, fresh + 1, bases)
        return App(Lam(name, dom, body), argument)
    head, arg_types = draw(st.sampled_from(heads))
    args = [_gen(draw, sig, a, ctx, depth - 1, fresh, bases) for a in arg_types]
    return app(head, *args)


# --- random untyped terms ---------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "w"])
_consts = st.sampled_from(["c", "f", "g"])


def untyped_terms(max_depth: int = 5):
    return st.recursive(
        st.one_of(_names.map(Var), _consts.map(Const)),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: App(*p)),
            st.tuples(_names, sub).map(lambda p: Lam(p[0], None, p[1])),
            st.tuples(_names, sub, sub).map(lambda p: Pi(p[0], p[1], p[2])),
        ),
        max_leaves=max_depth * 3,
    )


#: Names that collide with `alpha_normal`'s canonical binders and `arrow`'s.
_clashing_names = st.sampled_from(["x", "y", "$0", "$1", "$0'", "_"])


def clashing_terms(max_depth: int = 5):
    """Untyped terms whose variables, bound or free, may be named like the
    binders `alpha_normal` and `arrow` choose; binders may be annotated."""
    return st.recursive(
        st.one_of(_clashing_names.map(Var), _consts.map(Const)),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: App(*p)),
            st.tuples(_clashing_names, st.none() | sub, sub).map(lambda p: Lam(*p)),
            st.tuples(_clashing_names, sub, sub).map(lambda p: Pi(*p)),
        ),
        max_leaves=max_depth * 3,
    )


def alpha_variant(t: Term, rng) -> Term:
    """An α-variant of `t`: now and then a binder is primed until it is
    fresh for its body, and its occurrences with it."""
    if isinstance(t, App):
        return App(alpha_variant(t.fn, rng), alpha_variant(t.arg, rng))
    if isinstance(t, (Lam, Pi)):
        binder, first, body = (getattr(t, field) for field in t.__match_args__)
        first = first if first is None else alpha_variant(first, rng)
        body = alpha_variant(body, rng)
        if rng.random() < 0.5:
            binder, body = rename_away(binder, body, {binder})
        return type(t)(binder, first, body)
    return t


def signature_terms(sig: Signature, max_leaves: int = 12):
    """Terms, not necessarily well typed, over the constants of `sig` by
    plain and by qualified name, and over names it does not declare.

    Heads take any number of arguments, fewer or more than their notation
    has places. Binders may be named like a keyword, a notation's word or
    an `alpha_normal` binder, which the printer must rename.
    """
    words = {t for d in sig if d.notation for t in d.notation.tokens if IDENT_RE.fullmatch(t)}
    names = sorted({d.name for d in sig} | {d.qualified for d in sig} | {"unknown", "T?unknown"})
    binders = st.sampled_from(sorted({"x", "y", "x'", "$0", "type"} | words))
    consts = st.sampled_from(names).map(Const)
    leaves = st.one_of(consts, binders.map(Var), st.just(TYPE))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(consts | sub, st.lists(sub, min_size=1, max_size=4))
            .map(lambda p: app(p[0], *p[1])),
            st.tuples(binders, st.none() | sub, sub).map(lambda p: Lam(*p)),
            st.tuples(binders, sub, sub).map(lambda p: Pi(*p)),
        ),
        max_leaves=max_leaves,
    )


# --- exhaustive abstract syntax trees ----------------------------------------

def enumerate_asts(grammar, category: str, depth: int) -> list[Term]:
    """Every tree of the category whose height is at most `depth`."""
    import itertools

    if depth <= 0:
        return []
    out: list[Term] = []
    for f in grammar.funs:
        if f.result != category:
            continue
        pools = [enumerate_asts(grammar, a, depth - 1) for a in f.args]
        for combo in itertools.product(*pools):
            out.append(app(Const(f.name), *combo))
    return out


# --- a tiny propositional logic with a truth-table oracle ---------------------

PROP_ATOMS = tuple(f"p{i}" for i in range(1, 9))

PROP_THEORY = """
theory TinyProp =
  prop : type # o ;
  and : o -> o -> o # %1 ∧ %2 prec 10 ;
  or : o -> o -> o # %1 ∨ %2 prec 9 ;
  impl : o -> o -> o # %1 ⇒ %2 prec 8 ;
  neg : o -> o # ¬ %1 prec 20 ;
  both : o -> o -> o = [a : o, b : o] a ∧ b ;
""" + "\n".join(f"  {a} : o ;" for a in PROP_ATOMS) + """
end
"""


def prop_signature():
    """The eight-atom propositional signature the oracle tests run over."""
    from glf.modsys import TheoryGraph, parse_theory_file
    from glf.tableau import LogicSignature

    g = TheoryGraph()
    parse_theory_file(g, PROP_THEORY)
    return LogicSignature(
        g.flatten("TinyProp"),
        {"and": "and", "or": "or", "neg": "neg", "impl": "impl"},
    )


def evaluate(t: Term, assignment: dict) -> bool:
    """Classical truth-table semantics; shares nothing with the tableau."""
    head, args = spine(t)
    assert isinstance(head, Const)
    if head.name == "and" and len(args) == 2:
        return evaluate(args[0], assignment) and evaluate(args[1], assignment)
    if head.name == "or" and len(args) == 2:
        return evaluate(args[0], assignment) or evaluate(args[1], assignment)
    if head.name == "impl" and len(args) == 2:
        return (not evaluate(args[0], assignment)) or evaluate(args[1], assignment)
    if head.name == "neg" and len(args) == 1:
        return not evaluate(args[0], assignment)
    assert not args, f"unexpected compound atom {t}"
    return assignment[head.name]


def atoms_in(t: Term) -> set:
    head, args = spine(t)
    assert isinstance(head, Const)
    if head.name in ("and", "or", "impl", "neg"):
        return set().union(*(atoms_in(a) for a in args))
    return {head.name}


def assignments(names):
    import itertools

    ordered = sorted(names)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, bits))


def satisfiable(t: Term) -> bool:
    return any(evaluate(t, a) for a in assignments(atoms_in(t)))


def random_formula(rng, depth: int) -> Term:
    """A connective tree over the eight atoms, at most `depth` levels deep."""
    if depth == 0 or rng.random() < 0.3:
        return Const(rng.choice(PROP_ATOMS))
    shape = rng.choice(("and", "or", "impl", "neg"))
    if shape == "neg":
        return app(Const("neg"), random_formula(rng, depth - 1))
    return app(
        Const(shape),
        random_formula(rng, depth - 1),
        random_formula(rng, depth - 1),
    )


# --- the reference tableau loop ------------------------------------------------
#
# `glf.tableau`'s saturation and update as they stood before saturation ran
# over a worklist and readings were grouped modulo AC of ∧ and ∨. Kept
# verbatim, but for the names and the branch's literal map, as oracles:
# `reference_saturate` rescans every branch per step and rebuilds both
# tuples, `reference_with_literal` looks for an α-equal atom literal by
# literal, and `reference_update` saturates every α-distinct reading.

def reference_with_literal(branch, lit, rest):
    from dataclasses import replace

    from glf.tableau import BOTTOM, TOP, Branch

    # The designated atoms carry their truth value with them.
    if lit.atom == TOP:
        return replace(branch, pending=rest, closed=not lit.positive)
    if lit.atom == BOTTOM:
        return replace(branch, pending=rest, closed=lit.positive)
    for known in branch.literals.values():
        if reference_alpha_eq(known.atom, lit.atom):
            return replace(branch, pending=rest, closed=known.positive != lit.positive)
    return Branch({**branch.literals, reference_alpha_normal(lit.atom): lit}, rest)


def reference_expand_step(state):
    from dataclasses import replace

    from glf.tableau import _classify

    for i, branch in enumerate(state.branches):
        if not branch.closed and branch.pending:
            break
    else:
        return state

    t, rest = branch.pending[0], branch.pending[1:]
    kind, parts = _classify(state.signature, t)
    if kind == "alpha":
        new = (replace(branch, pending=tuple(parts) + rest),)
        note = f"α-expand on branch {i} ({len(parts)} part(s))"
    elif kind == "beta":
        new = tuple(replace(branch, pending=(p,) + rest) for p in parts)
        note = f"β-split on branch {i}"
    else:
        new = (reference_with_literal(branch, parts, rest),)
        note = f"literal on branch {i}" + (" -- closed" if new[0].closed else "")

    return replace(
        state,
        branches=state.branches[:i] + new + state.branches[i + 1:],
        history=state.history + (note,),
    )


def _reference_needs_work(state) -> bool:
    return any(not b.closed and b.pending for b in state.branches)


def reference_saturate(state):
    from dataclasses import replace

    steps = 0
    while steps < state.step_budget and _reference_needs_work(state):
        state = reference_expand_step(state)
        steps += 1
    return replace(state, exhausted=_reference_needs_work(state))


def reference_update(state, readings):
    from dataclasses import replace

    from glf.errors import EmptyReadings, IllTypedAxiom, nesting_limit
    from glf.kernel import alpha_normal
    from glf.tableau import ground_quantifiers

    with nesting_limit("a reading"):
        readings = tuple(readings)
        if not readings:
            raise EmptyReadings("a sentence must have at least one reading")
        flat = state.signature.flat

        distinct: dict[Term, None] = {}
        for r in readings:
            try:
                reference_check_type(flat, EMPTY, r, Const(state.signature.proposition_type))
            except TypeError_ as err:
                raise IllTypedAxiom(f"reading is not a proposition: {err}") from err
            distinct.setdefault(alpha_normal(normalize(flat, r)))
        grounded = [ground_quantifiers(state.signature, n) for n in distinct]

        branches = tuple(
            replace(b, pending=b.pending + (g,))
            for g in grounded
            for b in state.open_branches
        )
        state = replace(
            state,
            branches=branches,
            history=state.history
            + (f"update with {len(distinct)} reading(s) over {len(state.open_branches)} branch(es)",),
        )
        state = reference_saturate(state)
        return replace(state, branches=state.open_branches)


def reference_ac_key(signature, t: Term, memo: dict):
    """`glf.tableau._ac_key` as it was before a chain merged in the memoized
    keys of its same-role operands: each reading's chains flattened again."""
    key = memo.get(t)
    if key is None:
        key = memo[t] = _reference_new_ac_key(signature, t, memo)
    return key


def _reference_new_ac_key(signature, t: Term, memo: dict):
    from collections import Counter

    role, args = signature.connective(t)
    if role == "and" or role == "or":
        operands = Counter()
        todo = list(args)
        while todo:
            part = todo.pop()
            part_role, part_args = signature.connective(part)
            if part_role == role:
                todo.extend(part_args)
                continue
            key = reference_ac_key(signature, part, memo)
            if type(key) is tuple and key[0] == role:  # ¬¬ around a chain
                operands.update(dict(key[1]))
            else:
                operands[key] += 1
        return role, frozenset(operands.items())
    if role == "neg":
        inner = reference_ac_key(signature, args[0], memo)
        if type(inner) is tuple and inner[0] == "neg":
            return inner[1]
        return "neg", inner
    if role == "impl":
        return ("impl", reference_ac_key(signature, args[0], memo),
                reference_ac_key(signature, args[1], memo))
    if role is not None:  # a quantifier: only a λ's body is a formula
        body = args[0]
        if isinstance(body, Lam):
            return role, ("λ", body.binder, body.binder_type,
                          reference_ac_key(signature, body.body, memo))
        return role, body
    return t


def reference_reading_classes(signature, readings) -> list[Term]:
    """The readings `update_belief_state` grounds, as it chose them before
    only one reading per AC class was α-normalized: every reading
    normalized and α-normalized, then keyed, the first of each key kept."""
    from glf.kernel import Normalizer, alpha_normal

    normal = Normalizer(signature.flat)
    keys: dict = {}
    classes: dict = {}
    for r in readings:
        n = alpha_normal(normal(r))
        classes.setdefault(reference_ac_key(signature, n, keys), n)
    return list(classes.values())


def reference_extract_models(state):
    """`extract_models` as it was before literals were keyed once per branch
    and printed through the notation table's memo."""
    flat = state.signature.flat
    texts: dict[Term, str] = {}

    def key(lit) -> tuple[int, str]:
        text = texts.get(lit.atom)
        if text is None:
            text = texts[lit.atom] = reference_print_term(flat, lit.atom)
        return (0 if lit.positive else 1, text)

    models = []
    seen: set[tuple[tuple[int, str], ...]] = set()
    for branch in state.branches:
        if branch.closed:
            continue
        lits = tuple(sorted(branch.literals.values(), key=key))
        fingerprint = tuple(map(key, lits))
        if fingerprint not in seen:
            seen.add(fingerprint)
            models.append(lits)
    return tuple(models)


CLI_MODULE = "glf.shell.cli"


def run_cli(*args, module=CLI_MODULE):
    """Run the `glf` command in a child process, from the imported `glf`.

    This is what the installed `glf` console script does, but it runs the
    package under test rather than whatever `glf` is on PATH, and needs no
    install. `module` is the one `python -m` runs.
    """
    source_root = str(Path(glf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def benchmark_workload(name: str, seed: int):
    """A `perfbench` workload's sessions of sentences, from its `workloads`
    module, which is read and never changed."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads

    return workloads.WORKLOADS[name](seed)


# --- the reference chart parser ------------------------------------------------
#
# The Earley parser as it stood before it ran on the CFG's integer tables,
# kept as an oracle for `glf.grammar.earley`. `_reference_run`,
# `_reference_nullable` and `reference_parse_tokens_before` are that code
# verbatim, except that the productions by left-hand side and the start
# symbols, which the CFG no longer provides as `NT` lists, are computed here.
#
# `reference_parse_tokens_before` memoizes a span's trees even when working
# them out ran into a span open further up, so a cycle through such a span
# can lose trees, every tree of an accepted input included.
# `reference_parse_tokens` is the same code with one rule changed: a span's
# trees are kept only if no request made while working them out ran into an
# open span, except the span's own productions asking for the span itself.
# It returns exactly the trees in which no (nonterminal, span) repeats on a
# root-to-leaf path, and the trees `reference_parse_tokens_before` returns
# are among them.

def _reference_match(terminal: str, word: str, pos: int) -> bool:
    return terminal == word or (pos == 0 and terminal.lower() == word.lower())


def _reference_expansions(cfg) -> dict:
    by_lhs: dict = {}
    for p in cfg.productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    return by_lhs


def _reference_start_symbols(cfg) -> list:
    return [nt for nt in _reference_expansions(cfg) if nt.cat == cfg.start]


def _reference_nullable(cfg) -> frozenset:
    nullable: set = set()
    changed = True
    while changed:
        changed = False
        for p in cfg.productions:
            if p.lhs in nullable:
                continue
            if all(not isinstance(it, str) and it[0] in nullable for it in p.rhs):
                nullable.add(p.lhs)
                changed = True
    return frozenset(nullable)


def _reference_run(cfg, tokens: list[str]) -> dict:
    """Return completed spans: (nonterminal, start) -> sorted end positions."""
    n = len(tokens)
    nullable = _reference_nullable(cfg)
    prods = cfg.productions
    by_lhs: dict = {}
    for idx, p in enumerate(prods):
        by_lhs.setdefault(p.lhs, []).append(idx)

    charts: list[dict[tuple[int, int, int], None]] = [{} for _ in range(n + 1)]
    completed: dict = {}

    def add(pos: int, item: tuple[int, int, int]) -> bool:
        if item in charts[pos]:
            return False
        charts[pos][item] = None
        return True

    for s in _reference_start_symbols(cfg):
        for idx in by_lhs.get(s, []):
            add(0, (idx, 0, 0))

    for pos in range(n + 1):
        work = list(charts[pos])
        k = 0
        while k < len(work):
            idx, dot, origin = work[k]
            k += 1
            p = prods[idx]
            if dot < len(p.rhs):
                it = p.rhs[dot]
                if isinstance(it, str):
                    if pos < n and _reference_match(it, tokens[pos], pos):
                        add(pos + 1, (idx, dot + 1, origin))
                    continue
                child = it[0]
                for cidx in by_lhs.get(child, []):
                    if add(pos, (cidx, 0, pos)):
                        work.append((cidx, 0, pos))
                if child in nullable and add(pos, (idx, dot + 1, origin)):
                    work.append((idx, dot + 1, origin))
            else:
                ends = completed.setdefault((p.lhs, origin), [])
                if pos not in ends:
                    ends.append(pos)
                # origin < pos leaves charts[origin] frozen; origin == pos is
                # covered by the nullable pre-advance above.
                for i2, d2, o2 in list(charts[origin]):
                    p2 = prods[i2]
                    if d2 < len(p2.rhs):
                        it2 = p2.rhs[d2]
                        if not isinstance(it2, str) and it2[0] == p.lhs:
                            if add(pos, (i2, d2 + 1, o2)):
                                work.append((i2, d2 + 1, o2))

    for ends in completed.values():
        ends.sort()
    return completed


def reference_recognize(cfg, tokens: list[str]) -> bool:
    completed = _reference_run(cfg, tokens)
    n = len(tokens)
    return any(n in completed.get((s, 0), ()) for s in _reference_start_symbols(cfg))


def reference_parse_tokens(cfg, tokens: list[str]) -> list[Term]:
    """All abstract syntax trees deriving `tokens`, deduplicated, in grammar order."""
    completed = _reference_run(cfg, tokens)
    n = len(tokens)
    expansions = _reference_expansions(cfg)
    memo: dict = {}
    opened: dict = {}  # open span -> its depth
    hits: list = []  # (depth of the open span asked for, depth of the asker)

    def parses(nt, i: int, j: int) -> list[Term]:
        key = (nt, i, j)
        if key in opened:
            hits.append((opened[key], len(opened) - 1))
            return []
        if key in memo:
            return memo[key]
        depth = opened[key] = len(opened)
        first_hit = len(hits)
        found: list[Term] = []
        for p in expansions.get(nt, []):
            for bound in splits(p, 0, i, j):
                args: list[Term | None] = [None] * p.arity
                for argi, sub in bound:
                    args[argi] = sub
                t: Term = Const(p.fun)
                for a in args:
                    t = App(t, a)
                found.append(t)
        result = list(dict.fromkeys(found))
        del opened[key]
        outer = [(d, asker) for d, asker in hits[first_hit:] if d < depth]
        keep = all(d > depth or d == asker == depth for d, asker in hits[first_hit:])
        hits[first_hit:] = outer
        if keep:
            memo[key] = result
        return result

    def splits(p, m: int, x: int, j: int):
        """Bind p.rhs[m:] to tokens[x:j]; yield ((arg index, tree), ...)."""
        if m == len(p.rhs):
            if x == j:
                yield ()
            return
        it = p.rhs[m]
        if isinstance(it, str):
            if x < j and _reference_match(it, tokens[x], x):
                yield from splits(p, m + 1, x + 1, j)
            return
        child, argi = it
        for y in completed.get((child, x), ()):
            if y > j:
                break
            subs = parses(child, x, y)
            if not subs:
                continue
            tails = list(splits(p, m + 1, y, j))
            for sub in subs:
                for tail in tails:
                    yield ((argi, sub),) + tail

    results: list[Term] = []
    for s in _reference_start_symbols(cfg):
        if n in completed.get((s, 0), ()):
            results.extend(parses(s, 0, n))
    return list(dict.fromkeys(results))



def reference_parse_tokens_before(cfg, tokens: list[str]) -> list[Term]:
    """All abstract syntax trees deriving `tokens`, deduplicated, in grammar order."""
    completed = _reference_run(cfg, tokens)
    n = len(tokens)
    expansions = _reference_expansions(cfg)
    memo: dict = {}

    def parses(nt, i: int, j: int) -> list[Term]:
        key = (nt, i, j)
        if key in memo:
            cached = memo[key]
            return [] if cached is None else cached  # None marks a cycle
        memo[key] = None
        found: list[Term] = []
        for p in expansions.get(nt, []):
            for bound in splits(p, 0, i, j):
                args: list[Term | None] = [None] * p.arity
                for argi, sub in bound:
                    args[argi] = sub
                t: Term = Const(p.fun)
                for a in args:
                    t = App(t, a)
                found.append(t)
        result = list(dict.fromkeys(found))
        memo[key] = result
        return result

    def splits(p, m: int, x: int, j: int):
        """Bind p.rhs[m:] to tokens[x:j]; yield ((arg index, tree), ...)."""
        if m == len(p.rhs):
            if x == j:
                yield ()
            return
        it = p.rhs[m]
        if isinstance(it, str):
            if x < j and _reference_match(it, tokens[x], x):
                yield from splits(p, m + 1, x + 1, j)
            return
        child, argi = it
        for y in completed.get((child, x), ()):
            if y > j:
                break
            subs = parses(child, x, y)
            if not subs:
                continue
            tails = list(splits(p, m + 1, y, j))
            for sub in subs:
                for tail in tails:
                    yield ((argi, sub),) + tail

    results: list[Term] = []
    for s in _reference_start_symbols(cfg):
        if n in completed.get((s, 0), ()):
            results.extend(parses(s, 0, n))
    return list(dict.fromkeys(results))


# --- the reference grammar-file parser ------------------------------------------
#
# `glf.grammar.files` as it stood before it parsed a token stream: four
# character scanners over the text and a second lexer for lin rules. Kept
# verbatim, but for the name of the entry point, as an oracle for
# `parse_grammar_file`. It raises `IndexError` on a lin rule with nothing
# before its `=`.

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_ABSTRACT_RE = re.compile(
    r"abstract\s+([A-Za-z_][A-Za-z0-9_']*)\s*=\s*"
    r"(?:([A-Za-z_][A-Za-z0-9_']*)\s*\*\*\s*)?\{"
)
_CONCRETE_RE = re.compile(
    r"concrete\s+([A-Za-z_][A-Za-z0-9_']*)\s+of\s+([A-Za-z_][A-Za-z0-9_']*)\s*=\s*\{"
)

ABSTRACT_SECTIONS = ("flags", "cat", "fun")
CONCRETE_SECTIONS = ("flags", "param", "lincat", "lin")


def _strip_comments(text: str) -> str:
    out: list[str] = []
    i, n = 0, len(text)
    in_string = False
    while i < n:
        ch = text[i]
        if in_string:
            out.append(ch)
            if ch == '"':
                in_string = False
            i += 1
        elif ch == '"':
            out.append(ch)
            in_string = True
            i += 1
        elif ch == "-" and text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _matching_brace(text: str, open_pos: int) -> int:
    depth = 0
    in_string = False
    for i in range(open_pos, len(text)):
        ch = text[i]
        if in_string:
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i
    raise TermSyntaxError("unbalanced braces in grammar block")


def _split_top(text: str, sep: str) -> list[str]:
    """Split on `sep` outside braces, parens, and string literals."""
    parts: list[str] = []
    depth = 0
    in_string = False
    start = 0
    for i, ch in enumerate(text):
        if in_string:
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
            if depth < 0:
                raise TermSyntaxError(f"unbalanced {ch!r} in grammar block")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _statements(body: str, sections: tuple[str, ...], where: str):
    """Yield (section, text) pairs, carrying the section keyword forward."""
    current: str | None = None
    for raw in _split_top(body, ";"):
        stmt = raw.strip()
        if not stmt:
            continue
        m = re.match(r"[A-Za-z_][A-Za-z0-9_']*", stmt)
        if m and m.group(0) in sections:
            current = m.group(0)
            stmt = stmt[m.end():].strip()
            if not stmt:
                continue
        if current is None:
            raise TermSyntaxError(
                f"{where}: expected one of {', '.join(sections)} before {stmt!r}"
            )
        yield current, stmt


def _check_name(name: str, where: str) -> str:
    name = name.strip()
    if not _NAME_RE.match(name):
        raise TermSyntaxError(f"{where}: {name!r} is not a valid name")
    return name


def _name_list(text: str, where: str) -> list[str]:
    return [_check_name(piece, where) for piece in text.split(",")]


# --- abstract blocks ----------------------------------------------------------


def _parse_abstract(name: str, base: AbstractGrammar | None, body: str) -> AbstractGrammar:
    where = f"abstract {name}"
    cats: list[str] = []
    funs: list[FunDecl] = []
    startcat: str | None = None
    for section, stmt in _statements(body, ABSTRACT_SECTIONS, where):
        if section == "flags":
            key, _, value = stmt.partition("=")
            if key.strip() != "startcat":
                raise TermSyntaxError(f"{where}: unknown flag {key.strip()!r}")
            startcat = _check_name(value, where)
        elif section == "cat":
            cats.extend(_name_list(stmt, where))
        else:
            lhs, colon, rhs = stmt.partition(":")
            if not colon:
                raise TermSyntaxError(f"{where}: fun needs a type: {stmt!r}")
            arrow_chain = [_check_name(c, where) for c in rhs.split("->")]
            for fname in _name_list(lhs, where):
                funs.append(FunDecl(fname, tuple(arrow_chain[:-1]), arrow_chain[-1]))

    if base is None:
        if startcat is None:
            raise TermSyntaxError(f"{where}: flags startcat is required")
        return AbstractGrammar(name, startcat, tuple(cats), tuple(funs))
    return AbstractGrammar(
        name,
        startcat or base.startcat,
        base.cats + tuple(cats),
        base.funs + tuple(funs),
        extends=base.name,
        own_cats=tuple(cats),
        own_funs=tuple(funs),
    )


# --- concrete blocks ----------------------------------------------------------


def _parse_lintype(text: str, where: str) -> LinType:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise TermSyntaxError(f"{where}: a lincat is a record type {{ ... }}")
    inherent: list[tuple[str, str]] = []
    s_params: tuple[str, ...] | None = None
    for field in _split_top(text[1:-1], ";"):
        field = field.strip()
        if not field:
            continue
        fname, colon, ftype = field.partition(":")
        if not colon:
            raise TermSyntaxError(f"{where}: record field needs a type: {field!r}")
        fname = _check_name(fname, where)
        chain = [_check_name(part, where) for part in ftype.split("=>")]
        if fname == "s":
            if chain[-1] != "Str":
                raise TermSyntaxError(f"{where}: the s field must end in Str")
            s_params = tuple(chain[:-1])
        else:
            if len(chain) != 1 or chain[0] == "Str":
                raise TermSyntaxError(
                    f"{where}: field {fname} must hold a single parameter value"
                )
            inherent.append((fname, chain[0]))
    if s_params is None:
        raise TermSyntaxError(f"{where}: a lincat needs an s field")
    return LinType(tuple(inherent), s_params)


_LIN_TOKEN = re.compile(
    r'"[^"\n]*"|[A-Za-z_][A-Za-z0-9_\']*|\+\+|=>|[!.{}();=]|\S'
)


def _lex_lin(text: str, where: str) -> list[str]:
    return [m.group(0) for m in _LIN_TOKEN.finditer(text)]


class _LinParser:
    """`++` binds loosest, `!` tighter, projection `.` is part of an atom."""

    def __init__(self, tokens: list[str], where: str):
        self.tokens = tokens
        self.pos = 0
        self.where = where

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise TermSyntaxError(f"{self.where}: unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise TermSyntaxError(f"{self.where}: expected {tok!r}, found {got!r}")

    def expr(self):
        e = self.select()
        while self.peek() == "++":
            self.next()
            e = Concat(e, self.select())
        return e

    def select(self):
        e = self.atom()
        while self.peek() == "!":
            self.next()
            e = Select(e, self.atom())
        return e

    def atom(self):
        tok = self.next()
        if tok.startswith('"'):
            return Literal(tok[1:-1])
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok == "table":
            self.expect("{")
            rows = []
            while True:
                ctor = self.ident()
                self.expect("=>")
                rows.append((ctor, self.expr()))
                if self.peek() == ";":
                    self.next()
                    if self.peek() == "}":
                        break
                    continue
                break
            self.expect("}")
            return Table(tuple(rows))
        if tok == "{":
            fields = []
            while True:
                fname = self.ident()
                self.expect("=")
                fields.append((fname, self.expr()))
                if self.peek() == ";":
                    self.next()
                    if self.peek() == "}":
                        break
                    continue
                break
            self.expect("}")
            return Record(tuple(fields))
        if _NAME_RE.match(tok):
            if self.peek() == ".":
                self.next()
                return ArgField(tok, self.ident())
            return Ctor(tok)
        raise TermSyntaxError(f"{self.where}: unexpected {tok!r}")

    def ident(self) -> str:
        tok = self.next()
        if not _NAME_RE.match(tok) or tok == "table":
            raise TermSyntaxError(f"{self.where}: expected a name, found {tok!r}")
        return tok

    def done(self) -> None:
        if self.pos != len(self.tokens):
            raise TermSyntaxError(
                f"{self.where}: trailing input from {self.tokens[self.pos]!r}"
            )


def _parse_lin_expr(text: str, where: str):
    parser = _LinParser(_lex_lin(text, where), where)
    e = parser.expr()
    parser.done()
    return e


def _split_rule(stmt: str, where: str) -> tuple[str, str]:
    """Split `lhs = rhs` at the first top-level `=` that is not `=>`."""
    depth = 0
    in_string = False
    for i, ch in enumerate(stmt):
        if in_string:
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
        elif ch == "=" and depth == 0 and stmt[i + 1 : i + 2] != ">":
            return stmt[:i], stmt[i + 1 :]
    raise TermSyntaxError(f"{where}: expected `=` in {stmt!r}")


def _parse_concrete(name: str, abstract: AbstractGrammar, body: str) -> ConcreteGrammar:
    where = f"concrete {name}"
    params: list[ParamType] = []
    lincats: list[tuple[str, LinType]] = []
    lins: list[LinRule] = []
    for section, stmt in _statements(body, CONCRETE_SECTIONS, where):
        if section == "flags":
            raise TermSyntaxError(f"{where}: concrete blocks take no flags")
        elif section == "param":
            lhs, rhs = _split_rule(stmt, where)
            pname = _check_name(lhs, where)
            ctors = tuple(_check_name(c, where) for c in rhs.split("|"))
            params.append(ParamType(pname, ctors))
        elif section == "lincat":
            lhs, rhs = _split_rule(stmt, where)
            lt = _parse_lintype(rhs, where)
            for cat in _name_list(lhs, where):
                if cat not in abstract.cats:
                    raise GrammarError(
                        f"{where}: lincat for unknown category {cat}"
                    )
                lincats.append((cat, lt))
        else:
            lhs, rhs = _split_rule(stmt, where)
            pieces = lhs.split()
            fname = _check_name(pieces[0], f"{where} lin")
            fun = abstract.fun(fname)  # unknown fun -> GrammarError
            args = tuple(_check_name(p, where) for p in pieces[1:])
            if len(args) != len(fun.args):
                raise GrammarError(
                    f"{where}: lin {fname} binds {len(args)} arguments, "
                    f"the fun takes {len(fun.args)}"
                )
            if len(set(args)) != len(args):
                raise TermSyntaxError(f"{where}: lin {fname} repeats an argument name")
            lins.append(LinRule(fname, args, _parse_lin_expr(rhs, f"{where} lin {fname}")))

    seen_cats = [c for c, _ in lincats]
    if len(set(seen_cats)) != len(seen_cats):
        raise GrammarError(f"{where}: a category has two lincats")
    seen_funs = [r.fun for r in lins]
    if len(set(seen_funs)) != len(seen_funs):
        raise GrammarError(f"{where}: a function has two lin rules")

    grammar = ConcreteGrammar(name, abstract.name, tuple(params), tuple(lincats), tuple(lins))
    known_params = {p.name for p in params}
    for cat, lt in lincats:
        for _, pname in lt.inherent:
            if pname not in known_params:
                raise GrammarError(f"{where}: lincat {cat} uses unknown parameter {pname}")
        for pname in lt.s_params:
            if pname not in known_params:
                raise GrammarError(f"{where}: lincat {cat} uses unknown parameter {pname}")
    return grammar


# --- whole files ----------------------------------------------------------------


def reference_parse_grammar_file(registry: GrammarRegistry, text: str) -> list[str]:
    """Parse every block in `text` into `registry`; returns the new names."""
    text = _strip_comments(text)
    added: list[str] = []
    pos = 0
    while True:
        rest = text[pos:]
        if not rest.strip():
            break
        m_abs = _ABSTRACT_RE.search(rest)
        m_conc = _CONCRETE_RE.search(rest)
        m = min(
            (m for m in (m_abs, m_conc) if m is not None),
            key=lambda m: m.start(),
            default=None,
        )
        if m is None:
            raise TermSyntaxError(
                f"unexpected text outside grammar blocks: {rest.strip()[:40]!r}"
            )
        if rest[:m.start()].strip():
            raise TermSyntaxError(
                f"unexpected text outside grammar blocks: {rest[:m.start()].strip()[:40]!r}"
            )
        open_pos = pos + m.end() - 1
        close_pos = _matching_brace(text, open_pos)
        body = text[open_pos + 1 : close_pos]
        if m is m_abs:
            name, base_name = m.group(1), m.group(2)
            base = registry.abstract(base_name) if base_name else None
            grammar = _parse_abstract(name, base, body)
        else:
            name, abstract_name = m.group(1), m.group(2)
            grammar = _parse_concrete(name, registry.abstract(abstract_name), body)
        registry.add(grammar)
        added.append(name)
        pos = close_pos + 1
    return added


# --- the reference theory-file reader ---------------------------------------------
#
# `glf.modsys.files` as it stood before it read a token stream: character
# scanners over the text, then `parse_term` on each piece. Kept verbatim, but
# for the names of the entry point and of the three helpers whose names the
# grammar reference above already uses, as an oracle for `parse_theory_file`.
# It lets a bracket inside a notation hide the `;` that ends it, so the
# notation swallows the declarations that follow.

_COMMENT = re.compile(r"//[^\n]*")
# What `_theory_strip_comments` tracks: comments, the `#` that opens a notation,
# the `;` and `end` that close it, and brackets, which hide all three.
_COMMENT_CONTEXT = re.compile(
    r"//[^\n]*|[#;()\[\]{}]|(?<![A-Za-z0-9_'])end(?![A-Za-z0-9_'])"
)
_THEORY_HEADER = re.compile(
    r"theory\s+([A-Za-z_][A-Za-z0-9_']*)\s*"
    r"(?::\s*([A-Za-z_][A-Za-z0-9_']*)\s*)?=", re.S
)
_VIEW_HEADER = re.compile(
    r"view\s+([A-Za-z_][A-Za-z0-9_']*)\s*:\s*([A-Za-z_][A-Za-z0-9_']*)"
    r"\s*->\s*([A-Za-z_][A-Za-z0-9_']*)\s*=", re.S
)
_END = re.compile(r"(?<![A-Za-z0-9_'])end(?![A-Za-z0-9_'])")
_INCLUDE = re.compile(r"include\s+([A-Za-z_][A-Za-z0-9_']*)$")
_PREC = re.compile(r"(?<![A-Za-z0-9_'])prec\s+(-?\d+)\s*$")

_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = set(_OPEN.values())


def _theory_strip_comments(text: str) -> str:
    """Drop `//` line comments; one inside a notation is a `TermSyntaxError`.

    A notation runs from a `#` outside brackets to the next `;` or `end`
    outside brackets, as `_theory_split_top` and `_END` later read it.
    """
    depth = 0
    in_notation = False
    for m in _COMMENT_CONTEXT.finditer(text):
        token = m.group()
        if token.startswith("//"):
            if in_notation:
                line = text.count("\n", 0, m.start()) + 1
                raise TermSyntaxError(
                    "`//` inside a notation would comment out the rest of the "
                    "line, including the `;` that ends it", line
                )
        elif token in _OPEN:
            depth += 1
        elif token in _CLOSE:
            depth -= 1
        elif depth == 0:
            in_notation = token == "#"
    return _COMMENT.sub("", text)


def _theory_split_top(text: str, seps: str) -> list[str]:
    """Split on separator characters occurring outside any bracket pair."""
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
        elif depth == 0 and ch in seps:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _find_top(text: str, chars: str) -> int:
    depth = 0
    for i, ch in enumerate(text):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
        elif depth == 0 and ch in chars:
            return i
    return -1


def _theory_check_name(name: str, context: str) -> str:
    name = name.strip()
    if not IDENT_RE.fullmatch(name) or "?" in name or name in KEYWORDS:
        raise TermSyntaxError(f"bad name {name!r} in {context}")
    return name


def _parse_notation(text: str, context: str) -> Notation:
    precedence = 0
    m = _PREC.search(text)
    if m:
        precedence = int(m.group(1))
        text = text[: m.start()]
    tokens = tuple(text.split())
    if not tokens:
        raise TermSyntaxError(f"empty notation in {context}")
    try:
        return Notation(tokens, precedence)
    except ValueError as e:
        raise TermSyntaxError(f"{context}: {e}") from None


def _parse_declaration(
    graph: TheoryGraph, name: str, meta: str | None,
    includes: list[str], decls: list[Declaration], segment: str,
) -> Declaration:
    cut = _find_top(segment, ":=#")
    if cut == -1:
        raise TermSyntaxError(
            f"declaration needs a type, definiens, or notation: {segment.strip()!r}"
        )
    dname = _theory_check_name(segment[:cut], f"theory {name}")
    context = f"{name}?{dname}"
    rest = segment[cut:]

    type_text = definiens_text = notation_text = None
    while rest:
        marker, rest = rest[0], rest[1:]
        nxt = _find_top(rest, "=#" if marker == ":" else "#")
        chunk, rest = (rest, "") if nxt == -1 else (rest[:nxt], rest[nxt:])
        if marker == ":":
            type_text = chunk
        elif marker == "=":
            definiens_text = chunk
        else:
            notation_text = chunk
            break
    if type_text is None and definiens_text is None:
        raise TermSyntaxError(f"declaration {dname} needs a type or a definiens")

    flat = graph.flatten(Theory(name, meta, tuple(includes), tuple(decls)))
    type_ = parse_term(flat, type_text) if type_text is not None else None
    definiens = (
        parse_term(flat, definiens_text) if definiens_text is not None else None
    )
    notation = (
        _parse_notation(notation_text, context) if notation_text is not None else None
    )

    if type_ is not None:
        sort = infer_type(flat, EMPTY, type_)
        if not isinstance(sort, Sort):
            raise TypeMismatch("a type or kind", show(sort), context)
        if definiens is not None:
            check_type(flat, EMPTY, definiens, type_)
    elif definiens is not None:
        infer_type(flat, EMPTY, definiens)

    return Declaration(dname, type_, definiens, notation)


def _parse_theory_body(
    graph: TheoryGraph, name: str, meta: str | None, body: str
) -> Theory:
    includes: list[str] = []
    decls: list[Declaration] = []
    for segment in _theory_split_top(body, ";"):
        if not segment.strip():
            continue
        m = _INCLUDE.match(segment.strip())
        if m:
            graph.theory(m.group(1))
            includes.append(m.group(1))
            continue
        decls.append(
            _parse_declaration(graph, name, meta, includes, decls, segment)
        )
    return Theory(name, meta, tuple(includes), tuple(decls))


def _parse_view_body(
    graph: TheoryGraph, name: str, source: str, target: str, body: str
) -> View:
    graph.theory(source)
    target_flat = graph.flatten(target)
    includes: list[str] = []
    assignments: list[tuple[str, Term]] = []
    for segment in _theory_split_top(body, ";"):
        if not segment.strip():
            continue
        m = _INCLUDE.match(segment.strip())
        if m:
            graph.view(m.group(1))
            includes.append(m.group(1))
            continue
        cut = _find_top(segment, "=")
        if cut == -1:
            raise TermSyntaxError(
                f"view {name}: expected `constant = term`, got {segment.strip()!r}"
            )
        lhs = segment[:cut].strip()
        if not IDENT_RE.fullmatch(lhs) or lhs in KEYWORDS:
            raise TermSyntaxError(f"view {name}: bad assignment target {lhs!r}")
        assignments.append((lhs, parse_term(target_flat, segment[cut + 1:])))
    return View(name, source, target, tuple(includes), tuple(assignments))


def reference_parse_theory_file(graph: TheoryGraph, text: str) -> list[str]:
    """Parse all blocks in `text` into `graph`; returns registered names."""
    text = _theory_strip_comments(text)
    added: list[str] = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return added
        theory_match = _THEORY_HEADER.match(text, pos)
        view_match = _VIEW_HEADER.match(text, pos) if not theory_match else None
        if not theory_match and not view_match:
            line = text.count("\n", 0, pos) + 1
            raise TermSyntaxError("expected `theory` or `view` block", line)
        header = theory_match or view_match
        end = _END.search(text, header.end())
        if not end:
            raise TermSyntaxError(f"block {header.group(1)} has no `end`")
        body = text[header.end(): end.start()]
        if theory_match:
            module = _parse_theory_body(
                graph, theory_match.group(1), theory_match.group(2), body
            )
            graph.add(module)
        else:
            module = _parse_view_body(
                graph, view_match.group(1), view_match.group(2),
                view_match.group(3), body,
            )
            graph.add(module)
            validate_view(graph, module)
        added.append(module.name)
        pos = end.end()
