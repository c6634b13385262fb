"""LF type checking: bidirectional inference/checking plus proof checking.

Inference mode requires annotated λ-binders; checking mode propagates the
expected Π domain into unannotated binders (how view assignments like
`[a,b] a ∧ b` get checked). Definitional equality is β plus full δ.

All checking goes through a `Checker`, and its memo lives for one call:
`infer_type` and `check_type` build a fresh one each time, and a caller
that checks many terms over one signature (the readings of one sentence,
the axioms of a belief state, the assignments of a view) shares one
across them. Terms are interned, so an `App` already inferred in the same
context is looked up by the node itself, not inferred again. Only
successful inferences are stored, so errors are raised where and as they
would be without the memo. The type of a constant depends on the
declarations alone, so it is kept on the signature instead
(`Signature.constant_types`), and every later checker looks it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import KeysView

from glf.errors import (
    NotAFunction,
    TypeError_,
    TypeMismatch,
    UnknownConstant,
    UntypedBinder,
)
from glf.kernel.declarations import Declaration, Signature
from glf.kernel.reduce import Normalizer, def_eq, normalize, whnf
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
    rename_away,
    show,
    substitute,
)


class Context:
    """Ordered (name, type) bindings for free variables.

    `key` stands for the bindings in memo keys. It is a one-element
    frozenset, which, unlike a tuple, keeps its hash once computed: the
    bindings are hashed once, when the context is made by `extend`, and a
    lookup costs the same at any binder depth.
    """

    def __init__(self, bindings: tuple[tuple[str, Term], ...] = ()):
        self.bindings = bindings
        self._types = dict(bindings)
        self.key = frozenset((bindings,))

    def lookup(self, name: str) -> Term | None:
        return self._types.get(name)

    def extend(self, name: str, type_: Term) -> "Context":
        return Context(self.bindings + ((name, type_),))

    def names(self) -> KeysView[str]:
        return self._types.keys()

    def __contains__(self, name: str) -> bool:
        return name in self._types


EMPTY = Context()


class Checker:
    """Type inference and checking over one signature, for one call.

    A checker remembers three things, and only for as long as it lives:

    - the β-normal form of each type it has normalized, in a `Normalizer`;
    - the weak head normal form, with every δ unfolded, of each type that
      `check` or an `App`'s function type needed one of, keyed by the
      interned node. Only completed forms are stored, so a type that
      diverges raises each time it is met;
    - the inferred type of each `App` node, keyed by the context's `key`
      and the interned node. Only successful inferences are stored, so an
      ill-typed term fails at the same subterm, with the same message,
      whatever was checked before it.

    Terms checked by one checker share that work: the readings of an
    ambiguous sentence put the same subterms together in different ways,
    and each shared subterm is inferred once.

    The β-normal type of each constant looked up outlives the checker: it
    is a fact about the declarations, kept in the signature's
    `constant_types` for every later checker, and emptied when a
    declaration is added. A constant that is unknown, ambiguous or
    ill-typed is not stored, so it raises each time it is met.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self._normalize = Normalizer(sig)
        self._app_types: dict[tuple[frozenset, Term], Term] = {}
        self._whnfs: dict[Term, Term] = {}

    def _whnf(self, t: Term) -> Term:
        head = self._whnfs.get(t)
        if head is None:
            head = self._whnfs[t] = whnf(self.sig, t, delta="full")
        return head

    def infer(self, ctx: Context, t: Term) -> Term:
        """β-normal type of `t` under standard LF rules."""
        cls = t.__class__
        if cls is App:
            key = (ctx.key, t)
            ty = self._app_types.get(key)
            if ty is not None:
                return ty
            fn, arg = t.fn, t.arg
            fn_type = self._whnf(self.infer(ctx, fn))
            if not isinstance(fn_type, Pi):
                raise NotAFunction(
                    f"{show(fn)} of type {show(fn_type)} is applied to {show(arg)}"
                )
            self.check(ctx, arg, fn_type.domain)
            ty = self._normalize(substitute(fn_type.codomain, fn_type.binder, arg))
            self._app_types[key] = ty
            return ty
        if cls is Const:
            name = t.name
            types = self.sig.constant_types
            ty = types.get(name)
            if ty is None:
                d = self.sig.lookup(name)
                if d is None:
                    raise UnknownConstant(f"unknown constant {name}")
                if d.type_ is not None:
                    ty = self._normalize(d.type_)
                else:
                    ty = self.infer(EMPTY, d.definiens)
                types[name] = ty
            return ty
        if cls is Var:
            ty = ctx.lookup(t.name)
            if ty is None:
                raise UnknownConstant(f"unbound variable {t.name}")
            return self._normalize(ty)
        if cls is Lam:
            binder_type = t.binder_type
            if binder_type is None:
                raise UntypedBinder(
                    f"cannot infer the type of [{t.binder}] without an annotation"
                )
            self._check_is_type(ctx, binder_type)
            binder, body = rename_away(t.binder, t.body, ctx.names())
            body_type = self.infer(ctx.extend(binder, binder_type), body)
            return Pi(binder, self._normalize(binder_type), body_type)
        if cls is Pi:
            domain = t.domain
            self._check_is_type(ctx, domain)
            binder, codomain = rename_away(t.binder, t.codomain, ctx.names())
            sort = self.infer(ctx.extend(binder, domain), codomain)
            if not isinstance(sort, Sort):
                raise TypeMismatch("type or kind", show(sort), show(t))
            return sort
        if cls is Sort:
            if t.name == "type":
                return KIND
            raise TypeError_(f"{show(t)} has no classifier")
        raise TypeError(f"not a term: {t!r}")

    def check(self, ctx: Context, t: Term, expected: Term) -> None:
        """Check `t` against `expected`, pushing Π domains into unannotated λs."""
        sig = self.sig
        expected_w = self._whnf(expected)
        if isinstance(t, Lam) and isinstance(expected_w, Pi):
            if t.binder_type is not None and not def_eq(sig, t.binder_type, expected_w.domain):
                raise TypeMismatch(show(expected_w.domain), show(t.binder_type),
                                   f"binder [{t.binder}]")
            binder, body = rename_away(t.binder, t.body, ctx.names())
            body_expected = substitute(expected_w.codomain, expected_w.binder, Var(binder))
            self.check(ctx.extend(binder, expected_w.domain), body, body_expected)
            return
        actual = self.infer(ctx, t)
        if not def_eq(sig, actual, expected):
            raise TypeMismatch(show(expected), show(actual), show(t))

    def _check_is_type(self, ctx: Context, t: Term) -> None:
        sort = self.infer(ctx, t)
        if sort != TYPE:
            raise TypeMismatch("a type", f"{show(t)} : {show(sort)}", show(t))


def infer_type(sig: Signature, ctx: Context, t: Term) -> Term:
    """β-normal type of `t` under standard LF rules."""
    return Checker(sig).infer(ctx, t)


def check_type(sig: Signature, ctx: Context, t: Term, expected: Term) -> None:
    """Check `t` against `expected`, pushing Π domains into unannotated λs."""
    Checker(sig).check(ctx, t, expected)


@dataclass(frozen=True)
class ProofCheck:
    """Boolean verdict with a diagnostic; falsy when the proof is rejected."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _judgment_constant(sig: Signature, prop_type: Term, judgment: str | None) -> Declaration:
    """The `⊢`-style constant of type `P -> type` for propositions of type P."""
    if judgment is not None:
        d = sig.lookup(judgment)
        if d is None:
            raise UnknownConstant(f"unknown judgment constant {judgment}")
        return d
    candidates = []
    for d in sig:
        if d.type_ is None:
            continue
        ty = whnf(sig, d.type_, delta="full")
        if (isinstance(ty, Pi) and ty.codomain == TYPE
                and def_eq(sig, ty.domain, prop_type)):
            candidates.append(d)
    if len(candidates) != 1:
        names = ", ".join(d.name for d in candidates) or "none"
        raise TypeError_(
            f"cannot determine the judgment constant (candidates: {names}); "
            "pass judgment= explicitly"
        )
    return candidates[0]


def check_proof(sig: Signature, proof: Term, proposition: Term, *,
                judgment: str | None = None) -> ProofCheck:
    """True iff the proof's type is definitionally `⊢ proposition`."""
    try:
        checker = Checker(sig)
        prop_type = checker.infer(EMPTY, proposition)
        j = _judgment_constant(sig, prop_type, judgment)
        expected = normalize(sig, App(Const(j.name), proposition))
        actual = checker.infer(EMPTY, proof)
    except TypeError_ as e:
        return ProofCheck(False, str(e))
    if def_eq(sig, actual, expected):
        return ProofCheck(True)
    return ProofCheck(
        False, f"proof has type {show(actual)}, expected {show(expected)}"
    )
