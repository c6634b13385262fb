"""β-normalization with on-demand δ-unfolding.

δ policy:
  - "applied"  (default): a defined constant unfolds only when it heads a
    redex, i.e. it is applied and its definiens is a λ. Unapplied defined
    constants stay opaque, so normal forms keep names like `or` readable.
  - "full": every defined constant unfolds — used for definitional equality.
Without a signature, normalization is pure β.

A redex spine `(λx₁…xₖ. B) a₁…aₖ` is contracted in one walk over B that
substitutes its arguments at once (`substitute_all`). Binders are collected
only while every argument so far is closed, and up to a binder that shadows
an earlier one. A closed argument has no free variable for a binder of B to
capture, so no binder is renamed and the result is the very node k
one-binder substitutions give; an open argument is substituted alone,
renaming binders as `substitute` does. Each contraction still spends one
step. When the body left after the binders is an application spine, its
head and each of its arguments are substituted apart, and the arguments go
straight onto the argument stack: the substituted spine is never built,
only to be taken apart again. The weak head normal form is handed on as its
head and its arguments, so `norm` builds each application spine once, from
its normalized arguments.

Each term normalized gets its own step budget; exceeding it raises
NonTerminationGuard rather than silently truncating. The budget only guards
against diverging (ill-typed) inputs — well-typed LF terms normalize long
before the default 100,000 steps.

All full normalization goes through a `Normalizer`, and its memo lives
for one call: `normalize` builds a fresh one each time, and a caller that
normalizes many terms over one signature and δ policy (the readings of one
sentence and their grounding, the types the target-logic gate asks about)
shares one across them. Terms are interned, so a node normalized before is
looked up by the node itself, and each subterm the terms share is
normalized once. Only completed normal forms are stored, so a term that
diverges or is not a term raises where and as it would without the memo.

What outlives a normalizer is the set of terms known to be normal under
its signature with δ "applied", `Signature.known_normal`. A normalizer
with a signature and δ "applied" returns a term in the set as it is, and
adds to it the normal form of each closed term it is called on; δ "full"
and pure β never consult it. Normalization is idempotent by identity (the
normal form of a normal form is the very node), and a normal term spends
no step, so a lookup answers what the walk would, with the same budget
left. A hole is a free variable, and the normal form of a closed term
has none (definientia are closed), so no term that holds a hole enters
the set. Closedness is tested on the term called with, not on its normal
form: the parts of the terms `glf.bridge` plugs into a context have their
free variables cached already, and a new normal form has not. So the
update of a belief state looks up the readings `glf.bridge` has just
normalized, and a checker the types another checker has. A declaration
added to the signature empties the set.

A `Normalizer` also normalizes a context C[η] that many terms C[arg]
share, arg closed, before any arg is known. It mints each hole itself:
η0, η1, … (`Normalizer.hole`), a name no binder and no `fresh_name` can
take, so η is never renamed, it captures or forces a rename nowhere that
a closed arg would not, and no two of its contexts share one. Until η
heads a spine, C[η] and C[arg] take the same steps through the same
nodes, η for arg. There C[arg] contracts `arg a₁ … aₖ` with a₁ … aₖ as
they stand, while C[η] normalizes them; the two agree only if each aᵢ is
normal already, so the normalizer checks that `norm` gives each back as
the very node, spending no step, or raises `HoleApplied`. Counted without
the memo, the context's steps and the plugged term's add up to C[arg]'s.

One method, `Normalizer._form`, forms the context P η of a redex prefix P
met a third time with a closed last argument (a belief chain's levels)
and the contexts `Normalizer.context` keeps as prefixes `λη. C` (a
sentence's trees, see `glf.bridge`). It normalizes C[η] on a trial of its
term's budget, so a failed context charges nothing and one that runs out
raises as its term would; it catches `HoleApplied` and keeps no context,
or keeps nf(C[η]) and whether η is in the applied set: the holes the
check met at a spine head. A prefix applied to a closed arg gives
nf(C[η]) with nf(arg) for η, or, if η is applied, with arg for η,
normalized on. That second way is always correct, and the set errs only
towards it: η is unique to its context, and reaches a spine head of
nf(C[η]) only through the check (or a memo entry the check made).
Plugging the context of a redex prefix kept from before spends one step,
for the redex `P arg` it contracts: normal order spends at least that
one, and without it a term that plugs contexts into itself again and
again, like (λx. x x) (λx. Πy:(λy. x x). c), would spend no step and
overflow the stack instead of running out of budget. A prefix `λη. C`
stands for C[arg], no redex of the term, so plugging it spends none.
A Π left at the head of a spine (a Π applied: ill-typed terms only) is
normalized like any Π, so η in it is a plain free variable.
"""

from __future__ import annotations

from glf.errors import HoleApplied, NonTerminationGuard
from glf.kernel.declarations import Signature
from glf.kernel.terms import (
    App, Const, Lam, Pi, Sort, Term, Var, alpha_eq, free_vars, substitute, substitute_all,
)

DEFAULT_BUDGET = 100_000
DELTAS = ("applied", "full")


def _check_delta(delta: str) -> None:
    if delta not in DELTAS:
        raise ValueError(f"unknown δ policy {delta!r}; expected 'applied' or 'full'")


class _Budget:
    __slots__ = ("left", "total")

    def __init__(self, n: int, total: int | None = None):
        self.left = n
        self.total = n if total is None else total

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise NonTerminationGuard(
                f"reduction exceeded the step budget of {self.total}"
            )


class _NoSteps:
    left = 0  # it never spends a step

    def spend(self) -> None:  # in the hole check, a step means "not normal"
        raise HoleApplied("a hole is applied to a term not in normal form")


def _whnf(t: Term, sig: Signature | None, delta: str,
          budget: _Budget) -> tuple[Term, list[Term]]:
    """Weak head normal form, as its head and its arguments, last first;
    iterative so deep redex chains cannot overflow."""
    args: list[Term] = []
    while True:
        cls = t.__class__
        if cls is App:
            args.append(t.arg)
            t = t.fn
            continue
        if cls is Lam and args:
            budget.spend()
            arg = args.pop()
            values, avoid = {t.binder: arg}, free_vars(arg)
            t = t.body
            while (not avoid and t.__class__ is Lam and args and t.binder not in values
                   and not free_vars(args[-1])):
                budget.spend()
                values[t.binder] = args.pop()
                t = t.body
            while t.__class__ is App:
                args.append(substitute_all(t.arg, values, avoid))
                t = t.fn
            t = substitute_all(t, values, avoid)
            continue
        if cls is Const and sig is not None:
            d = sig.lookup(t.name)
            if d is not None and d.definiens is not None:
                if delta == "full" or (args and isinstance(d.definiens, Lam)):
                    budget.spend()
                    t = d.definiens
                    continue
        return t, args


def whnf(sig: Signature | None, t: Term, *, delta: str = "applied",
         budget: int = DEFAULT_BUDGET) -> Term:
    _check_delta(delta)
    t, args = _whnf(t, sig, delta, _Budget(budget))
    for a in reversed(args):
        t = App(t, a)
    return t


class Normalizer:
    """Full β(δ)-normal forms over one signature and δ policy, for one call.

    It remembers the normal form of every node it has normalized, for as
    long as it lives. Each call to it gets a fresh step budget. Memo hits
    cost no steps, so a term may spend fewer steps than it would alone,
    never more; a term that diverges exhausts its own budget whatever was
    normalized before it. With δ "applied", a call also looks the term up
    in the signature's known normal forms, and adds the normal form of a
    closed term to them; see the module docstring.

    It also forms contexts, each with a hole of its own (`hole`), and
    plugs each context it keeps wherever the context's prefix is applied
    to a closed argument; see the module docstring.
    """

    def __init__(self, sig: Signature | None, *, delta: str = "applied",
                 budget: int = DEFAULT_BUDGET):
        _check_delta(delta)
        self.sig = sig
        self.delta = delta
        self.budget = budget
        self._known = sig.known_normal if sig is not None and delta == "applied" else None
        self._normal: dict[Term, Term] = {}
        self._holes: set[Var] = set()
        self._applied: set[Var] = set()  # holes met heading a spine
        self._given: set[Term] = set()  # the prefixes `context` formed
        # prefix -> how often it headed a redex with a closed last argument,
        # then None or its context: (hole, normal form, whether the hole is
        # in the applied set).
        self._contexts: dict[Term, object] = {}

    def __call__(self, t: Term) -> Term:
        known = self._known
        if known is None:
            return self._norm(t, _Budget(self.budget))
        if t in known:
            return t
        done = self._norm(t, _Budget(self.budget))
        if not free_vars(t):
            known.add(done)
        return done

    def hole(self) -> Var:
        """A hole that no other context of this normalizer has."""
        hole = Var(f"η{len(self._holes)}")
        self._holes.add(hole)
        return hole

    def context(self, c: Term, hole: Var) -> Term | None:
        """Form the context `c` on a fresh budget; its prefix `λhole. c`, to
        be applied to closed arguments, or None where `hole`, from `hole()`,
        is applied to a term not normal."""
        prefix = Lam(hole.name, None, c)
        self._given.add(prefix)
        return prefix if self._form(prefix, c, hole, _Budget(self.budget)) else None

    def _norm(self, t: Term, bud: _Budget) -> Term:
        done = self._normal.get(t)
        if done is not None:
            return done
        if t.__class__ is App:
            seen = self._contexts.get(t.fn, 0)
            if seen and (seen.__class__ is tuple or seen == _MET) and not free_vars(t.arg):
                if seen == _MET and bud.__class__ is _Budget:
                    hole = self.hole()
                    seen = self._form(t.fn, App(t.fn, hole), hole, bud)
                elif seen.__class__ is tuple and t.fn not in self._given:
                    bud.spend()  # the redex `t` the plug contracts
                if seen.__class__ is tuple:
                    done = self._normal[t] = self._plug(seen, t.arg, bud)
                    return done
            left = bud.left
            head, args = _whnf(t, self.sig, self.delta, bud)
            if bud.left != left and seen.__class__ is int and seen < _MET and not free_vars(t.arg):
                self._contexts[t.fn] = seen + 1
        else:
            head, args = _whnf(t, self.sig, self.delta, bud)
        if args:
            if head in self._holes:
                if any(self._norm(a, _NoSteps()) is not a for a in args):
                    raise HoleApplied(f"{head.name} is applied to a term not in normal form")
                self._applied.add(head)
            done = self._norm(head, bud) if head.__class__ is Pi else head
            for a in reversed(args):
                done = App(done, self._norm(a, bud))
        else:
            cls = head.__class__
            if cls is Lam:
                bt = head.binder_type
                done = Lam(head.binder, self._norm(bt, bud) if bt is not None else None,
                           self._norm(head.body, bud))
            elif cls is Const or cls is Var or cls is Sort:
                done = head
            elif cls is Pi:
                done = Pi(head.binder, self._norm(head.domain, bud),
                          self._norm(head.codomain, bud))
            else:
                raise TypeError(f"not a term: {head!r}")
        self._normal[t] = done
        return done

    def _form(self, prefix: Term, c: Term, hole: Var, bud: _Budget) -> tuple | None:
        """Normalize the context `c` on a trial of `bud`, which a failed one
        leaves; keep and return its context, or None, under `prefix`."""
        trial = _Budget(bud.left, bud.total)
        try:
            shared = self._norm(c, trial)
        except HoleApplied:
            context = None
        else:
            bud.left = trial.left
            context = (hole, shared, hole in self._applied)
        self._contexts[prefix] = context
        return context

    def _plug(self, context: tuple, arg: Term, bud: _Budget) -> Term:
        """The normal form of the context's term with the closed `arg` for its hole."""
        hole, shared, applied = context
        if applied:
            return self._norm(substitute(shared, hole.name, arg), bud)
        if hole.name not in free_vars(shared):
            return shared  # normal order drops `arg` too
        return substitute(shared, hole.name, self._norm(arg, bud))


# A context costs a walk more than normal order, so a prefix gets one the
# third time it heads a redex: grounding meets many bodies just twice.
_MET = 2


def normalize(sig: Signature | None, t: Term, *, delta: str = "applied",
              budget: int = DEFAULT_BUDGET) -> Term:
    """Full β(δ)-normal form, unique up to α for well-typed terms."""
    return Normalizer(sig, delta=delta, budget=budget)(t)


def def_eq(sig: Signature | None, t: Term, u: Term, *,
           budget: int = DEFAULT_BUDGET) -> bool:
    """Definitional equality: α-equality of fully δ-unfolded β-normal forms."""
    if alpha_eq(t, u):
        return True
    return alpha_eq(
        normalize(sig, t, delta="full", budget=budget),
        normalize(sig, u, delta="full", budget=budget),
    )
