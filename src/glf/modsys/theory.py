"""Theories, includes, meta-theories, and views (theory morphisms).

Theories and views are immutable after construction; the `TheoryGraph`
registry resolves name references and caches flattening and each view's
merged assignments. The meta-theory `LF` is a built-in pseudo-reference
contributing no declarations; any other meta name is resolved like an
include.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Container, Mapping

from glf.errors import (
    CyclicInclude,
    DuplicateName,
    ModuleError,
    PartialView,
    UnresolvedReference,
)
from glf.kernel import (
    App,
    Const,
    Declaration,
    Lam,
    Pi,
    Signature,
    Sort,
    Term,
    Var,
    alpha_eq,
    pi_spine,
)
from glf.kernel.typecheck import EMPTY, Checker

LF = "LF"


@dataclass(frozen=True)
class Theory:
    name: str
    meta: str | None = None
    includes: tuple[str, ...] = ()
    declarations: tuple[Declaration, ...] = ()

    def __post_init__(self) -> None:
        owned = tuple(
            d if d.home == self.name else replace(d, home=self.name)
            for d in self.declarations
        )
        object.__setattr__(self, "declarations", owned)
        seen: set[str] = set()
        for d in owned:
            check_declaration(self.name, d, seen)
            seen.add(d.qualified)


def check_declaration(theory: str, d: Declaration, declared: Container[str]) -> None:
    """Reject a declaration of `theory` whose qualified name is `declared`
    already, or whose notation has more places than its type takes arguments."""
    if d.qualified in declared:
        raise DuplicateName(f"{theory} declares {d.name} twice")
    if d.notation is not None and d.type_ is not None:
        arity = len(pi_spine(d.type_)[0])
        if d.notation.arity > arity:
            raise ModuleError(
                f"{theory}?{d.name}: notation has {d.notation.arity} "
                f"placeholders but the type takes {arity} arguments"
            )


@dataclass(frozen=True)
class View:
    """A morphism: assignments from source constants to target terms."""

    name: str
    source: str
    target: str
    includes: tuple[str, ...] = ()
    assignments: tuple[tuple[str, Term], ...] = ()


class FlatTheory(Signature):
    """A flattened theory: dependency-ordered declarations with lookup."""

    def __init__(self, name: str, declarations: tuple[Declaration, ...]):
        super().__init__(declarations)
        self.name = name


class TheoryGraph:
    """Registry of theories and views; flattening is cached per theory name,
    merged assignments per view name."""

    def __init__(self) -> None:
        self.theories: dict[str, Theory] = {}
        self.views: dict[str, View] = {}
        self._flat: dict[str, FlatTheory] = {}
        self._merged: dict[str, Mapping[str, Term]] = {}

    def add(self, module: Theory | View) -> None:
        table = self.theories if isinstance(module, Theory) else self.views
        if module.name in self.theories or module.name in self.views:
            raise DuplicateName(f"module name {module.name} already registered")
        table[module.name] = module

    def theory(self, name: str) -> Theory:
        try:
            return self.theories[name]
        except KeyError:
            raise UnresolvedReference(f"unknown theory {name}") from None

    def view(self, name: str) -> View:
        try:
            return self.views[name]
        except KeyError:
            raise UnresolvedReference(f"unknown view {name}") from None

    def flatten(self, theory: str | Theory | FlatTheory) -> FlatTheory:
        if isinstance(theory, FlatTheory):
            return theory
        top = self.theory(theory) if isinstance(theory, str) else theory
        registered = self.theories.get(top.name) is top
        if registered and top.name in self._flat:
            return self._flat[top.name]

        declarations: list[Declaration] = []
        self._visit(top, declarations, set(), [])
        flat = FlatTheory(top.name, tuple(declarations))
        if registered:
            self._flat[top.name] = flat
        return flat

    def _visit(self, t: Theory, declarations: list[Declaration], done: set[str],
               visiting: list[str]) -> None:
        """Append the declarations of `t` and of all it includes, includes
        first, to `declarations`, skipping the theories in `done`."""
        if t.name in done:
            return
        if t.name in visiting:
            cycle = " -> ".join(visiting + [t.name])
            raise CyclicInclude(f"cyclic include/meta chain: {cycle}")
        visiting.append(t.name)
        for ref in ((t.meta,) if t.meta else ()) + t.includes:
            if ref != LF:
                self._visit(self.theory(ref), declarations, done, visiting)
        visiting.pop()
        done.add(t.name)
        declarations.extend(t.declarations)

    # --- view machinery -----------------------------------------------------

    def merged_assignments(self, view: View) -> Mapping[str, Term]:
        """Assignments keyed by qualified source-constant name, includes first.

        The map of a registered view is built once and shared; do not change it.
        """
        registered = self.views.get(view.name) is view
        if registered and view.name in self._merged:
            return self._merged[view.name]
        source = self.flatten(view.source)
        merged: dict[str, Term] = {}

        def absorb(name: str, term: Term, origin: str) -> None:
            d = source.lookup(name)
            if d is None:
                raise UnresolvedReference(
                    f"view {origin} assigns {name}, which is not in {source.name}"
                )
            key = d.qualified
            if key in merged and not alpha_eq(merged[key], term):
                raise DuplicateName(
                    f"view {origin} assigns {name} twice with different terms"
                )
            merged[key] = term

        for included in view.includes:
            for key, term in self.merged_assignments(self.view(included)).items():
                absorb(key, term, view.name)
        for name, term in view.assignments:
            absorb(name, term, view.name)
        if registered:
            self._merged[view.name] = merged
        return merged


def check_totality(graph: TheoryGraph, view: View) -> tuple[str, ...]:
    """Undefined source constants lacking an assignment; empty means total."""
    source = graph.flatten(view.source)
    assigned = set(graph.merged_assignments(view))
    return tuple(
        d.name for d in source
        if d.definiens is None and d.qualified not in assigned
    )


def apply_view(graph: TheoryGraph, view: View, t: Term) -> Term:
    """Homomorphic translation along the view; the result is NOT normalized.

    Assigned constants are replaced by their assignment; defined constants
    unfold and translate; constants not declared in the source pass through
    unchanged (identity on ambient symbols).
    """
    return ViewApplier(graph, view)(t)


class ViewApplier:
    """`apply_view` along one view, for one call.

    It remembers the image of every node it has translated, for as long as
    it lives. A view is a homomorphism, so a node's image does not depend
    on where the node stands, and terms are interned, so a node translated
    before is looked up by the node itself: the trees of one sentence share
    one applier, and each subtree they share is translated once. Only
    completed images are stored, so a node whose translation raises raises
    wherever it comes.
    """

    def __init__(self, graph: TheoryGraph, view: View):
        self.source = graph.flatten(view.source)
        self.assignments = graph.merged_assignments(view)
        self._image: dict[Term, Term] = {}

    def __call__(self, t: Term) -> Term:
        return self._apply(t)

    def _apply(self, t: Term) -> Term:
        # A method, not `self(...)`: a call through `__call__` costs two
        # levels of the recursion limit where a method call costs one.
        done = self._image.get(t)
        if done is not None:
            return done
        cls = t.__class__
        if cls is App:
            done = App(self._apply(t.fn), self._apply(t.arg))
        elif cls is Const:
            d = self.source.lookup(t.name)
            if d is None:
                done = t
            elif d.qualified in self.assignments:
                done = self.assignments[d.qualified]
            elif d.definiens is not None:
                done = self._apply(d.definiens)
            else:
                raise PartialView(d.name)
        elif cls is Var or cls is Sort:
            return t
        elif cls is Lam:
            bt = self._apply(t.binder_type) if t.binder_type is not None else None
            done = Lam(t.binder, bt, self._apply(t.body))
        elif cls is Pi:
            done = Pi(t.binder, self._apply(t.domain), self._apply(t.codomain))
        else:
            raise TypeError(f"not a term: {t!r}")
        self._image[t] = done
        return done


def validate_view(graph: TheoryGraph, view: View) -> None:
    """Check each assignment, inherited ones too, against the translated type.

    An included view's assignment is checked again here, because this view
    may translate its type further. Assignments whose translated type still
    mentions unassigned constants are deferred (a later totality check
    reports those); assigning to a defined constant is always an error.
    """
    source = graph.flatten(view.source)
    checker = Checker(graph.flatten(view.target))
    for key, term in graph.merged_assignments(view).items():
        d = source.lookup(key)
        if d.definiens is not None:
            raise ModuleError(
                f"view {view.name} assigns the defined constant {d.name}"
            )
        if d.type_ is None:
            continue
        try:
            expected = apply_view(graph, view, d.type_)
        except PartialView:
            continue
        checker.check(EMPTY, term, expected)
