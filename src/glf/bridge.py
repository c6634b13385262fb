"""From grammar to logic: language theories and semantics construction.

An abstract grammar determines a *language theory*: one type constant per
category, one function constant per syntax function, grammar extension
mirrored as a theory include. Abstract syntax trees are then literally terms
over that theory, a semantics view maps them into the target logic, and
normalization evaluates the result. `check_in_target_logic` verifies that
what comes out really lives in the target logic: no foreign constants and
no lambda residues outside higher-order argument positions. A `Fragment`
builds its logic signature and its initial belief state on first use,
and keeps them.

The trees of an ambiguous sentence often differ in one subtree only: the
Catalan(n−1) bracketings of a coordinated subject share their verb phrase.
`construct_semantics` then normalizes what their images share once, as a
context C[η] whose hole η stands for the one argument they differ in, and
each tree plugs its own argument into the context's normal form. That is
glf's one context mechanism (`glf.kernel.reduce`), which also serves the
prefixes a belief chain repeats: the normalizer mints the hole and keeps
the context or not, and `_plugged` only chooses the argument. The trees of
a context not kept (its hole heads a spine on a term not normal) are
normalized one by one. Each reading is the very node per-tree
normalization gives, binder names included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from glf.errors import BridgeError, GlfError, NameClash, nesting_limit
from glf.grammar import (
    CFG,
    AbstractGrammar,
    ConcreteGrammar,
    ast_category,
    linearize,
    parse_tokens,
    tokenize,
)
from glf.kernel import (
    TYPE,
    App,
    Const,
    Lam,
    Normalizer,
    Pi,
    Sort,
    Term,
    Var,
    alpha_normal,
    app,
    arrow,
    constants,
    free_vars,
    pi_spine,
    spine,
    whnf,
)
from glf.kernel.declarations import Declaration
from glf.modsys import Theory, TheoryGraph, View, ViewApplier, print_term
from glf.modsys.syntax import KEYWORDS
from glf.modsys.theory import LF
from glf.tableau import DEFAULT_STEP_BUDGET, BeliefState, LogicSignature, init_belief_state

# Names the theory-file syntax reserves; a grammar using one of these could
# not round-trip through the generated language theory.
RESERVED_NAMES = KEYWORDS | {LF}


def generate_language_theory(abstract: AbstractGrammar) -> Theory:
    """The theory an abstract grammar induces: cats as types, funs as constants.

    Only the grammar's own declarations appear; a base grammar becomes an
    include, so the theory graph mirrors the grammar extension graph.
    """
    decls: list[Declaration] = []
    for c in abstract.own_cats:
        if c in RESERVED_NAMES:
            raise NameClash(f"category name {c} is reserved")
        decls.append(Declaration(c, TYPE))
    for f in abstract.own_funs:
        if f.name in RESERVED_NAMES:
            raise NameClash(f"function name {f.name} is reserved")
        decls.append(
            Declaration(f.name, arrow(*(Const(a) for a in f.args), Const(f.result)))
        )
    includes = (abstract.extends,) if abstract.extends else ()
    return Theory(abstract.name, meta=LF, includes=includes, declarations=tuple(decls))


def generate_view_stub(language_theory: Theory, graph: TheoryGraph, target: str) -> str:
    """A semantics-view skeleton: every pending assignment as a comment line.

    The result is a loadable view file; filling in the commented lines one
    by one keeps it loadable until `check_totality` finally comes back empty.
    """
    flat = graph.flatten(language_theory.name)
    lines = [f"view {language_theory.name}Semantics : {language_theory.name} -> {target} ="]
    for d in flat.declarations:
        if d.definiens is None:
            lines.append(f"  // {d.name} = <fill in a {target} term> ;")
    lines.append("end")
    return "\n".join(lines) + "\n"


def term_to_ast(abstract: AbstractGrammar, t: Term) -> Term:
    """Trees already are terms over the language theory; this just checks
    that `t` is a Const/App term of some category."""
    ast_category(abstract, t)
    return t


@dataclass(frozen=True)
class Reading:
    """One meaning of one parse: the tree, its raw and normalized images."""

    ast: Term
    raw: Term
    term: Term
    in_target_logic: bool
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class Fragment:
    """A deployable unit: grammars + logic + domain theory + semantics view."""

    name: str
    abstract: AbstractGrammar
    concretes: dict[str, ConcreteGrammar]
    cfgs: dict[str, CFG]
    graph: TheoryGraph
    language_theory: Theory
    target_logic: Theory
    domain_theory: Theory
    semantics_view: View
    start_category: str
    proposition_type: str
    individual_type: str | None = None
    connectives: dict[str, str] = field(default_factory=dict)
    step_budget: int = DEFAULT_STEP_BUDGET
    knowledge: tuple[Term, ...] = ()

    @cached_property
    def logic_signature(self) -> LogicSignature:
        """The tableau-facing face of the fragment's logic."""
        return LogicSignature(
            flat=self.graph.flatten(self.domain_theory),
            connectives=dict(self.connectives),
            proposition_type=self.proposition_type,
            individual_type=self.individual_type,
        )

    @cached_property
    def initial_state(self) -> BeliefState:
        """A belief state holding exactly the fragment's world knowledge.

        It is built on first use and kept in the fragment's `__dict__`
        (a frozen dataclass without slots has one), so each session of the
        fragment, and each REPL `reset`, starts from that very state.
        Sharing is safe because neither a fragment nor a belief state is
        changed in place; an update returns a new state.
        """
        return init_belief_state(self.logic_signature, self.knowledge, step_budget=self.step_budget)

    @property
    def target_flat(self):
        return self.graph.flatten(self.semantics_view.target)

    @property
    def language_flat(self):
        return self.graph.flatten(self.language_theory)

    def languages(self) -> list[str]:
        return list(self.concretes)

    def cfg(self, language: str) -> CFG:
        if language not in self.cfgs:
            raise BridgeError(
                f"fragment {self.name} has no language {language!r}; "
                f"available: {', '.join(self.cfgs)}"
            )
        return self.cfgs[language]

    def default_language(self) -> str:
        if not self.concretes:
            raise BridgeError(f"fragment {self.name} has no concrete syntax")
        return next(iter(self.concretes))


def parse_sentence(fragment: Fragment, sentence: str, language: str | None = None,
                   category: str | None = None) -> list[Term]:
    language = language or fragment.default_language()
    cfg = fragment.cfg(language)
    if category is not None and category != fragment.start_category:
        raise BridgeError(
            f"parsing at category {category} is not supported; "
            f"the start category is {fragment.start_category}"
        )
    return parse_tokens(cfg, tokenize(sentence))


def construct_semantics(fragment: Fragment, sentence_or_ast: str | Term,
                        language: str | None = None) -> list[Reading]:
    """Parse (if needed), apply the semantics view, normalize, and gate-check.

    One Reading per parse in parse order; readings whose normal forms are
    α-equal are collapsed into the first, α-normalized only where they could
    collide (`_new_alpha_class`). The trees share one `ViewApplier`, and the
    readings one `Normalizer` and one `TargetLogicGate`, so what they share
    is translated, normalized and gate-checked once. Trees whose images
    differ in one closed argument share the rest too (`_plugged`).
    """
    with nesting_limit("the sentence"):
        if isinstance(sentence_or_ast, Term):
            asts = [term_to_ast(fragment.abstract, sentence_or_ast)]
        else:
            asts = parse_sentence(fragment, sentence_or_ast, language)
        view = ViewApplier(fragment.graph, fragment.semantics_view)
        normal = Normalizer(fragment.target_flat)
        gate = TargetLogicGate(fragment)
        raws: list[Term] = []
        for ast in asts:
            try:
                raws.append(view(ast))
            except GlfError:
                break  # raised again below, after the trees before this one
        plugged = _plugged(normal, raws)
        readings: list[Reading] = []
        buckets, skeletons = {}, {}  # see `_new_alpha_class`
        for i, ast in enumerate(asts):
            try:
                raw = raws[i] if i < len(raws) else view(ast)
                term = normal(plugged[i])
            except GlfError as err:
                failure = BridgeError(
                    f"semantics construction failed on {print_term(fragment.language_flat, ast)}: {err}"
                )
                failure.ast = ast
                raise failure from err
            if len(asts) > 1 and not _new_alpha_class(term, buckets, skeletons):
                continue
            ok, diagnostics = gate(term)
            readings.append(Reading(ast, raw, term, ok, diagnostics))
        return readings


def _new_alpha_class(term: Term, buckets: dict, skeletons: dict) -> bool:
    """Whether `term` is α-equal to no term in `buckets`, then filed by its
    `_skeleton`; only one whose bucket is taken is α-normalized, and compared."""
    bucket = buckets.setdefault(_skeleton(term, skeletons), [])
    if bucket and alpha_normal(term) in map(alpha_normal, bucket):
        return False
    bucket.append(term)
    return True


def _skeleton(t: Term, memo: dict[Term, int]) -> int:
    """A hash of `t` blind to variable and binder names; `memo` has each node's."""
    h = memo.get(t)
    if h is None:
        cls = t.__class__
        if cls is Lam or cls is Pi:
            first, body = (t.binder_type, t.body) if cls is Lam else (t.domain, t.codomain)
            h = hash((cls, first and _skeleton(first, memo), _skeleton(body, memo)))
        elif cls is Var or cls is Const or cls is Sort:
            h = hash(Var) if cls is Var else hash(t)
        else:  # an application
            h = hash((_skeleton(t.fn, memo), _skeleton(t.arg, memo)))
        memo[t] = h
    return h


def _plugged(normal: Normalizer, raws: list[Term]) -> list[Term]:
    """For each view image, a term with the same normal form, made cheaper
    to normalize by normalizing what images share once.

    Images with the same head and arity that differ in one argument, closed
    in each, form a group. The group's context is the image with that
    argument replaced by a hole η the normalizer mints. The normalizer
    normalizes the context once (`Normalizer.context`), and each member's
    term applies the context's prefix `λη. C` to the member's own argument,
    which the normalizer plugs into the context's normal form. Counted
    without the memo, the context's steps and a tree's own add up to the
    image's: the group pays for its context once, not once per tree.

    A group whose context is not kept, or raises, is dropped, and its
    images are normalized as they are.
    """
    plugged = list(raws)
    if len(raws) < 2:
        return plugged
    groups: dict[tuple[Term, int], list[tuple[int, list[Term]]]] = {}
    for i, raw in enumerate(raws):
        head, args = spine(raw)
        groups.setdefault((head, len(args)), []).append((i, args))
    for (head, _), members in groups.items():
        first = members[0][1]
        varying = {k for _, args in members[1:] for k, a in enumerate(args) if a is not first[k]}
        if len(varying) != 1:
            continue
        (k,) = varying
        if any(free_vars(args[k]) for _, args in members):
            continue
        hole = normal.hole()
        try:
            prefix = normal.context(app(head, *first[:k], hole, *first[k + 1:]), hole)
        except (GlfError, RecursionError):
            continue
        if prefix is not None:
            for i, args in members:
                plugged[i] = App(prefix, args[k])
    return plugged


def translate(fragment: Fragment, sentence: str, source: str, target: str) -> list[str]:
    """Parse in one language, linearize every tree in another."""
    asts = parse_sentence(fragment, sentence, source)
    abstract = fragment.abstract
    concrete = fragment.concretes.get(target)
    if concrete is None:
        raise BridgeError(f"fragment {fragment.name} has no language {target!r}")
    return list(dict.fromkeys(linearize(abstract, concrete, t) for t in asts))


def check_in_target_logic(fragment: Fragment, t: Term) -> tuple[bool, tuple[str, ...]]:
    """Is `t` honestly a target-logic term?

    (a) every constant must be declared in the semantics target (which
    includes the domain theory), and (b) a lambda may appear only as a
    higher-order argument: a direct argument of a constant whose declared
    type expects a function there. Binder chains under one such position
    count as that one argument.
    """
    return TargetLogicGate(fragment)(t)


class TargetLogicGate:
    """`check_in_target_logic` over one fragment, for one call.

    A gate remembers, for as long as it lives, each subterm that passed in
    a position with the same `sanctioned` flag. A pair that produced no
    diagnostic once produces none again, so skipping it leaves each term's
    diagnostics, and their order, as a fresh gate gives them. The readings
    of one sentence share one gate, and each subterm they share is checked
    once.
    """

    def __init__(self, fragment: Fragment):
        self.flat = fragment.target_flat
        self._clean: set[tuple[Term, bool]] = set()

    def __call__(self, t: Term) -> tuple[bool, tuple[str, ...]]:
        diagnostics: list[str] = []
        self._visit(t, False, diagnostics)
        return (not diagnostics, tuple(diagnostics))

    def _check_names(self, sub: Term, diagnostics: list[str]) -> None:
        for name in sorted(constants(sub)):
            if name not in self.flat:
                diagnostics.append(f"constant {name} is not in the target logic")

    def _visit(self, sub: Term, sanctioned: bool, diagnostics: list[str]) -> None:
        key = (sub, sanctioned)
        if key in self._clean:
            return
        before = len(diagnostics)
        flat = self.flat
        if isinstance(sub, Lam):
            if not sanctioned:
                diagnostics.append(
                    f"binder outside higher-order position: {print_term(flat, sub)}"
                )
            if sub.binder_type is not None:
                self._check_names(sub.binder_type, diagnostics)
            self._visit(sub.body, isinstance(sub.body, Lam) and sanctioned, diagnostics)
        elif isinstance(sub, Pi):
            self._check_names(sub, diagnostics)
        elif not isinstance(sub, (Var, Sort)):
            head, args = spine(sub)
            if isinstance(head, Const):
                d = flat.lookup(head.name)
                if d is None:
                    diagnostics.append(f"constant {head.name} is not in the target logic")
                domains = pi_spine(d and d.type_)[0]
                for i, arg in enumerate(args):
                    ok_here = (
                        isinstance(arg, Lam)
                        and i < len(domains)
                        and isinstance(whnf(flat, domains[i], delta="full"), Pi)
                    )
                    self._visit(arg, ok_here, diagnostics)
            else:
                self._visit(head, False, diagnostics)
                for arg in args:
                    self._visit(arg, False, diagnostics)
        if len(diagnostics) == before:
            self._clean.add(key)
