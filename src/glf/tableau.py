"""A propositional tableau machine for semantic analysis.

A belief state tracks everything asserted so far as a set of tableau
branches; each open branch is one way the discourse could be true. Feeding
the state a new (possibly ambiguous) sentence copies every open branch for
every reading, counting readings equal modulo α and AC of ∧ and ∨ once
(and type-checking and α-normalizing only one per AC class as they stand),
then saturates:
conjunctive formulas extend a branch, disjunctive ones split it, and a
branch closes as soon as it contains an atom together with its negation.
A branch keeps its literals as one map from the α-normal form of each
atom to its literal, so spotting a clash or a repeat is one lookup.
One saturation loop, behind every entry point, steps plain ``(literals,
pending, closed)`` tuples and builds each :class:`Branch` it returns once;
the text of each history note is formatted once per rule and branch
index, and kept. What survives are the Herbrand-style models of the
discourse, read off with :func:`extract_models`, which reads each
literal map only once, however many branches share it.

An update pays for its sentence, not again for what the signature
already says: the types of its constants are looked up where the
signature keeps them (`Signature.constant_types`), and a normal formula's
λ quantifier is grounded by substituting each domain constant into its
body, with no normalization.

The machine is parameterized over the logic: a flat signature plus a map
saying which constants play the roles of the connectives. Quantifiers are
eliminated up front by grounding over the (finite) set of individual
constants, so everything after :func:`ground_quantifiers` is propositional.
Formulas whose head is none of the connectives -- for example a modal
operator -- are treated as atoms. When each connective has the boolean type
its rule assumes (`LogicSignature.boolean_connectives`), readings of one AC
class are typed alike, so one check stands for the class; for any other
logic one check stands for each repeated node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

from glf.errors import (
    EmptyReadings,
    IllTypedAxiom,
    NoDomainType,
    TableauError,
    TypeError_,
    nesting_limit,
)
from glf.kernel import (
    App, Const, Lam, Normalizer, Pi, Term, alpha_normal, app, pi_spine, spine, substitute,
)
from glf.kernel.typecheck import EMPTY, Checker
from glf.modsys import print_term
from glf.modsys.theory import FlatTheory

_ARITY = {"and": 2, "or": 2, "neg": 1, "impl": 2, "forall": 1, "exists": 1}
CONNECTIVE_ROLES = tuple(_ARITY)

#: Designated atoms produced when a quantifier is grounded over an empty
#: domain: a vacuous ∀ is true, a vacuous ∃ is false. The names are not
#: legal identifiers, so they can never collide with a declared constant.
TOP = Const("⊤")
BOTTOM = Const("⊥")

#: The expansion steps one saturation may take unless a fragment says otherwise.
DEFAULT_STEP_BUDGET = 10_000


@dataclass(frozen=True)
class LogicSignature:
    """A flat theory together with the connective vocabulary of its logic.

    ``connectives`` maps role names (from :data:`CONNECTIVE_ROLES`) to
    constant names; roles the logic lacks are simply absent. Whatever the
    map does not cover is atomic as far as the tableau is concerned.
    Whether the mapped constants have the boolean types the rules assume is
    worked out once, as `boolean_connectives`; it decides whether an update
    type-checks one reading per AC class or one per distinct node.
    """

    flat: FlatTheory
    connectives: Mapping[str, str] = field(
        default_factory=lambda: {r: r for r in CONNECTIVE_ROLES}
    )
    proposition_type: str = "prop"
    individual_type: str | None = None

    @cached_property
    def _roles(self) -> dict[str, str]:
        roles: dict[str, str] = {}
        for role, const in self.connectives.items():
            roles.setdefault(const, role)
        return roles

    @cached_property
    def boolean_connectives(self) -> bool:
        """Whether each role-mapped constant has the type its tableau rule
        assumes, over a proposition type o that no definition unfolds:
        ∧, ∨, ⇒ : o → o → o, ¬ : o → o, and ∀, ∃ : (D → o) → o for a type D.

        Then every operand a connective takes is checked against the same
        type wherever it stands, so permuting ∧/∨ operands and collapsing ¬¬
        where a formula stands, which is all `_ac_key` does, leave a term
        exactly as well typed as it was: formulas with equal keys are well
        typed together or not at all. A constant typed otherwise makes this
        false. One that is not declared is skipped, unless it is ¬: each
        formula keyed through it holds it and is ill-typed, as is each with
        its key. ¬¬A keys as A, so an undeclared ¬ makes this false.
        """
        o = Const(self.proposition_type)
        prop = self.flat.lookup(self.proposition_type)
        if prop is None or prop.definiens is not None:
            return False
        for role, name in self.connectives.items():
            decl = self.flat.lookup(name)
            if decl is None and role != "neg":
                continue
            domains, result = pi_spine(decl and decl.type_)
            if role == "forall" or role == "exists":
                expected = len(domains) == 1 and isinstance(domains[0], Pi) and domains[0].codomain == o
            else:
                expected = domains == [o] * _ARITY[role]
            if not (expected and result == o):
                return False
        return True

    def role_of(self, name: str) -> str | None:
        return self._roles.get(name)

    def connective(self, t: Term) -> tuple[str | None, list[Term]]:
        """The role of `t`'s head and its arguments, when the head is a
        connective applied to as many arguments as the role takes; else
        ``(None, [])``."""
        head, args = spine(t)
        if isinstance(head, Const):
            role = self._roles.get(head.name)
            if role is not None and len(args) == _ARITY[role]:
                return role, args
        return None, []

    @cached_property
    def _domain(self) -> tuple[Const, ...]:
        if self.individual_type is None:
            raise NoDomainType(
                "cannot ground quantifiers: the logic has no individual type"
            )
        ind = self.individual_type
        return tuple(
            Const(d.name)
            for d in self.flat
            if d.definiens is None
            and d.type_ is not None
            and isinstance(d.type_, Const)
            and d.type_.name == ind
        )

    def constant(self, role: str) -> Const:
        try:
            return Const(self.connectives[role])
        except KeyError:
            raise TableauError(
                f"the logic has no constant in the {role!r} role"
            ) from None


@dataclass(frozen=True)
class Literal:
    positive: bool
    atom: Term

    def render(self, flat: FlatTheory) -> str:
        text = print_term(flat, self.atom)
        return text if self.positive else f"¬ {text}"


@dataclass(frozen=True)
class Branch:
    """One way the discourse could be true. ``literals`` maps the α-normal
    form of each atom met to its first literal, in the order met; it is
    left out of the hash, and equality reads it as a set."""

    literals: Mapping[Term, Literal] = field(default_factory=dict, hash=False)
    pending: tuple[Term, ...] = ()
    closed: bool = False


@dataclass(frozen=True)
class BeliefState:
    signature: LogicSignature
    world_knowledge: tuple[Term, ...]
    branches: tuple[Branch, ...]
    history: tuple[str, ...]
    step_budget: int = DEFAULT_STEP_BUDGET
    exhausted: bool = False

    @property
    def open_branches(self) -> tuple[Branch, ...]:
        return tuple(b for b in self.branches if not b.closed)


def _fold(connective: Const, parts: list[Term]) -> Term:
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = App(App(connective, part), result)
    return result


def ground_quantifiers(signature: LogicSignature, t: Term) -> Term:
    """Replace quantifiers by finite conjunctions/disjunctions, outside in.

    A universal becomes the conjunction of its instances over every
    individual constant in the signature, an existential the disjunction;
    over an empty domain they become the designated true/false atoms.
    Each instance is normalized (see `_ground`). Quantifiers buried inside
    atoms (e.g. under a modal operator) are left alone -- such subterms are
    opaque to a propositional tableau anyway.
    """
    return _ground(signature, t, Normalizer(signature.flat), False)


def _ground(signature: LogicSignature, t: Term, normal: Normalizer, is_normal: bool) -> Term:
    """`ground_quantifiers`, normalizing with `normal`; `is_normal` says
    that `t` is a normal form.

    The instance of a quantified λx. φ at a domain constant c is the
    normal form of (λx. φ) c. When φ is normal, that is φ with c for x, so
    it is built by substitution: c has no definiens (`_domain`) and no free
    variable, so it can head no β- or δ-redex, and no binder of φ is
    renamed. φ is normal when `t` is, and otherwise when `normal` gives it
    back. Only a quantifier's argument that is not a λ (an η-short
    ``∀ run'``), or a λ whose body is not normal, is applied to c and
    normalized. Either way an instance is normal, and grounded as such.
    """
    role, args = signature.connective(t)
    if role is None:
        return t
    if role == "forall" or role == "exists":
        domain = signature._domain
        if not domain:
            return TOP if role == "forall" else BOTTOM
        body = args[0]
        if body.__class__ is Lam and (is_normal or normal(body.body) is body.body):
            instances = [substitute(body.body, body.binder, c) for c in domain]
        else:
            instances = [normal(App(body, c)) for c in domain]
        parts = [_ground(signature, i, normal, True) for i in instances]
        return _fold(signature.constant("and" if role == "forall" else "or"), parts)
    return app(signature.constant(role), *(_ground(signature, a, normal, is_normal) for a in args))


def _negate(signature: LogicSignature, t: Term) -> Term:
    return App(signature.constant("neg"), t)


def _classify(
    signature: LogicSignature, t: Term
) -> tuple[str, tuple[Term, ...]] | tuple[str, Literal]:
    """Sort a formula into an α-expansion, a β-split, or a literal."""
    role, args = signature.connective(t)
    if role == "and":
        return "alpha", (args[0], args[1])
    if role == "or":
        return "beta", (args[0], args[1])
    if role == "impl":
        return "beta", (_negate(signature, args[0]), args[1])
    if role == "neg":
        inner_role, inner = signature.connective(args[0])
        if inner_role == "and":
            return "beta", tuple(_negate(signature, a) for a in inner)
        if inner_role == "or":
            return "alpha", tuple(_negate(signature, a) for a in inner)
        if inner_role == "impl":
            return "alpha", (inner[0], _negate(signature, inner[1]))
        if inner_role == "neg":
            return "alpha", (inner[0],)
        return "literal", Literal(False, args[0])
    return "literal", Literal(True, t)


def expand_step(state: BeliefState) -> BeliefState:
    """Process one pending formula on the first branch that has any.

    α-formulas extend the branch, β-formulas split it in two (left
    component first), literals are recorded and checked for closure.
    A state with nothing pending is returned unchanged. It is one step of
    the loop :func:`saturate` runs.
    """
    branches, notes, _ = _saturate(state.signature, _in_flight(state), 1)
    return replace(state, branches=branches, history=state.history + notes) if notes else state


def saturate(state: BeliefState) -> BeliefState:
    """Run expansion steps until quiescence or until the budget runs out.

    The result is the state that repeated :func:`expand_step` reaches, with
    the same branch order and one history note per step: both run the one
    saturation loop, `_saturate`, which builds a `Branch` once per branch.

    Exhausting the budget is not an error: the state is returned with
    ``exhausted`` set, and everything derived so far remains usable.
    """
    branches, notes, exhausted = _saturate(state.signature, _in_flight(state), state.step_budget)
    return replace(state, branches=branches, history=state.history + notes, exhausted=exhausted)


def _in_flight(state: BeliefState) -> list[tuple]:
    return [(b.literals, b.pending, b.closed) for b in state.branches]


#: The texts of the history notes of a step on branch i, formatted once
#: and kept for every later step there: ``_NOTE_TEXTS[i][n]`` for an
#: α-expansion into n parts (`_classify` makes one or two), and at the
#: slots below for a β-split and a literal step. A pass over a discourse
#: takes tens of thousands of steps on a few hundred branch indices.
_NOTE_TEXTS: list[tuple[str, ...]] = []
_BETA, _LITERAL, _CLOSED = 0, 3, 4


def _note_texts(index: int) -> tuple[str, ...]:
    while len(_NOTE_TEXTS) <= index:
        i = len(_NOTE_TEXTS)
        _NOTE_TEXTS.append((
            f"β-split on branch {i}",
            f"α-expand on branch {i} (1 part(s))",
            f"α-expand on branch {i} (2 part(s))",
            f"literal on branch {i}",
            f"literal on branch {i} -- closed",
        ))
    return _NOTE_TEXTS[index]


def _saturate(
    signature: LogicSignature, branches: list[tuple], budget: int, keep_closed: bool = True
) -> tuple[tuple[Branch, ...], tuple[str, ...], bool]:
    """The branches that `budget` expansion steps make of `branches`, in
    order, their history notes, and whether work is left.

    Branches in flight are plain ``(literals, pending, closed)`` tuples; a
    `Branch` is built once for each branch returned, a closed one only if
    `keep_closed`. Branches still to be looked at sit on a stack, first on
    top, so each step costs only its own rule; the branches before the
    current one are finished, which makes its index the length of ``done``.
    A step pushes what the branch becomes and appends its note; `classified`
    remembers `_classify` of each formula met, as the branches of one update
    share a few formulas. A literal step extends the branch's literal map
    under the α-normal form of its atom, so a clash or a repeat is one
    lookup; the map is copied then, never changed in place, as branches
    share it. A note's text depends only on the step's rule and the
    branch's index, so it is formatted the first time any call meets them
    (`_note_texts`), and every later note is one of those strings.
    """
    todo = branches[::-1]
    done: list[tuple] = []
    notes: list[str] = []
    classified: dict[Term, tuple] = {}
    note_texts = _NOTE_TEXTS
    while todo:
        branch = todo.pop()
        literals, pending, closed = branch
        if closed or not pending:
            done.append(branch)
            continue
        if len(notes) >= budget:
            todo.append(branch)
            break
        t, rest = pending[0], pending[1:]
        found = classified.get(t)
        if found is None:
            found = classified[t] = _classify(signature, t)
        kind, parts = found
        index = len(done)
        texts = note_texts[index] if index < len(note_texts) else _note_texts(index)
        if kind == "alpha":
            todo.append((literals, parts + rest, False))
            notes.append(texts[len(parts)])
            continue
        if kind == "beta":
            todo.extend((literals, (p,) + rest, False) for p in reversed(parts))
            notes.append(texts[_BETA])
            continue
        key = alpha_normal(parts.atom)
        # The designated atoms carry their truth value with them.
        if key == TOP:
            closed = not parts.positive
        elif key == BOTTOM:
            closed = parts.positive
        else:
            known = literals.get(key)
            if known is None:
                literals = {**literals, key: parts}
            else:
                closed = known.positive != parts.positive
        todo.append((literals, rest, closed))
        notes.append(texts[_CLOSED if closed else _LITERAL])
    done += reversed(todo)
    return tuple(Branch(*b) for b in done if keep_closed or not b[2]), tuple(notes), bool(todo)


def _check_proposition(checker: Checker, signature: LogicSignature, t: Term, what: str) -> None:
    try:
        checker.check(EMPTY, t, Const(signature.proposition_type))
    except TypeError_ as err:
        raise IllTypedAxiom(f"{what} is not a proposition: {err}") from err


def init_belief_state(
    signature: LogicSignature,
    axioms: Iterable[Term] = (),
    *,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> BeliefState:
    """Start a belief state from world knowledge and saturate it once.

    Every axiom must be a proposition; quantified axioms are grounded.
    Contradictory axioms are legal and simply leave no open branch.
    """
    axioms = tuple(axioms)
    checker = Checker(signature.flat)
    for ax in axioms:
        _check_proposition(checker, signature, ax, "axiom")
    normal = Normalizer(signature.flat)
    grounded = tuple(_ground(signature, normal(ax), normal, True) for ax in axioms)
    branches, notes, exhausted = _saturate(signature, [({}, grounded, False)], step_budget, False)
    return BeliefState(signature=signature, world_knowledge=axioms, branches=branches,
                       history=(f"init with {len(axioms)} axiom(s)", *notes),
                       step_budget=step_budget, exhausted=exhausted)


def _ac_key(signature: LogicSignature, t: Term, memo: dict[Term, Hashable]) -> Hashable:
    """A key shared by formulas equal modulo AC of the role-mapped ∧ and ∨.

    A chain of one of them keys as the multiset of its operands' keys. It
    is a multiset, not a set: (p ∨ q) ∧ (p ∨ q) has the model {p, q}, which
    p ∨ q lacks. ¬¬A keys as A, since the α-rule makes them branch-identical.
    ⇒ keeps its operands in order, and a quantifier keys the body of its λ
    as a formula. Anything else is an opaque atom that keys as itself: so
    does a quantifier's argument that is not a λ, which is no formula, and
    a λ where a formula should stand.
    Formulas with equal keys saturate to the same set of open-branch
    literal sets, which is all :func:`extract_models` reads; under
    `LogicSignature.boolean_connectives` they are also typed alike.
    """
    key = memo.get(t)
    if key is not None:
        return key
    role, args = signature.connective(t)
    if role == "and" or role == "or":
        operands: dict[Hashable, int] = {}
        get = operands.get
        for part in args:
            part_key = _ac_key(signature, part, memo)
            if type(part_key) is tuple and part_key[0] == role:  # a chain, perhaps under ¬¬
                for k, n in part_key[1]:
                    operands[k] = get(k, 0) + n
            else:
                operands[part_key] = get(part_key, 0) + 1
        key = role, frozenset(operands.items())
    elif role == "neg":
        key = _ac_key(signature, args[0], memo)
        key = key[1] if type(key) is tuple and key[0] == "neg" else ("neg", key)
    elif role == "impl":
        key = "impl", _ac_key(signature, args[0], memo), _ac_key(signature, args[1], memo)
    elif role is not None:  # a quantifier
        body = args[0]
        if isinstance(body, Lam):
            body = "λ", body.binder, body.binder_type, _ac_key(signature, body.body, memo)
        key = role, body
    else:
        key = t
    memo[t] = key
    return key


def _reading_classes(
    signature: LogicSignature, terms: list[Term], keys: dict[Term, Hashable]
) -> list[Term]:
    """The α-normal forms of the first of each α/AC class of `terms`; ∧ and ∨
    bind nothing, so only the first term of each AC key is α-normalized.
    `keys` is the `_ac_key` memo, so a term the caller has keyed already
    (each reading as given, to type-check one per class) is looked up."""
    groups: dict[Hashable, Term] = {}
    classes: dict[Hashable, Term] = {}
    for t in terms:
        groups.setdefault(_ac_key(signature, t, keys), t)
    for n in map(alpha_normal, groups.values()):
        classes.setdefault(_ac_key(signature, n, keys), n)
    return list(classes.values())


def update_belief_state(state: BeliefState, readings: Iterable[Term]) -> BeliefState:
    """Assert a sentence: one reading per branch copy, then saturate.

    Readings are type-checked by one checker, normalized and grounded by
    one normalizer, and AC-keyed with one memo, so each subterm they share
    is inferred, normalized and keyed once; a reading `construct_semantics`
    has normalized is known normal, and not normalized again, and a normal
    reading's λ quantifiers are grounded by substitution (`_ground`). Readings
    with one AC key as they stand are well typed together or not at all
    when the connectives are boolean (`LogicSignature.boolean_connectives`),
    so then only the first of each key is type-checked; otherwise only
    the first of each repeated node is. Either way the first ill-typed
    reading raises, as it is the first of its key. Only the first of those
    equal up to α and AC of ∧ and ∨ is grounded and saturated, and one per
    AC class as they stand is α-normalized (`_reading_classes`). Ambiguity that melts away
    semantically costs nothing, and the models come out as if every
    reading had been asserted. Closed branches are dropped.
    """
    with nesting_limit("a reading"):
        readings = tuple(readings)
        if not readings:
            raise EmptyReadings("a sentence must have at least one reading")
        signature = state.signature
        flat = signature.flat

        checker = Checker(flat)
        normal = Normalizer(flat)
        keys: dict[Term, Hashable] = {}
        # Terms are interned, so a reading repeated as the very node is
        # typed alike under any signature.
        key = ((lambda r: _ac_key(signature, r, keys)) if signature.boolean_connectives
               else (lambda r: r))
        checked: set[Hashable] = set()
        for r in readings:
            k = key(r)
            if k in checked:
                continue
            checked.add(k)
            _check_proposition(checker, signature, r, "reading")
        classes = _reading_classes(signature, [normal(r) for r in readings], keys)
        grounded = [_ground(signature, n, normal, True) for n in classes]

        open_branches = state.open_branches
        copies = [(b.literals, b.pending + (g,), False) for g in grounded for b in open_branches]
        branches, notes, exhausted = _saturate(signature, copies, state.step_budget, False)
        note = f"update with {len(classes)} reading(s) over {len(open_branches)} branch(es)"
        return replace(state, branches=branches, history=state.history + (note, *notes),
                       exhausted=exhausted)


def extract_models(state: BeliefState) -> tuple[tuple[Literal, ...], ...]:
    """One literal set per open branch, de-duplicated.

    Within a model, positive literals come first, each group ordered by
    the printed form of its atom, so output is stable across runs.
    A branch whose literal set was met already is skipped before sorting.
    That set is taken as the `(positive, atom)` pairs of its literals, not
    as the `Literal` objects: a `Literal` compares and hashes as that pair,
    and terms are interned, so atoms compare by identity. The pairs mean
    the same set, without a dataclass `__hash__` call per literal.
    Before that set is even built, a branch whose literal map is the very
    map of a branch read already is skipped: saturation copies a map to
    extend it and never changes one in place, so branches that a β-split
    left without a new literal share one, and it holds the same set.
    """
    flat = state.signature.flat
    models: list[tuple[Literal, ...]] = []
    seen: set[tuple[tuple[int, str], ...]] = set()
    seen_sets: set[frozenset[tuple[bool, Term]]] = set()
    taken: set[int] = set()  # the ids of the literal maps read
    for branch in state.branches:
        literals = branch.literals
        if branch.closed or id(literals) in taken:
            continue
        taken.add(id(literals))
        # Equal literal sets sort to equal fingerprints.
        literal_set = frozenset([(lit.positive, lit.atom) for lit in literals.values()])
        if literal_set in seen_sets:
            continue
        seen_sets.add(literal_set)
        keyed = sorted(
            (((0 if lit.positive else 1, print_term(flat, lit.atom)), lit)
             for lit in literals.values()),
            key=itemgetter(0),
        )
        fingerprint = tuple(k for k, _ in keyed)
        if fingerprint not in seen:
            seen.add(fingerprint)
            models.append(tuple(lit for _, lit in keyed))
    return tuple(models)
