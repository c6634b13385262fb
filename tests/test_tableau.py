"""Tableau expansion, grounding, and the belief-state lifecycle.

The soundness/completeness tests compare the tableau's verdict against a
brute-force truth table over the (at most eight) atoms of each formula,
which is an independent oracle: the two implementations share no code
beyond the term datatype.
"""

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from glf import tableau
from glf.errors import (
    EmptyReadings,
    IllTypedAxiom,
    NoDomainType,
    TableauError,
    TypeError_,
)
from glf.kernel import App, Const, Lam, Normalizer, Term, Var, alpha_eq, alpha_normal, app, spine
from glf.kernel.typecheck import EMPTY
from glf.modsys import TheoryGraph, parse_term, parse_theory_file
from glf.tableau import (
    BOTTOM,
    TOP,
    BeliefState,
    Branch,
    Literal,
    LogicSignature,
    expand_step,
    extract_models,
    ground_quantifiers,
    init_belief_state,
    saturate,
    update_belief_state,
    _ac_key,
    _reading_classes,
)
from helpers import (
    PROP_ATOMS as ATOMS,
    alpha_variant,
    assignments,
    atoms_in,
    evaluate,
    prop_signature,
    random_formula,
    reference_ac_key,
    reference_check_type,
    reference_expand_step,
    reference_extract_models,
    reference_normalize,
    reference_reading_classes,
    reference_saturate,
    reference_update,
    satisfiable,
    typed_terms,
)

FOL = """
theory TinyFol =
  prop : type # o ;
  and : o -> o -> o # %1 ∧ %2 prec 10 ;
  or : o -> o -> o # %1 ∨ %2 prec 9 ;
  neg : o -> o # ¬ %1 prec 20 ;
  ind : type # ι ;
  forall : (ι -> o) -> o # ∀ %1 prec 25 ;
  exists : (ι -> o) -> o # ∃ %1 prec 25 ;
  run' : ι -> o ;
  love' : ι -> ι -> o ;
  box' : o -> o ;
  a' : ι ;
  b' : ι ;
end
"""

NOBODY = """
theory Nobody =
  prop : type # o ;
  and : o -> o -> o # %1 ∧ %2 prec 10 ;
  or : o -> o -> o # %1 ∨ %2 prec 9 ;
  neg : o -> o # ¬ %1 prec 20 ;
  ind : type # ι ;
  forall : (ι -> o) -> o # ∀ %1 prec 25 ;
  exists : (ι -> o) -> o # ∃ %1 prec 25 ;
  q' : ι -> o ;
end
"""

FOL_CONNECTIVES = {
    "and": "and", "or": "or", "neg": "neg",
    "forall": "forall", "exists": "exists",
}


def flat_of(text, name):
    g = TheoryGraph()
    parse_theory_file(g, text)
    return g.flatten(name)


PROP_SIG = prop_signature()
FOL_SIG = LogicSignature(
    flat_of(FOL, "TinyFol"), FOL_CONNECTIVES, individual_type="ind"
)
NOBODY_SIG = LogicSignature(
    flat_of(NOBODY, "Nobody"), FOL_CONNECTIVES, individual_type="ind"
)


def prop(text: str) -> Term:
    return parse_term(PROP_SIG.flat, text)


def fol(text: str) -> Term:
    return parse_term(FOL_SIG.flat, text)


def rendered(state: BeliefState) -> list[tuple[str, ...]]:
    flat = state.signature.flat
    return [
        tuple(lit.render(flat) for lit in model)
        for model in extract_models(state)
    ]


formulas = st.recursive(
    st.sampled_from([Const(a) for a in ATOMS]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("and", "or", "impl")), inner, inner).map(
            lambda t: app(Const(t[0]), t[1], t[2])
        ),
        inner.map(lambda f: app(Const("neg"), f)),
    ),
    max_leaves=12,
)

#: Smaller formulas, several to a branch: the reference loop rescans every
#: branch on every step, so products of large splits would be slow.
small_formulas = st.recursive(
    st.sampled_from([Const(a) for a in ATOMS[:4]]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("and", "or", "impl")), inner, inner).map(
            lambda t: app(Const(t[0]), t[1], t[2])
        ),
        inner.map(lambda f: app(Const("neg"), f)),
    ),
    max_leaves=6,
)

NEG = Const("neg")
AND = Const("and")


def ac_variant(f: Term, rng: random.Random) -> Term:
    """A formula equal to `f` modulo AC of ∧ and ∨, and ¬¬.

    Every ∧/∨ chain has its operands shuffled and regrouped at random, also
    under quantifiers, and now and then a subformula is wrapped in ¬¬. So
    is, now and then, a quantifier's argument that is not a λ: that one is
    no formula, and the variant is ill-typed and keyed apart.
    """
    if isinstance(f, Lam):  # a quantifier's body
        return Lam(f.binder, f.binder_type, ac_variant(f.body, rng))
    head, args = spine(f)
    role = head.name if isinstance(head, Const) else None
    if role in ("and", "or"):
        operands, todo = [], [f]
        while todo:
            part = todo.pop()
            part_head, part_args = spine(part)
            if part_head == head:
                todo.extend(part_args)
            else:
                operands.append(ac_variant(part, rng))
        rng.shuffle(operands)
        g = _regroup(head, operands, rng)
    elif role in ("neg", "impl", "forall", "exists"):
        g = app(head, *(ac_variant(a, rng) for a in args))
    else:  # an atom
        g = f
    return app(NEG, app(NEG, g)) if rng.random() < 0.1 else g


def _regroup(op: Const, operands: list[Term], rng: random.Random) -> Term:
    if len(operands) == 1:
        return operands[0]
    k = rng.randint(1, len(operands) - 1)
    return app(op, _regroup(op, operands[:k], rng), _regroup(op, operands[k:], rng))


class TestGrounding:
    def test_universal_becomes_conjunction(self):
        got = ground_quantifiers(FOL_SIG, fol("∀ [x : ι] run' x"))
        assert alpha_eq(got, fol("(run' a') ∧ (run' b')"))

    def test_existential_becomes_disjunction(self):
        got = ground_quantifiers(FOL_SIG, fol("∃ [x : ι] run' x"))
        assert alpha_eq(got, fol("(run' a') ∨ (run' b')"))

    def test_grounding_descends_through_connectives(self):
        got = ground_quantifiers(FOL_SIG, fol("¬ (∀ [x : ι] run' x) ∨ run' a'"))
        assert alpha_eq(got, fol("¬ ((run' a') ∧ (run' b')) ∨ run' a'"))

    def test_nested_quantifiers_ground_inside_out(self):
        got = ground_quantifiers(FOL_SIG, fol("∀ [x : ι] ∃ [y : ι] love' x y"))
        want = fol(
            "((love' a' a') ∨ (love' a' b')) ∧ ((love' b' a') ∨ (love' b' b'))"
        )
        assert alpha_eq(got, want)

    def test_quantifier_under_opaque_head_is_left_alone(self):
        t = fol("box' (∀ [x : ι] run' x)")
        assert ground_quantifiers(FOL_SIG, t) is t

    def test_plain_atoms_pass_through(self):
        t = fol("run' a'")
        assert ground_quantifiers(FOL_SIG, t) is t

    def test_empty_domain_universal_is_true(self):
        got = ground_quantifiers(
            NOBODY_SIG, parse_term(NOBODY_SIG.flat, "∀ [x : ι] q' x")
        )
        assert got == TOP

    def test_empty_domain_existential_is_false(self):
        got = ground_quantifiers(
            NOBODY_SIG, parse_term(NOBODY_SIG.flat, "∃ [x : ι] q' x")
        )
        assert got == BOTTOM

    def test_no_individual_type_is_an_error(self):
        bare = LogicSignature(FOL_SIG.flat, FOL_CONNECTIVES)
        with pytest.raises(NoDomainType):
            ground_quantifiers(bare, fol("∀ [x : ι] run' x"))

    def test_missing_connective_role_is_an_error(self):
        with pytest.raises(TableauError):
            PROP_SIG.constant("forall")


class TestExpansionRules:
    def test_conjunction_extends_the_branch(self):
        state = init_belief_state(PROP_SIG, (prop("p1 ∧ p2"),))
        assert rendered(state) == [("p1", "p2")]

    def test_negated_disjunction_extends(self):
        state = init_belief_state(PROP_SIG, (prop("¬ (p1 ∨ p2)"),))
        assert rendered(state) == [("¬ p1", "¬ p2")]

    def test_negated_implication_extends(self):
        state = init_belief_state(PROP_SIG, (prop("¬ (p1 ⇒ p2)"),))
        assert rendered(state) == [("p1", "¬ p2")]

    def test_double_negation_cancels(self):
        state = init_belief_state(PROP_SIG, (prop("¬ ¬ p1"),))
        assert rendered(state) == [("p1",)]

    def test_disjunction_splits(self):
        state = init_belief_state(PROP_SIG, (prop("p1 ∨ p2"),))
        assert rendered(state) == [("p1",), ("p2",)]

    def test_negated_conjunction_splits(self):
        state = init_belief_state(PROP_SIG, (prop("¬ (p1 ∧ p2)"),))
        assert rendered(state) == [("¬ p1",), ("¬ p2",)]

    def test_implication_splits_with_negated_antecedent(self):
        state = init_belief_state(PROP_SIG, (prop("p1 ⇒ p2"),))
        assert rendered(state) == [("¬ p1",), ("p2",)]

    def test_contradictory_axiom_closes_everything(self):
        state = init_belief_state(PROP_SIG, (prop("p1 ∧ ¬ p1"),))
        assert state.branches == ()

    def test_closure_across_separate_axioms(self):
        state = init_belief_state(PROP_SIG, (prop("p1"), prop("¬ p1")))
        assert state.open_branches == ()

    def test_repeated_literal_is_recorded_once(self):
        state = init_belief_state(PROP_SIG, (prop("p1 ∧ p1"),))
        assert rendered(state) == [("p1",)]
        [branch] = state.branches
        assert branch.literals == {Const("p1"): Literal(True, Const("p1"))}

    def test_modus_ponens_shape(self):
        state = init_belief_state(PROP_SIG, (prop("p1"), prop("p1 ⇒ p2")))
        assert rendered(state) == [("p1", "p2")]

    def test_alpha_variant_atoms_under_an_opaque_operator_meet(self):
        # Axioms are not α-normalized, so these atoms differ under plain ==.
        boxed_x = fol("box' (∀ [x : ι] run' x)")
        boxed_y = fol("box' (∀ [y : ι] run' y)")
        assert boxed_x != boxed_y
        state = init_belief_state(FOL_SIG, (boxed_x, app(Const("neg"), boxed_y)))
        assert state.open_branches == ()
        state = init_belief_state(FOL_SIG, (boxed_x, boxed_y))
        assert [len(model) for model in extract_models(state)] == [1]
        [branch] = state.branches
        assert branch.literals == {alpha_normal(boxed_y): Literal(True, boxed_x)}

    def test_expand_step_is_identity_when_quiescent(self):
        state = init_belief_state(PROP_SIG, (prop("p1"),))
        assert expand_step(state) is state

    def test_true_sentinel_adds_no_literal(self):
        state = init_belief_state(
            NOBODY_SIG, (parse_term(NOBODY_SIG.flat, "∀ [x : ι] q' x"),)
        )
        assert rendered(state) == [()]

    def test_false_sentinel_closes(self):
        state = init_belief_state(
            NOBODY_SIG, (parse_term(NOBODY_SIG.flat, "∃ [x : ι] q' x"),)
        )
        assert state.branches == ()

    def test_negated_true_sentinel_closes(self):
        state = init_belief_state(
            NOBODY_SIG, (parse_term(NOBODY_SIG.flat, "¬ (∀ [x : ι] q' x)"),)
        )
        assert state.branches == ()

    def test_negated_false_sentinel_is_harmless(self):
        state = init_belief_state(
            NOBODY_SIG, (parse_term(NOBODY_SIG.flat, "¬ (∃ [x : ι] q' x)"),)
        )
        assert rendered(state) == [()]


class TestBeliefLifecycle:
    def test_init_keeps_the_axioms_verbatim(self):
        axioms = (prop("p1"), prop("p2 ∨ p3"))
        state = init_belief_state(PROP_SIG, axioms)
        assert state.world_knowledge == axioms
        assert state.history[0] == "init with 2 axiom(s)"

    def test_update_copies_every_open_branch_per_reading(self):
        state = init_belief_state(PROP_SIG, (prop("p1 ∨ p2"),))
        state = update_belief_state(state, (prop("p3"), prop("p4")))
        assert sorted(rendered(state)) == [
            ("p1", "p3"), ("p1", "p4"), ("p2", "p3"), ("p2", "p4"),
        ]

    def test_alpha_equal_readings_collapse(self):
        state = init_belief_state(FOL_SIG)
        state = update_belief_state(
            state, (fol("∀ [x : ι] run' x"), fol("∀ [y : ι] run' y"))
        )
        assert any("1 reading(s)" in note for note in state.history)
        assert len(state.open_branches) == 1

    def test_definitionally_equal_readings_collapse(self):
        state = init_belief_state(PROP_SIG)
        state = update_belief_state(state, (prop("both p1 p2"), prop("p1 ∧ p2")))
        assert any("1 reading(s)" in note for note in state.history)
        assert rendered(state) == [("p1", "p2")]

    def test_update_grounds_quantified_readings(self):
        state = init_belief_state(FOL_SIG)
        state = update_belief_state(state, (fol("∃ [x : ι] run' x"),))
        assert rendered(state) == [("run' a'",), ("run' b'",)]

    def test_no_readings_is_an_error(self):
        state = init_belief_state(PROP_SIG)
        with pytest.raises(EmptyReadings):
            update_belief_state(state, ())

    def test_ill_typed_axiom_is_rejected(self):
        with pytest.raises(IllTypedAxiom):
            init_belief_state(FOL_SIG, (Const("run'"),))

    def test_ill_typed_reading_is_rejected(self):
        state = init_belief_state(FOL_SIG)
        with pytest.raises(IllTypedAxiom):
            update_belief_state(state, (Const("a'"),))

    def test_contradicted_discourse_leaves_no_branch(self):
        state = init_belief_state(PROP_SIG, (prop("p1"),))
        state = update_belief_state(state, (prop("¬ p1"),))
        assert state.open_branches == ()

    def test_budget_exhaustion_is_survivable(self):
        f = prop("(p1 ∨ p2) ∧ (p3 ∨ p4)")
        state = init_belief_state(PROP_SIG, (f,), step_budget=2)
        assert state.exhausted
        assert state.open_branches  # partially expanded, but present
        rescued = saturate(dataclasses.replace(state, step_budget=10_000))
        assert not rescued.exhausted
        assert len(extract_models(rescued)) == 4

    def test_history_accumulates(self):
        state = init_belief_state(PROP_SIG, (prop("p1"),))
        before = len(state.history)
        state = update_belief_state(state, (prop("p2"),))
        assert len(state.history) > before


def assert_built(state: BeliefState, *, open_only: bool) -> None:
    """Every branch `state` holds is a `Branch`, and none is closed if `open_only`."""
    assert all(type(b) is Branch for b in state.branches)
    assert not (open_only and any(b.closed for b in state.branches))


class TestWorklistSaturation:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.lists(small_formulas, max_size=2)),
            min_size=1, max_size=3,
        ),
        st.one_of(st.none(), st.integers(0, 40)),
    )
    @settings(max_examples=150, deadline=None)
    def test_saturate_matches_the_reference_loop(self, branches, budget):
        state = BeliefState(
            signature=PROP_SIG,
            world_knowledge=(),
            branches=tuple(
                Branch(pending=tuple(fs), closed=closed) for closed, fs in branches
            ),
            history=("start",),
            step_budget=200_000 if budget is None else budget,
        )
        stepped = expand_step(state)
        assert stepped == reference_expand_step(state)
        got = saturate(state)
        assert got == reference_saturate(state)  # branches, history, exhausted
        resumed = dataclasses.replace(got, step_budget=200_000)
        finished = saturate(resumed)
        assert finished == reference_saturate(resumed)
        for s in (stepped, got, finished):
            assert_built(s, open_only=False)

    @given(st.lists(small_formulas, max_size=3), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_init_matches_the_reference_loop(self, axioms, budget):
        normal = Normalizer(PROP_SIG.flat)
        grounded = tuple(ground_quantifiers(PROP_SIG, normal(ax)) for ax in axioms)
        want = reference_saturate(BeliefState(
            signature=PROP_SIG,
            world_knowledge=tuple(axioms),
            branches=(Branch(pending=grounded),),
            history=(f"init with {len(axioms)} axiom(s)",),
            step_budget=budget,
        ))
        got = init_belief_state(PROP_SIG, axioms, step_budget=budget)
        assert got.branches == want.open_branches
        assert got.history == want.history
        assert got.exhausted == want.exhausted
        assert got == dataclasses.replace(want, branches=want.open_branches)
        assert_built(got, open_only=True)

    @given(
        st.lists(small_formulas, max_size=2),
        st.lists(st.tuples(small_formulas, st.integers(0, 40)), min_size=2, max_size=5),
        st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_sessions_match_the_reference_update(self, axioms, updates, init_budget):
        # An exhausted state is carried into the next update as it stands,
        # so later updates start from branches with formulas still pending.
        state = init_belief_state(PROP_SIG, axioms, step_budget=init_budget)
        assert_built(state, open_only=True)
        for f, budget in updates:
            state = dataclasses.replace(state, step_budget=budget)
            got = update_belief_state(state, (f,))
            want = reference_update(state, (f,))
            assert got.branches == want.branches
            assert got.history == want.history
            assert got.exhausted == want.exhausted
            assert got == want
            assert_built(got, open_only=True)
            state = got

    @given(
        st.lists(small_formulas, min_size=1, max_size=2),
        st.lists(small_formulas, min_size=1, max_size=2),
        st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_input_state_is_left_unchanged(self, axioms, extra, budget):
        # Branches split from one share its literal map; adding the new
        # atoms p5–p8 to it in place would show up in every input branch.
        extra = [app(AND, f, Const(a)) for f, a in zip(extra, ATOMS[4:])]
        start = init_belief_state(PROP_SIG, axioms, step_budget=200_000)
        state = dataclasses.replace(
            start,
            branches=(
                *(Branch(b.literals, b.pending + tuple(extra)) for b in start.branches),
                Branch(start.branches[0].literals, tuple(extra), closed=True)
                if start.branches else Branch(closed=True),
            ),
            step_budget=budget,
        )

        def snapshot(s):
            return [(list(b.literals.items()), b.pending, b.closed) for b in s.branches]

        before, start_before = snapshot(state), snapshot(start)
        assert_built(saturate(state), open_only=False)
        assert_built(expand_step(state), open_only=False)
        assert_built(update_belief_state(state, extra), open_only=True)
        assert_built(update_belief_state(start, extra), open_only=True)
        assert snapshot(state) == before
        assert snapshot(start) == start_before

    def test_three_hundred_open_branches_match_the_reference_loop(self):
        # Notes on branch indices that no smaller state reaches, formatted
        # the first time and looked up the second.
        rng = random.Random(300)
        state = BeliefState(
            signature=PROP_SIG,
            world_knowledge=(),
            branches=tuple(Branch(pending=(random_formula(rng, 3),)) for _ in range(300)),
            history=("start",),
            step_budget=200_000,
        )
        want = reference_saturate(state)
        for _ in range(2):
            got = saturate(state)
            assert got.history == want.history
            assert got == want
        assert max(int(note.split()[3]) for note in got.history[1:]) >= 299
        assert update_belief_state(got, (prop("p1 ∨ p2"),)) == reference_update(
            got, (prop("p1 ∨ p2"),))

    def test_stopping_at_the_budget_leaves_the_rest_in_order(self):
        state = init_belief_state(PROP_SIG, (prop("(p1 ∨ p2) ∧ (p3 ∨ p4)"),), step_budget=4)
        assert state.exhausted
        assert len(state.history) == 1 + 4
        assert state.history[1:] == (
            "α-expand on branch 0 (2 part(s))",
            "β-split on branch 0",
            "literal on branch 0",
            "β-split on branch 0",
        )
        assert [b.pending for b in state.branches] == [
            (prop("p3"),), (prop("p4"),), (prop("p2"), prop("p3 ∨ p4")),
        ]


class TestReadingClasses:
    def start(self):
        return init_belief_state(PROP_SIG, step_budget=200_000)

    def test_ac_variants_are_one_reading(self):
        readings = (
            prop("(p1 ∧ p2) ∧ p3"), prop("p3 ∧ (p2 ∧ p1)"), prop("p2 ∧ ¬ ¬ (p3 ∧ p1)"),
        )
        state = update_belief_state(self.start(), readings)
        assert state.history[1] == "update with 1 reading(s) over 1 branch(es)"
        assert rendered(state) == [("p1", "p2", "p3")]

    def test_repeated_operands_are_counted(self):
        twice, once = prop("(p1 ∨ p2) ∧ (p1 ∨ p2)"), prop("p1 ∨ p2")
        state = update_belief_state(self.start(), (twice, once))
        assert state.history[1] == "update with 2 reading(s) over 1 branch(es)"
        assert rendered(state) == [("p1",), ("p1", "p2"), ("p2",)]
        assert rendered(update_belief_state(self.start(), (once,))) == [("p1",), ("p2",)]
        # As sets of operands these two chains would be one class.
        twice, once = prop("(p1 ∨ p2) ∧ p3 ∧ (p1 ∨ p2)"), prop("(p1 ∨ p2) ∧ p3")
        state = update_belief_state(self.start(), (once, twice))
        assert state.history[1] == "update with 2 reading(s) over 1 branch(es)"
        assert rendered(state) == [("p1", "p3"), ("p2", "p3"), ("p1", "p2", "p3")]

    def test_grouping_is_inside_quantifier_bodies_too(self):
        readings = (
            fol("∃ [x : ι] (run' x ∧ (run' a' ∧ run' b'))"),
            fol("∃ [y : ι] ((run' b' ∧ run' y) ∧ run' a')"),
        )
        state = update_belief_state(init_belief_state(FOL_SIG), readings)
        assert state.history[1] == "update with 1 reading(s) over 1 branch(es)"
        assert rendered(state) == rendered(reference_update(init_belief_state(FOL_SIG), readings))

    def test_order_of_implication_operands_matters(self):
        readings = (prop("p1 ⇒ p2"), prop("p2 ⇒ p1"))
        state = update_belief_state(self.start(), readings)
        assert state.history[1] == "update with 2 reading(s) over 1 branch(es)"

    @given(
        st.lists(small_formulas, min_size=1, max_size=3),
        st.lists(small_formulas, max_size=2),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_models_equal_the_reference_update(self, bases, axioms, rng):
        readings = []
        for f in bases:
            readings += [f] + [ac_variant(f, rng) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                # Equivalent, but f ∧ f has models that f lacks when f
                # branches: one class per set of operands would lose them.
                g = rng.choice(bases)
                readings += [
                    ac_variant(app(AND, f, g), rng),
                    ac_variant(app(AND, f, app(AND, f, g)), rng),
                ]
        rng.shuffle(readings)
        start = init_belief_state(PROP_SIG, axioms, step_budget=200_000)
        got = update_belief_state(start, readings)
        want = reference_update(start, readings)
        assert not got.exhausted and not want.exhausted
        assert rendered(got) == rendered(want)
        assert len(got.branches) <= len(want.branches)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_ac_keys_are_the_reference_keys(self, rng):
        f = random_formula(rng, 5)
        memo, reference = {}, {}
        want = reference_ac_key(PROP_SIG, f, reference)
        assert _ac_key(PROP_SIG, f, memo) == want
        for g in [ac_variant(f, rng) for _ in range(3)]:
            assert _ac_key(PROP_SIG, g, {}) == _ac_key(PROP_SIG, g, memo) == want
            assert reference_ac_key(PROP_SIG, g, reference) == want

    def test_role_of_prefers_the_first_role_listed(self):
        signature = LogicSignature(PROP_SIG.flat, {"and": "both", "or": "both"})
        assert signature.role_of("both") == "and"
        assert signature.role_of("neg") is None

    def test_connective_needs_a_role_applied_to_its_arity(self):
        p, q = Const("p"), Const("q")
        both = LogicSignature(PROP_SIG.flat, {"and": "both", "or": "both"})
        assert both.connective(app(Const("both"), p, q)) == ("and", [p, q])
        assert both.connective(App(Const("both"), p)) == (None, [])
        assert FOL_SIG.connective(App(Const("neg"), p)) == ("neg", [p])
        assert FOL_SIG.connective(app(Const("neg"), p, q)) == (None, [])
        assert FOL_SIG.connective(App(Const("forall"), p)) == ("forall", [p])
        assert FOL_SIG.connective(app(Const("impl"), p, q)) == (None, [])  # no impl role
        assert FOL_SIG.connective(App(Var("neg"), p)) == (None, [])
        assert FOL_SIG.connective(p) == (None, [])


PROP_T, IND_T = Const("prop"), Const("ind")
#: TinyFol with a propositional atom, so that random terms of type o can stop.
FOL_P_SIG = LogicSignature(
    flat_of(FOL + "theory TinyFolP = include TinyFol ; p' : o ; end", "TinyFolP"),
    FOL_CONNECTIVES, individual_type="ind",
)


def run_on(binder_type: Term, arg: Term) -> Term:
    """`(λx : binder_type. run' x) arg`."""
    return App(Lam("x", binder_type, App(Const("run'"), Var("x"))), arg)


@st.composite
def fol_readings(draw):
    """Propositions over TinyFolP, perhaps with one ill-typed reading that
    reuses a well-typed one inside it, and with AC and α variants of some
    readings (the ill-typed one too) put in at random places."""
    readings = draw(st.lists(typed_terms(FOL_P_SIG.flat, PROP_T, depth=3, bases=(PROP_T, IND_T)),
                             min_size=1, max_size=3))
    if draw(st.booleans()):
        shared = draw(st.sampled_from(readings))
        bad = draw(st.sampled_from([
            App(Const("run'"), shared),
            run_on(PROP_T, shared),
            app(AND, shared, Const("a'")),
        ]))
        readings.insert(draw(st.integers(0, len(readings))), bad)
    rng = draw(st.randoms(use_true_random=False))
    for r in list(readings):
        for _ in range(rng.randint(0, 2)):
            variant = ac_variant(r, rng)
            if rng.random() < 0.5:
                variant = alpha_variant(variant, rng)
            readings.insert(rng.randint(0, len(readings)), variant)
    return readings


#: TinyFolP with a type that no constant has as its domain: every
#: quantifier grounds to ⊤ or ⊥.
VOID_SIG = LogicSignature(
    flat_of(FOL + "theory TinyFolVoid = include TinyFol ; p' : o ; void : type ; end",
            "TinyFolVoid"),
    FOL_CONNECTIVES, individual_type="void",
)


def reference_ground(signature: LogicSignature, t: Term) -> Term:
    """`ground_quantifiers` as specified: each instance, the quantifier's
    argument applied to a domain constant, normalized by
    `reference_normalize` before it is grounded in turn."""
    role, args = signature.connective(t)
    if role is None:
        return t
    if role in ("forall", "exists"):
        domain = signature._domain
        if not domain:
            return TOP if role == "forall" else BOTTOM
        parts = [reference_ground(signature, reference_normalize(signature.flat, App(args[0], c)))
                 for c in domain]
        joined = Const(signature.connectives["and" if role == "forall" else "or"])
        result = parts[-1]
        for part in reversed(parts[:-1]):
            result = app(joined, part, result)
        return result
    return app(Const(signature.connectives[role]), *(reference_ground(signature, a) for a in args))


class TestGroundingBySubstitution:
    """`_ground` builds the instances of a normal formula's λ quantifiers by
    substitution; grounding that normalizes each one is its oracle."""

    @given(st.sampled_from([FOL_P_SIG, VOID_SIG]).flatmap(
        lambda signature: st.tuples(st.just(signature), typed_terms(
            signature.flat, PROP_T, depth=4, bases=(PROP_T, IND_T)))))
    @example((FOL_P_SIG, fol("∀ [x : ι] ∃ [y : ι] love' x y")))
    @example((FOL_P_SIG, fol("∃ [x : ι] ¬ ∀ [y : ι] love' y x")))
    @example((FOL_P_SIG, App(Const("forall"), Const("run'"))))
    @example((FOL_P_SIG, fol("∃ [x : ι] ∀ (love' x)")))
    @example((FOL_P_SIG, fol("∀ [x : ι] ([y : ι] love' y x) x")))
    @example((VOID_SIG, fol("∀ [x : ι] ∃ [y : ι] love' x y")))
    @example((VOID_SIG, App(Const("exists"), Const("run'"))))
    @settings(max_examples=200, deadline=None)
    def test_normal_formulas_ground_as_if_each_instance_were_normalized(self, case):
        signature, raw = case
        flat = signature.flat
        n = Normalizer(flat)(raw)
        want = reference_ground(signature, n)
        assert tableau._ground(signature, n, Normalizer(flat), True) == want
        assert ground_quantifiers(signature, n) == want
        # Any other term grounds as it always has, each instance normalized.
        assert ground_quantifiers(signature, raw) == reference_ground(signature, raw)


#: TinyFolP whose ∧ is `both : ι → o → o`: AC variants of a well-typed
#: conjunction need not be well typed.
BOTH_SIG = LogicSignature(
    flat_of(FOL + "theory TinyFolBoth = include TinyFol ; p' : o ; both : ι -> o -> o ; end",
            "TinyFolBoth"),
    {**FOL_CONNECTIVES, "and": "both"}, individual_type="ind",
)


class TestSharedTypeChecking:
    """`update_belief_state` checks the readings of a sentence, one per AC
    class as they stand, and `init_belief_state` all axioms, with one
    checker; they must accept and reject them as the reference checker,
    which checks every reading, does."""

    @staticmethod
    def outcome(update, readings, signature=FOL_P_SIG):
        try:
            return rendered(update(init_belief_state(signature), readings))
        except IllTypedAxiom as err:
            return str(err)

    @staticmethod
    def init_outcome(axioms):
        try:
            init_belief_state(FOL_P_SIG, axioms)
        except IllTypedAxiom as err:
            return str(err)
        return None

    @staticmethod
    def reference_init_outcome(axioms):
        for ax in axioms:
            try:
                reference_check_type(FOL_P_SIG.flat, EMPTY, ax, PROP_T)
            except TypeError_ as err:
                return f"axiom is not a proposition: {err}"
        return None

    @given(fol_readings())
    # `run' x` is well-typed under x : ι, then met again under x : o.
    @example([run_on(IND_T, Const("a'")), App(Const("run'"), Const("a'")),
              run_on(PROP_T, App(Const("run'"), Const("a'")))])
    # The third reading is ill-typed around a subterm both others share.
    @example([fol("run' a' ∧ run' b'"), fol("(run' a' ∧ run' b') ∧ run' a'"),
              App(Const("run'"), fol("run' a' ∧ run' b'"))])
    # ¬¬ around a quantifier's argument, which is no formula, is ill-typed.
    @example([App(Const("forall"), Const("run'")),
              App(Const("forall"), app(NEG, app(NEG, Const("run'"))))])
    @settings(max_examples=100, deadline=None)
    def test_readings_as_the_reference_update(self, readings):
        assert (self.outcome(update_belief_state, readings)
                == self.outcome(reference_update, readings))
        assert self.init_outcome(readings) == self.reference_init_outcome(readings)

    @given(fol_readings())
    @settings(max_examples=100, deadline=None)
    def test_each_class_as_given_is_checked_once(self, readings):
        keys, firsts = {}, {}
        for r in readings:
            firsts.setdefault(reference_ac_key(FOL_P_SIG, r, keys), r)
        want = []
        for r in firsts.values():  # up to the first ill-typed reading
            want.append(r)
            if self.reference_init_outcome([r]) is not None:
                break
        start = init_belief_state(FOL_P_SIG)
        with mock.patch.object(tableau, "_check_proposition",
                               wraps=tableau._check_proposition) as check:
            try:
                update_belief_state(start, readings)
            except IllTypedAxiom:
                pass
        assert [call.args[2] for call in check.call_args_list] == want

    @pytest.mark.parametrize("signature, shares", [
        (PROP_SIG, True),
        (FOL_P_SIG, True),
        (BOTH_SIG, False),
        (LogicSignature(FOL_P_SIG.flat, {**FOL_CONNECTIVES, "impl": "implies"}), True),
        (LogicSignature(FOL_P_SIG.flat, {**FOL_CONNECTIVES, "neg": "not"}), False),
        (LogicSignature(FOL_P_SIG.flat, {**FOL_CONNECTIVES, "neg": "and"}), False),
        (LogicSignature(FOL_P_SIG.flat, {**FOL_CONNECTIVES, "exists": "run'"}), False),
        (LogicSignature(FOL_P_SIG.flat, FOL_CONNECTIVES, proposition_type="ind"), False),
        (LogicSignature(FOL_P_SIG.flat, FOL_CONNECTIVES, proposition_type="o"), False),
    ])
    def test_classes_share_checks_only_over_boolean_connectives(self, signature, shares):
        assert signature.boolean_connectives is shares

    def test_an_undeclared_role_constant_raises_as_the_reference(self):
        signature = LogicSignature(FOL_P_SIG.flat, {**FOL_CONNECTIVES, "impl": "implies"})
        p, q = Const("p'"), App(Const("run'"), Const("a'"))
        implies = app(Const("implies"), p, q)
        for readings in ([p, implies], [app(AND, p, q), app(AND, q, p), implies, implies]):
            want = self.outcome(reference_update, readings, signature)
            assert want.startswith("reading is not a proposition: ")
            assert self.outcome(update_belief_state, readings, signature) == want

    def test_a_non_boolean_conjunction_checks_every_reading(self):
        both = Const("both")
        well = app(both, Const("a'"), App(Const("run'"), Const("b'")))
        ill = app(both, App(Const("run'"), Const("b'")), Const("a'"))
        assert _ac_key(BOTH_SIG, well, {}) == _ac_key(BOTH_SIG, ill, {})
        for readings in ([well, ill], [well, app(NEG, app(NEG, ill))]):
            want = self.outcome(reference_update, readings, BOTH_SIG)
            assert want.startswith("reading is not a proposition: ")
            assert self.outcome(update_belief_state, readings, BOTH_SIG) == want
        assert (self.outcome(update_belief_state, [well, well], BOTH_SIG)
                == self.outcome(reference_update, [well, well], BOTH_SIG) == [("a'", "run' b'")])


class TestReadingClassesAsTheyStand:
    """`update_belief_state` α-normalizes one reading per AC class of the
    readings as they stand, and grounds the nodes that α-normalizing every
    reading gives."""

    @given(fol_readings(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_classes_are_the_reference_s_nodes(self, readings, rng):
        readings = readings + [alpha_variant(ac_variant(r, rng), rng)
                               for r in readings for _ in range(rng.randint(0, 2))]
        rng.shuffle(readings)
        normal = Normalizer(FOL_P_SIG.flat)
        got = _reading_classes(FOL_P_SIG, [normal(r) for r in readings], {})
        want = reference_reading_classes(FOL_P_SIG, readings)
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
        try:
            state = update_belief_state(init_belief_state(FOL_P_SIG), readings)
        except IllTypedAxiom:
            return
        assert state.history[1] == f"update with {len(want)} reading(s) over 1 branch(es)"


#: Literals over atoms that print alike (`p1` the constant and `p1` the
#: variable), so that different literal sets can print the same model.
MODEL_LITERALS = tuple(
    Literal(positive, atom)
    for positive in (True, False)
    for atom in (Const("p1"), Var("p1"), Const("p2"), app(Const("and"), Const("p3"), Var("p1")))
)
LIKE_P1 = (MODEL_LITERALS[0], MODEL_LITERALS[1], MODEL_LITERALS[6])


@st.composite
def model_branches(draw):
    """Branches drawing a few literal sets, each in any order, some twice."""
    sets = draw(st.lists(st.lists(st.sampled_from(MODEL_LITERALS), unique=True, max_size=5),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=8))
    branches = [tuple(draw(st.permutations(lits))) for lits in picks]
    return branches, draw(st.booleans())


@st.composite
def shared_map_branches(draw):
    """Branches over a few literal maps, some the very same map object, some
    an equal copy, some closed."""
    maps = [{alpha_normal(l.atom): l for l in lits}
            for lits in draw(st.lists(st.lists(st.sampled_from(MODEL_LITERALS), unique=True,
                                               max_size=5), min_size=1, max_size=3))]
    picks = draw(st.lists(st.tuples(st.integers(0, len(maps) - 1), st.booleans(), st.booleans()),
                          min_size=1, max_size=8))
    return tuple(Branch(maps[i] if shared else dict(maps[i]), (), closed)
                 for i, shared, closed in picks)


class TestExtractModels:
    def test_positive_literals_sort_first(self):
        state = init_belief_state(
            PROP_SIG, (prop("¬ p3"), prop("p4"), prop("¬ p2"), prop("p1"))
        )
        assert rendered(state) == [("p1", "p4", "¬ p2", "¬ p3")]

    def test_duplicate_branches_collapse(self):
        state = init_belief_state(PROP_SIG, (prop("p1 ∨ p1"),))
        assert rendered(state) == [("p1",)]

    def test_literal_rendering(self):
        atom = fol("love' a' b'")
        assert Literal(True, atom).render(FOL_SIG.flat) == "love' a' b'"
        assert Literal(False, atom).render(FOL_SIG.flat) == "¬ love' a' b'"

    def test_branches_sharing_a_literal_map_give_one_model(self):
        state = init_belief_state(PROP_SIG, (prop("p1"), prop("p1 ∨ p1")))
        first, second = state.branches
        assert first.literals is second.literals
        assert extract_models(state) == reference_extract_models(state)
        assert rendered(state) == [("p1",)]

    @given(shared_map_branches())
    @settings(max_examples=150, deadline=None)
    def test_shared_literal_maps_give_the_reference_models(self, branches):
        state = BeliefState(PROP_SIG, (), branches, ())
        assert extract_models(state) == reference_extract_models(state)

    @given(model_branches())
    @example(((LIKE_P1, LIKE_P1[::-1], LIKE_P1), False))
    @example((((MODEL_LITERALS[1],), (MODEL_LITERALS[0],), (MODEL_LITERALS[1],)), True))
    @settings(max_examples=150, deadline=None)
    def test_same_models_as_the_reference(self, case):
        branches, closed_first = case
        state = BeliefState(
            PROP_SIG, (), tuple(Branch({alpha_normal(l.atom): l for l in lits}, (),
                                       closed_first and i == 0)
                                for i, lits in enumerate(branches)), ())
        models = extract_models(state)
        assert models == reference_extract_models(state)
        assert ([[lit.render(PROP_SIG.flat) for lit in m] for m in models]
                == [[lit.render(PROP_SIG.flat) for lit in m]
                    for m in reference_extract_models(state)])


class TestAgainstTruthTables:
    def test_seeded_bulk_agreement(self):
        rng = random.Random(7031)
        for _ in range(150):
            f = random_formula(rng, 6)
            state = init_belief_state(PROP_SIG, (f,), step_budget=200_000)
            assert not state.exhausted
            assert bool(state.open_branches) == satisfiable(f)

    @given(formulas)
    @settings(max_examples=150, deadline=None)
    def test_open_branch_iff_satisfiable(self, f):
        state = init_belief_state(PROP_SIG, (f,), step_budget=200_000)
        assert not state.exhausted
        assert bool(state.open_branches) == satisfiable(f)

    @given(formulas)
    @settings(max_examples=100, deadline=None)
    def test_every_completion_of_a_model_satisfies(self, f):
        state = init_belief_state(PROP_SIG, (f,), step_budget=200_000)
        assert not state.exhausted
        names = atoms_in(f)
        for model in extract_models(state):
            fixed = {lit.atom.name: lit.positive for lit in model}
            free = names - set(fixed)
            for extra in assignments(free):
                assert evaluate(f, {**fixed, **extra})
