import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from glf.errors import (
    DuplicateName,
    GlfError,
    NonTerminationGuard,
    NotAFunction,
    TypeMismatch,
    UnknownConstant,
    UntypedBinder,
)
from glf.kernel import (
    App,
    Const,
    Declaration,
    Lam,
    Pi,
    Signature,
    TYPE,
    KIND,
    Term,
    Var,
    alpha_eq,
    app,
    arrow,
    check_proof,
    check_type,
    infer_type,
    lam,
)
from glf.kernel import typecheck
from glf.kernel.reduce import whnf
from glf.kernel.terms import show
from glf.kernel.typecheck import Checker, Context, EMPTY
from helpers import (
    I,
    O,
    clashing_terms,
    ksig,
    reference_check_type,
    reference_infer_type,
    typed_terms,
)

love = Const("love'")
joan = Const("joan'")
run = Const("run'")
mary = Const("mary'")
and_ = Const("and")


@pytest.fixture(scope="module")
def sig():
    return ksig()


def nd_sig() -> Signature:
    """ksig plus a judgments-as-types layer and two axioms."""
    ded = Const("ded")
    a, b = Var("a"), Var("b")
    decls = list(ksig().declarations) + [
        Declaration("ded", arrow(O, TYPE)),
        Declaration("andI", Pi("a", O, Pi("b", O, arrow(
            App(ded, a), App(ded, b), App(ded, app(and_, a, b)))))),
        Declaration("andEl", Pi("a", O, Pi("b", O, arrow(
            App(ded, app(and_, a, b)), App(ded, a))))),
        Declaration("andEr", Pi("a", O, Pi("b", O, arrow(
            App(ded, app(and_, a, b)), App(ded, b))))),
        Declaration("a1", App(ded, App(run, mary))),
        Declaration("a2", App(ded, App(run, joan))),
    ]
    return Signature(decls)


class TestInfer:
    def test_fully_applied_predicate(self, sig):
        assert infer_type(sig, EMPTY, app(love, joan, joan)) == O

    def test_language_theory_term(self):
        lang = Signature([
            Declaration("Stmt", TYPE),
            Declaration("Person", TYPE),
            Declaration("Action", TYPE),
            Declaration("act", arrow(Const("Person"), Const("Action"), Const("Stmt"))),
            Declaration("joan", Const("Person")),
            Declaration("mary", Const("Person")),
            Declaration("love", arrow(Const("Person"), Const("Action"))),
        ])
        t = app(Const("act"), Const("joan"), App(Const("love"), Const("mary")))
        assert infer_type(lang, EMPTY, t) == Const("Stmt")

    def test_individual_applied_is_not_a_function(self, sig):
        with pytest.raises(NotAFunction):
            infer_type(sig, EMPTY, App(joan, joan))

    def test_wrong_argument_type(self, sig):
        with pytest.raises(TypeMismatch):
            infer_type(sig, EMPTY, App(run, App(run, joan)))

    def test_unknown_constant(self, sig):
        with pytest.raises(UnknownConstant):
            infer_type(sig, EMPTY, Const("zorp"))

    def test_unbound_variable(self, sig):
        with pytest.raises(UnknownConstant):
            infer_type(sig, EMPTY, Var("x"))

    def test_context_variables(self, sig):
        ctx = Context((("x", I),))
        assert infer_type(sig, ctx, App(run, Var("x"))) == O

    def test_annotated_lambda(self, sig):
        t = Lam("x", I, app(love, Var("x"), Var("x")))
        assert alpha_eq(infer_type(sig, EMPTY, t), arrow(I, O))

    def test_unannotated_lambda_needs_checking_mode(self, sig):
        t = Lam("x", None, App(run, Var("x")))
        with pytest.raises(UntypedBinder):
            infer_type(sig, EMPTY, t)
        check_type(sig, EMPTY, t, arrow(I, O))  # does not raise

    def test_checking_rejects_bad_body(self, sig):
        t = Lam("x", None, Var("x"))
        with pytest.raises(TypeMismatch):
            check_type(sig, EMPTY, t, arrow(I, O))

    def test_kind_level(self, sig):
        assert infer_type(sig, EMPTY, TYPE) == KIND
        assert infer_type(sig, EMPTY, arrow(O, TYPE)) == KIND
        assert infer_type(sig, EMPTY, arrow(I, O)) == TYPE

    def test_judgment_former_application(self):
        sig = nd_sig()
        assert infer_type(sig, EMPTY, App(Const("ded"), App(run, mary))) == TYPE

    def test_dependent_application(self):
        sig = nd_sig()
        proof = app(Const("andI"), App(run, mary), App(run, joan),
                    Const("a1"), Const("a2"))
        got = infer_type(sig, EMPTY, proof)
        assert got == App(Const("ded"), app(and_, App(run, mary), App(run, joan)))

    def test_defined_constant_type_via_definiens(self):
        sig = Signature([
            Declaration("o", TYPE),
            Declaration("p", Const("o")),
            Declaration("alias", None, Const("p")),
        ])
        assert infer_type(sig, EMPTY, Const("alias")) == Const("o")

    def test_application_through_type_alias(self):
        # f : pred, pred := ι -> o: the Pi is exposed by δ during checking
        sig = Signature([
            Declaration("o", TYPE),
            Declaration("ι", TYPE),
            Declaration("pred", None, arrow(I, O)),
            Declaration("f", Const("pred")),
            Declaration("c", I),
        ])
        assert infer_type(sig, EMPTY, App(Const("f"), Const("c"))) == O


class TestCheckProof:
    def test_corpus_conjunction_proof(self):
        sig = nd_sig()
        proof = app(Const("andI"), App(run, mary), App(run, joan),
                    Const("a1"), Const("a2"))
        result = check_proof(sig, proof, app(and_, App(run, mary), App(run, joan)))
        assert result

    def test_wrong_axiom_rejected(self):
        sig = nd_sig()
        result = check_proof(sig, Const("a1"), App(run, joan))
        assert not result
        assert "expected" in result.reason

    def test_elimination_proof(self):
        sig = nd_sig()
        both = app(Const("andI"), App(run, mary), App(run, joan),
                   Const("a1"), Const("a2"))
        proof = app(Const("andEl"), App(run, mary), App(run, joan), both)
        assert check_proof(sig, proof, App(run, mary))

    def test_swapped_axioms_rejected(self):
        sig = nd_sig()
        proof = app(Const("andI"), App(run, mary), App(run, joan),
                    Const("a2"), Const("a1"))
        assert not check_proof(sig, proof, app(and_, App(run, mary), App(run, joan)))

    def test_ill_typed_proof_is_diagnostic_not_crash(self):
        sig = nd_sig()
        result = check_proof(sig, App(joan, joan), App(run, mary))
        assert not result and result.reason

    def test_constant_types_outlive_the_checker(self):
        sig = diff_sig()
        assert Checker(sig).infer(EMPTY, app(Const("f"), Const("c"))) == O
        assert sig.constant_types == {"f": arrow(I, O), "c": I}
        # A constant typed by its definiens is stored under its own name.
        assert Checker(sig).infer(EMPTY, Const("alias")) == O
        assert sig.constant_types["alias"] == O

    def test_an_ill_typed_constant_raises_each_time_and_is_not_kept(self):
        sig = Signature(list(diff_sig().declarations) + [Declaration("bad", None, App(joan, joan))])
        for checker in (Checker(sig), Checker(sig)):
            for _ in range(2):
                assert outcome(lambda: checker.infer(EMPTY, Const("bad"))) == outcome(
                    lambda: reference_infer_type(sig, EMPTY, Const("bad")))
        assert "bad" not in sig.constant_types
        assert "nobody" not in sig.constant_types
        with pytest.raises(UnknownConstant):
            Checker(sig).infer(EMPTY, Const("nobody"))
        assert "nobody" not in sig.constant_types

    def test_a_name_made_ambiguous_raises_as_with_a_fresh_checker(self):
        decls = [Declaration("o", TYPE, home="T"), Declaration("c", Const("o"), home="T"),
                 Declaration("f", arrow(Const("o"), Const("o")), home="T")]
        extra = Declaration("c", Const("o"), home="U")
        term = App(Const("f"), Const("c"))
        sig = Signature(decls)
        before = Checker(sig)
        assert before.infer(EMPTY, term) == Const("o")
        assert set(sig.constant_types) == {"f", "c"}
        sig.add(extra)
        assert sig.constant_types == {}
        fresh = Signature(decls + [extra])
        want = outcome(lambda: Checker(fresh).infer(EMPTY, term))
        assert want[0] is DuplicateName and "T?c, U?c" in want[1]
        assert outcome(lambda: Checker(sig).infer(EMPTY, term)) == want
        assert outcome(lambda: before.infer(EMPTY, Const("c"))) == outcome(
            lambda: Checker(fresh).infer(EMPTY, Const("c")))
        assert outcome(lambda: reference_infer_type(sig, EMPTY, term)) == want
        assert Checker(sig).infer(EMPTY, App(Const("f"), Const("U?c"))) == Const("o")

    def test_explicit_judgment_override(self):
        sig = nd_sig()
        assert check_proof(sig, Const("a1"), App(run, mary), judgment="ded")


def diff_sig() -> Signature:
    """nd_sig plus the constants `clashing_terms` draws, a type alias, and a
    constant typed only through its definiens."""
    return Signature(list(nd_sig().declarations) + [
        Declaration("c", I),
        Declaration("f", arrow(I, O)),
        Declaration("g", arrow(arrow(I, O), O)),
        Declaration("pred", None, arrow(I, O)),
        Declaration("h", Const("pred")),
        Declaration("alias", None, App(run, joan)),
    ])


DIFF_SIG = diff_sig()
CONTEXTS = (
    EMPTY,
    Context((("x", I),)),
    Context((("x", I), ("y", O))),
    Context((("$0", arrow(I, O)), ("x", O))),
    Context((("x", O), ("x", I))),
)
EXPECTED = (O, I, arrow(I, O), arrow(O, O), TYPE)
diff_terms = st.one_of(typed_terms(DIFF_SIG), clashing_terms())


def outcome(run):
    """What `run` returns, or the class and message of the error it raises."""
    try:
        return run()
    except GlfError as err:
        return type(err), str(err)


def assert_same(got, want):
    if got is None or want is None or isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
    else:
        assert alpha_eq(got, want), (show(got), show(want))


def in_context(binder_type: Term) -> Term:
    """`(λx : binder_type. run' x) arg`, with an argument of that type."""
    arg = {I: joan, O: Const("sunny'")}[binder_type]
    return App(Lam("x", binder_type, App(run, Var("x"))), arg)


#: `run' x` occurs under x : ι and under x : o. Keyed by its node alone,
#: the memo would find the first occurrence's type for the second, which
#: is ill-typed.
RUN_X_UNDER_TWO_TYPES = app(and_, in_context(I), in_context(O))


class TestAgainstTheReference:
    """The memoizing checker against the recursive one it replaced: the
    same type up to α, or the same error class with the same message."""

    @given(diff_terms, st.sampled_from(CONTEXTS), st.sampled_from(EXPECTED))
    @example(RUN_X_UNDER_TWO_TYPES, EMPTY, O)
    @settings(max_examples=300, deadline=None)
    def test_one_term(self, t, ctx, expected):
        assert_same(outcome(lambda: infer_type(DIFF_SIG, ctx, t)),
                    outcome(lambda: reference_infer_type(DIFF_SIG, ctx, t)))
        assert_same(outcome(lambda: check_type(DIFF_SIG, ctx, t, expected)),
                    outcome(lambda: reference_check_type(DIFF_SIG, ctx, t, expected)))

    @given(
        st.lists(st.tuples(diff_terms, st.sampled_from(CONTEXTS)), min_size=2, max_size=5),
        st.sampled_from(EXPECTED),
    )
    @example([(in_context(I), EMPTY), (in_context(O), EMPTY)], O)
    @example([(App(run, Var("x")), CONTEXTS[1]), (App(run, Var("x")), CONTEXTS[3])], O)
    @settings(max_examples=150, deadline=None)
    def test_terms_checked_by_one_checker(self, items, expected):
        checker = Checker(DIFF_SIG)
        for t, ctx in items:
            assert_same(outcome(lambda: checker.check(ctx, t, expected)),
                        outcome(lambda: reference_check_type(DIFF_SIG, ctx, t, expected)))
            assert_same(outcome(lambda: checker.infer(ctx, t)),
                        outcome(lambda: reference_infer_type(DIFF_SIG, ctx, t)))

    def test_shared_subterms_are_inferred_once(self):
        checker = Checker(DIFF_SIG)
        left = app(and_, App(run, joan), App(run, mary))
        checker.check(EMPTY, app(and_, left, App(run, joan)), O)
        before = len(checker._app_types)
        checker.check(EMPTY, app(and_, App(run, joan), app(and_, App(run, mary), App(run, joan))), O)
        # Of the new bracketing's seven App nodes, only the three that
        # bracket differently are inferred; the rest are looked up.
        assert len(checker._app_types) == before + 3

    def test_each_weak_head_form_is_worked_out_once(self, monkeypatch):
        asked = []

        def counting_whnf(sig, t, **kwargs):
            asked.append(t)
            return whnf(sig, t, **kwargs)

        monkeypatch.setattr(typecheck, "whnf", counting_whnf)
        checker = Checker(DIFF_SIG)
        checker.check(EMPTY, app(and_, App(run, joan), App(run, mary)), O)
        checker.check(EMPTY, app(and_, App(run, mary), app(and_, App(run, joan), App(run, joan))), O)
        assert asked and len(asked) == len(set(asked))
        assert set(asked) == set(checker._whnfs)

    def test_a_diverging_type_raises_each_time(self):
        omega = App(Lam("x", None, App(Var("x"), Var("x"))), Lam("x", None, App(Var("x"), Var("x"))))
        checker = Checker(DIFF_SIG)
        for _ in range(2):
            with pytest.raises(NonTerminationGuard):
                checker.check(EMPTY, joan, omega)
        assert omega not in checker._whnfs
        with pytest.raises(NonTerminationGuard):
            reference_check_type(DIFF_SIG, EMPTY, joan, omega)

    def test_equal_contexts_share_inferences(self):
        # Made apart, by the constructor and by `extend`, equal bindings
        # give equal keys, so the second context finds the first's types.
        made = Context((("x", I), ("y", O)))
        extended = EMPTY.extend("x", I).extend("y", O)
        assert made.key == extended.key and hash(made.key) == hash(extended.key)
        assert made.key != EMPTY.extend("y", O).extend("x", I).key
        t = app(and_, Var("y"), App(run, Var("x")))
        checker = Checker(DIFF_SIG)
        assert checker.infer(made, t) == O
        before = len(checker._app_types)
        assert checker.infer(extended, t) == O
        assert len(checker._app_types) == before
        assert checker.infer(EMPTY.extend("x", I).extend("y", I), App(run, Var("y"))) == O
        assert len(checker._app_types) == before + 1
