import gc
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from glf.errors import HoleApplied, NonTerminationGuard
from glf.kernel import (
    App,
    Const,
    Lam,
    Normalizer,
    Pi,
    Var,
    alpha_eq,
    app,
    arrow,
    def_eq,
    free_vars,
    infer_type,
    lam,
    normalize,
    substitute,
    whnf,
)
from glf.kernel import reduce as reduce_module
from glf.kernel.declarations import Declaration, Signature
from glf.kernel.reduce import DEFAULT_BUDGET
from glf.kernel.terms import show
from glf.kernel.typecheck import EMPTY
from helpers import (
    O,
    _Budget,
    applicative_normalize,
    clashing_terms,
    cyclic_garbage,
    ksig,
    reference_normalize,
    reference_whnf,
    signature_terms,
    typed_terms,
    untyped_terms,
)

love = Const("love'")
joan = Const("joan'")
mary = Const("mary'")
john = Const("john'")
run = Const("run'")
and_ = Const("and")
neg = Const("neg")


@pytest.fixture(scope="module")
def sig():
    return ksig()


class TestBeta:
    def test_semantics_construction_simplification(self, sig):
        # ([pers,action] action pers) joan' ([x] love' x x)  ~~>  love' joan' joan'
        t = app(
            lam(["pers", "action"], App(Var("action"), Var("pers"))),
            joan,
            Lam("x", None, app(love, Var("x"), Var("x"))),
        )
        assert normalize(sig, t) == app(love, joan, joan)

    def test_type_raised_coordination(self, sig):
        # ([p] (p john') ∧ (p mary')) run'  ~~>  (run' john') ∧ (run' mary')
        t = App(
            Lam("p", None, app(and_, App(Var("p"), john), App(Var("p"), mary))),
            run,
        )
        assert normalize(sig, t) == app(and_, App(run, john), App(run, mary))

    def test_identity(self, sig):
        assert normalize(sig, App(Lam("x", None, Var("x")), Const("c"))) == Const("c")

    def test_reduces_under_binders(self, sig):
        t = Lam("y", None, App(Lam("x", None, Var("x")), Var("y")))
        assert normalize(sig, t) == Lam("y", None, Var("y"))


class TestDelta:
    def test_applied_defined_constant_unfolds(self, sig):
        t = app(Const("or"), Var("a"), Var("b"))
        expected = app(neg, app(and_, App(neg, Var("a")), App(neg, Var("b"))))
        assert normalize(sig, t) == expected

    def test_unapplied_defined_constant_stays_opaque(self, sig):
        t = App(Var("f"), Const("or"))
        assert normalize(sig, t) == t

    def test_full_delta_via_flag(self, sig):
        t = Const("or")
        result = normalize(sig, t, delta="full")
        assert isinstance(result, Lam)

    def test_def_eq_sees_through_definitions(self, sig):
        left = app(Const("or"), App(run, joan), App(run, mary))
        right = app(neg, app(and_, App(neg, App(run, joan)), App(neg, App(run, mary))))
        assert def_eq(sig, left, right)
        assert not def_eq(sig, left, App(run, joan))

    def test_no_signature_is_pure_beta(self):
        t = app(Const("or"), Var("a"), Var("b"))
        assert normalize(None, t) == t

    @pytest.mark.parametrize("delta", ["bogus", "none"])
    def test_unknown_delta_policy_rejected(self, sig, delta):
        t = app(Const("or"), Var("a"), Var("b"))
        with pytest.raises(ValueError, match="unknown δ policy"):
            Normalizer(sig, delta=delta)
        with pytest.raises(ValueError, match="unknown δ policy"):
            whnf(sig, t, delta=delta)
        with pytest.raises(ValueError, match="unknown δ policy"):
            normalize(sig, t, delta=delta)


class TestBudget:
    def test_omega_raises(self):
        omega = Lam("x", None, App(Var("x"), Var("x")))
        with pytest.raises(NonTerminationGuard):
            normalize(None, App(omega, omega))

    def test_budget_configurable(self, sig):
        t = App(Lam("x", None, Var("x")), App(Lam("y", None, Var("y")), Const("c")))
        assert normalize(sig, t, budget=2) == Const("c")
        with pytest.raises(NonTerminationGuard):
            normalize(sig, t, budget=1)


class TestProperties:
    @given(typed_terms(ksig()))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, t):
        sig = ksig()
        once = normalize(sig, t)
        assert alpha_eq(normalize(sig, once), once)

    @given(typed_terms(ksig()))
    @settings(max_examples=150, deadline=None)
    def test_confluence_across_strategies(self, t):
        sig = ksig()
        assert alpha_eq(normalize(sig, t), applicative_normalize(sig, t))

    @given(typed_terms(ksig()))
    @settings(max_examples=100, deadline=None)
    def test_subject_reduction(self, t):
        sig = ksig()
        before = infer_type(sig, EMPTY, t)
        after = infer_type(sig, EMPTY, normalize(sig, t))
        assert alpha_eq(normalize(sig, before), normalize(sig, after))


DELTAS = ("applied", "full")
OMEGA = App(Lam("x", None, App(Var("x"), Var("x"))), Lam("x", None, App(Var("x"), Var("x"))))


@st.composite
def shared_propositions(draw):
    """Propositions, some built from others, some repeated, in any order."""
    base = draw(st.lists(typed_terms(ksig(), O), min_size=1, max_size=4))
    pairs = draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from(base)), max_size=4))
    terms = base + [app(Const(c), a, b) for (a, b), c in zip(pairs, ["and", "or"] * 2)]
    terms += draw(st.lists(st.sampled_from(terms), max_size=3))
    return draw(st.permutations(terms))


class TestSharedNormalizer:
    """One `Normalizer` across many terms returns what a fresh,
    unmemoized normalization of each returns: the very same node."""

    @given(shared_propositions(), st.sampled_from(DELTAS))
    @settings(max_examples=100, deadline=None)
    def test_same_nodes_as_the_reference(self, terms, delta):
        sig = ksig()
        normal = Normalizer(sig, delta=delta)
        for t in terms:
            assert normal(t) is reference_normalize(sig, t, delta=delta)

    @given(shared_propositions(), st.integers(0, 8), st.sampled_from(DELTAS))
    @settings(max_examples=50, deadline=None)
    def test_divergence_raises_wherever_it_comes(self, terms, at, delta):
        sig = ksig()
        diverging = app(Const("and"), Const("sunny'"), OMEGA)
        normal = Normalizer(sig, delta=delta, budget=500)
        before, after = terms[:at], terms[at:]
        for t in before:
            assert normal(t) is reference_normalize(sig, t, delta=delta, budget=500)
        for _ in range(2):
            with pytest.raises(NonTerminationGuard):
                normal(diverging)
        for t in after:
            assert normal(t) is reference_normalize(sig, t, delta=delta, budget=500)

    def test_nodes_that_print_alike_stay_apart(self, sig):
        # `sunny'` the variable and `sunny'` the constant print alike.
        twice = Lam("p", None, app(and_, Var("p"), Var("p")))
        normal = Normalizer(sig)
        for arg in (Var("sunny'"), Const("sunny'")):
            assert normal(App(twice, arg)) is app(and_, arg, arg)

    def test_diverging_term_alone(self):
        with pytest.raises(NonTerminationGuard):
            Normalizer(None, budget=500)(OMEGA)

    def test_each_term_gets_its_own_budget(self, sig):
        # Two β-steps each: a budget shared across terms would run out.
        t = App(Lam("x", None, Var("x")), App(Lam("y", None, Var("y")), Const("c")))
        u = App(Lam("x", None, Var("x")), App(Lam("y", None, Var("y")), Const("d")))
        normal = Normalizer(sig, budget=2)
        assert normal(t) is Const("c")
        assert normal(u) is Const("d")

    def test_non_terms_fail_every_time(self, sig):
        t = App(Const("run'"), "john")
        normal = Normalizer(sig)
        for _ in range(2):
            with pytest.raises(TypeError, match="not a term: 'john'"):
                normal(t)
        # A non-term as a redex's argument, alone or after a closed one.
        for t in (App(Lam("x", None, Var("x")), "john"),
                  app(lam(["x", "y"], Var("y")), Const("c"), "john")):
            for _ in range(2):
                with pytest.raises(TypeError, match="not a term: 'john'"):
                    normalize(None, t)

    def test_the_memo_dies_with_its_normalizer(self, sig):
        # Without the cyclic collector, only reference counting can free
        # the memo, and with it the redex that is one of its keys.
        t = App(Lam("p", None, app(and_, Var("p"), Var("p"))), App(run, mary))
        held = weakref.ref(t)
        gc.disable()
        try:
            normal = Normalizer(sig)
            assert normal(t) is app(and_, App(run, mary), App(run, mary))
            del normal, t
            assert held() is None
        finally:
            gc.enable()


_spine_names = st.sampled_from(["x", "y", "z"])
_closed_args = st.sampled_from([Const("c"), Const("d"), Lam("x", O, Var("x")),
                                Lam("y", None, app(Const("f"), Var("y"), Const("c")))])


@st.composite
def redex_spines(draw):
    """`(λx₁…xₖ. B) a₁…aₙ` and the β-steps its normal form takes.

    Binder names repeat, so one binder can shadow another; binders may be
    typed. Arguments are closed terms, or variables that a binder inside
    B captures unless it is renamed. B holds no redex and no argument
    lands at the head of one, so each binder an argument meets is one
    step and there are no others.
    """
    binders = draw(st.lists(st.tuples(_spine_names, st.none() | st.just(O)),
                            min_size=1, max_size=4))
    body = app(Const("f"), *draw(st.lists(_spine_names.map(Var), max_size=4)))
    inner = draw(st.none() | _spine_names)
    if inner is not None:
        binders.append((inner, None))
        body = app(body, Var(inner))
    args = draw(st.lists(_closed_args | _spine_names.map(Var), max_size=5))
    return app(lam(binders, body), *args), min(len(binders), len(args))


_spine_heads = st.sampled_from([Lam("x", None, Var("x")), Const("or"),
                                Lam("y", None, Lam("z", None, app(Const("g"), Var("z"), Var("y"))))])


@st.composite
def spine_body_redexes(draw):
    """`(λx₁…xₖ. h b₁…bₘ) a₁…aₙ`, whose body after the binders is a spine.

    Its head may be a bound variable that an argument makes a redex, and
    its arguments may hold a binder that captures an open argument unless
    `rename_away` renames it. Arguments are closed terms, λs that a head
    applies, or variables.
    """
    binders = draw(st.lists(st.tuples(_spine_names, st.none() | st.just(O)),
                            min_size=1, max_size=3))
    head = draw(_spine_names.map(Var) | st.just(Const("f")))
    capturing = st.tuples(_spine_names, _spine_names).map(
        lambda p: Lam(p[0], None, app(Const("f"), Var(p[1]), Var(p[0]))))
    spine_args = draw(st.lists(_spine_names.map(Var) | _closed_args | capturing,
                               min_size=1, max_size=3))
    args = draw(st.lists(_closed_args | _spine_heads | _spine_names.map(Var),
                         min_size=1, max_size=5))
    return app(lam(binders, app(head, *spine_args)), *args)


def least_budget(run) -> int:
    """The least step budget that `run(budget)` completes within."""
    budget = 0
    while True:
        try:
            run(budget)
            return budget
        except NonTerminationGuard:
            budget += 1


def untyped_spines():
    """Redex spines over untyped terms; they may diverge or grow."""
    return st.tuples(clashing_terms(), st.lists(clashing_terms(3), max_size=4)).map(
        lambda p: app(p[0], *p[1]))


def outcome(normalize_, *args, **kwargs):
    """What a normalizer gives: the node, or the guard's class."""
    try:
        return normalize_(*args, **kwargs)
    except NonTerminationGuard:
        return NonTerminationGuard


OMEGA2 = app(Lam("x", None, Lam("y", None, app(Var("x"), Var("x"), Var("y")))),
             Lam("x", None, Lam("y", None, app(Var("x"), Var("x"), Var("y")))), Const("c"))


class TestOneWalkContraction:
    """Contracting a spine's closed arguments in one walk, and handing the
    weak head normal form to `norm` unbuilt, changes no result and no
    step count: the reference contracts one binder at a time and rebuilds
    every spine."""

    @given(redex_spines())
    @example((app(lam(["x", "x"], app(Const("f"), Var("x"))), Const("c"), Const("d")), 2))
    @example((App(Lam("x", None, Lam("y", None, app(Var("x"), Var("y")))), Var("y")), 1))
    @settings(max_examples=150, deadline=None)
    def test_same_nodes_as_the_reference(self, case):
        t, _ = case
        want = reference_normalize(None, t)
        assert normalize(None, t) is want
        assert Normalizer(None)(t) is want

    @given(untyped_spines())
    @settings(max_examples=150, deadline=None)
    def test_untyped_spines_give_the_reference(self, t):
        want = outcome(reference_normalize, None, t, budget=200)
        assume(want is not NonTerminationGuard)
        assert normalize(None, t, budget=200) is want

    @given(typed_terms(ksig()) | redex_spines().map(lambda case: case[0]),
           st.sampled_from(DELTAS))
    # An open argument after a closed one: its binder's body renames z.
    @example(app(lam(["x", "y"], Lam("z", None, app(Const("f"), Var("x"), Var("y"), Var("z")))),
                 Const("c"), Var("z")), "applied")
    # A closed argument after an open one: y is not free under λz, so z stays.
    @example(app(lam(["y", "x"], app(Const("g"), Var("y"),
                                     Lam("z", None, app(Const("f"), Var("x"), Var("z"))))),
                 Var("z"), Const("c")), "applied")
    @settings(max_examples=150, deadline=None)
    def test_whnf_is_the_reference(self, t, delta):
        sig = ksig()
        assert whnf(sig, t, delta=delta) is reference_whnf(t, sig, delta, _Budget(DEFAULT_BUDGET))

    @given(redex_spines())
    @example((app(Const("or"), Const("sunny'"), Const("windy'")), 3))
    @example((app(Lam("p", None, app(Const("or"), Var("p"), Var("p"))), Const("sunny'")), 4))
    @settings(max_examples=100, deadline=None)
    def test_exactly_the_steps_the_reference_spends(self, case):
        t, steps = case
        assume(steps > 0)
        sig = ksig()
        want = reference_normalize(sig, t, budget=steps)
        for normalize_ in (reference_normalize, normalize):
            assert normalize_(sig, t, budget=steps) is want
            with pytest.raises(NonTerminationGuard):
                normalize_(sig, t, budget=steps - 1)
        assert Normalizer(sig, budget=steps)(t) is want
        with pytest.raises(NonTerminationGuard):
            Normalizer(sig, budget=steps - 1)(t)
        head = reference_whnf(t, sig, "applied", _Budget(steps))
        assert whnf(sig, t, budget=steps) is head
        for whnf_ in (lambda: whnf(sig, t, budget=steps - 1),
                      lambda: reference_whnf(t, sig, "applied", _Budget(steps - 1))):
            with pytest.raises(NonTerminationGuard):
                whnf_()

    @pytest.mark.parametrize("t", [OMEGA, OMEGA2], ids=["one binder", "two binders"])
    def test_self_application_still_diverges(self, t):
        for run in (lambda: whnf(None, t), lambda: normalize(None, t),
                    lambda: Normalizer(None, budget=500)(t)):
            with pytest.raises(NonTerminationGuard):
                run()

    # Each example costs two full collections, so each runs a batch.
    @given(st.lists(redex_spines(), min_size=1, max_size=20),
           st.lists(spine_body_redexes(), min_size=1, max_size=20))
    @settings(max_examples=10, deadline=None)
    def test_leaves_no_cyclic_garbage(self, cases, spine_bodies):
        sig = ksig()
        terms = [t for t, _ in cases] + spine_bodies
        assert cyclic_garbage(lambda: [normalize(sig, t) for t in terms]) == 0
        assert cyclic_garbage(lambda: [whnf(sig, t) for t in terms]) == 0

    @given(spine_body_redexes())
    @example(app(Lam("x", None, app(Var("x"), Lam("y", None, app(Const("f"), Var("x"), Var("y"))))),
                 Var("y")))
    @example(app(lam(["x", "y"], app(Var("x"), Var("y"), Const("c"))),
                 Lam("z", None, Lam("y", None, app(Const("g"), Var("y"), Var("z")))), Var("y")))
    @settings(max_examples=150, deadline=None)
    def test_spine_bodies_give_the_reference_nodes(self, t):
        # The body left after the binders is a spine: its head and its
        # arguments are substituted apart, and never rebuilt into a spine.
        sig = ksig()
        want = reference_normalize(sig, t)
        assert normalize(sig, t) is want
        assert Normalizer(sig)(t) is want
        for delta in DELTAS:
            assert whnf(sig, t, delta=delta) is reference_whnf(
                t, sig, delta, _Budget(DEFAULT_BUDGET))

    @given(spine_body_redexes())
    @settings(max_examples=100, deadline=None)
    def test_spine_bodies_spend_the_reference_steps(self, t):
        sig = ksig()
        steps = least_budget(lambda b: reference_normalize(sig, t, budget=b))
        assert normalize(sig, t, budget=steps) is reference_normalize(sig, t)
        for run in (lambda: normalize(sig, t, budget=steps - 1),
                    lambda: Normalizer(sig, budget=steps - 1)(t)):
            with pytest.raises(NonTerminationGuard):
                run()
        head_steps = least_budget(lambda b: reference_whnf(t, sig, "applied", _Budget(b)))
        assert whnf(sig, t, budget=head_steps) is reference_whnf(
            t, sig, "applied", _Budget(head_steps))
        if head_steps:
            with pytest.raises(NonTerminationGuard):
                whnf(sig, t, budget=head_steps - 1)


def reference_steps(sig, t, delta: str) -> int:
    """The steps `reference_normalize` spends on `t`: counted without a memo."""
    spent = 0
    spend = _Budget.spend

    def counted(budget):
        nonlocal spent
        spent += 1
        spend(budget)

    _Budget.spend = counted
    try:
        reference_normalize(sig, t, delta=delta, budget=CONTEXT_BUDGET)
    finally:
        _Budget.spend = spend
    return spent


CONTEXT_BUDGET = 300
I = Lam("z", None, Var("z"))


def some_terms(max_leaves: int):
    return clashing_terms(max_leaves // 3) | signature_terms(ksig(), max_leaves)


@st.composite
def terms_with_x_free(draw):
    """Terms in which `x`, the hole's place, is free: a free variable of a
    random term renamed `x`, or `x` applied to it, or it to `x`."""
    t = draw(some_terms(12))
    if "x" in free_vars(t):
        return t
    free = sorted(free_vars(t))
    if free and draw(st.booleans()):
        return substitute(t, draw(st.sampled_from(free)), Var("x"))
    return draw(st.sampled_from([App(Var("x"), t), App(t, Var("x")),
                                 Lam("y", None, app(Var("x"), Var("y"), t))]))


class TestContexts:
    """A context C[η] normalized once, then a closed argument plugged into
    its normal form, gives the node that normalizing C[arg] gives; and,
    counted without the memo, the context's steps and the plugged term's
    add up to C[arg]'s. Where η heads a spine whose arguments are not
    normal, forming the context raises `HoleApplied`, and no context is
    kept."""

    @given(terms_with_x_free(), st.lists(some_terms(6), min_size=1, max_size=3),
           st.sampled_from(DELTAS))
    # η reaches head position with a normal argument.
    @example(App(Lam("y", None, App(Var("y"), Const("c"))), Var("x")), [I], "applied")
    # The argument stands in the context as it is: the memo meets it there.
    @example(app(Const("g"), App(I, Var("x")), App(I, Const("c"))), [Const("c")], "applied")
    # η heads a redex's spine: an argument that drops its parameter would
    # spend the redex's step in the context, and none in C[arg].
    @example(App(Var("x"), App(I, Const("c"))), [Lam("p", None, Const("d"))], "applied")
    # η under a binder that an open argument's substitution renames.
    @example(app(Lam("y", None, Lam("z", None, app(Var("x"), Var("y"), Var("z")))), Var("z")),
             [lam(["a", "b"], Var("a"))], "applied")
    @settings(max_examples=150, deadline=None)
    def test_plugged_context_gives_the_reference(self, body, args, delta):
        sig = ksig()
        normal = Normalizer(sig, delta=delta, budget=CONTEXT_BUDGET)
        hole = normal.hole()
        context = substitute(body, "x", hole)
        try:
            prefix = normal.context(context, hole)
        except NonTerminationGuard:
            return
        if prefix is None:  # HoleApplied
            return
        _, shared, _ = normal._contexts[prefix]
        context_steps = reference_steps(sig, context, delta)
        for arg in args:
            arg = lam(sorted(free_vars(arg)), arg)
            whole = substitute(body, "x", arg)
            want = outcome(reference_normalize, sig, whole, delta=delta, budget=CONTEXT_BUDGET)
            if want is NonTerminationGuard:
                continue
            plugged = substitute(shared, hole.name, arg)
            assert normal(plugged) is want
            assert context_steps + reference_steps(sig, plugged, delta) == reference_steps(
                sig, whole, delta)

    def test_a_hole_applied_to_a_redex_raises(self):
        normal = Normalizer(None)
        hole = normal.hole()
        c = Lam("y", None, App(hole, App(I, Var("y"))))
        with pytest.raises(HoleApplied):
            normal._norm(c, reduce_module._Budget(10))
        # Forming the context catches it, and keeps no context.
        assert normal.context(c, hole) is None and normal._contexts[Lam(hole.name, None, c)] is None
        # Anywhere but at the head of a spine, the hole is a free variable.
        hole = normal.hole()
        prefix = normal.context(app(Const("f"), hole, App(I, Const("c"))), hole)
        _, shared, applied = normal._contexts[prefix]
        assert shared is app(Const("f"), hole, Const("c")) and not applied
        hole = normal.hole()
        prefix = normal.context(App(hole, Const("c")), hole)
        _, shared, applied = normal._contexts[prefix]
        assert shared is App(hole, Const("c")) and applied

    def test_each_context_gets_a_hole_of_its_own(self):
        normal = Normalizer(None)
        assert [normal.hole() for _ in range(3)] == [Var("η0"), Var("η1"), Var("η2")]
        assert Normalizer(None).hole() == Var("η0")


@st.composite
def prefix_families(draw):
    """(signature, terms): one prefix applied to several closed arguments,
    now and then to a term that applies it already. The prefix and the
    arguments are well typed over `ksig`, the hole taking a proposition or
    a function on them, or untyped; an untyped prefix is mostly a λ whose
    variable occurs in its body, so that it heads a redex."""
    if draw(st.booleans()):
        sig = ksig()
        prop, fun = typed_terms(sig, O), typed_terms(sig, arrow(O, O))
        if draw(st.booleans()):
            prefix = draw(fun | prop.map(lambda x: Lam("p", O, app(Const("and"), Var("p"), x)))
                          | prop.map(lambda x: Lam("p", O, app(Const("or"), x, Var("p"))))
                          | fun.map(lambda f: Lam("p", O, App(f, App(Const("neg"), Var("p"))))))
            args = draw(st.lists(prop, min_size=3, max_size=6))
        else:  # the hole heads a spine
            q = Var("q")
            prefix = draw(prop.map(lambda x: Lam("q", arrow(O, O), App(q, x)))
                          | prop.map(lambda x: Lam("q", arrow(O, O), App(q, App(q, x)))))
            args = draw(st.lists(fun, min_size=3, max_size=6))
    else:
        sig = None
        prefix = draw(untyped_terms(4) | terms_with_x_free().map(lambda t: Lam("x", None, t)))
        args = [lam(sorted(free_vars(a)), a)
                for a in draw(st.lists(untyped_terms(3), min_size=3, max_size=6))]
    terms = []
    for a in args:
        if terms and draw(st.booleans()):
            a = terms[-1]
        terms.append(App(prefix, a))
    return sig, terms


# P = λx. (Πx:x. x) x, applied three times. In the context P η the hole sits
# in a Π that heads a spine (an ill-typed term). Normal order normalizes that
# Π like any other, so the hole is a plain free variable there, and the
# normal form of P (P (λy.y)) holds P (λy.y) normalized.
PI_PREFIX = Lam("x", None, App(Pi("x", Var("x"), Var("x")), Var("x")))
PI_PREFIX_TERMS = [App(PI_PREFIX, Lam("x", None, Var("x"))),
                   App(PI_PREFIX, Lam("y", None, Var("y"))),
                   App(PI_PREFIX, App(PI_PREFIX, Lam("y", None, Var("y"))))]

# W X with W = λx. x x and X = λx. Πy:(λy. x x). c diverges, and each step
# nests one more Π domain and λ body: at a budget of 300 the recursion limit
# comes before the step budget runs out, at 50 it does not.
DEEPENING_TERM = App(Lam("x", None, App(Var("x"), Var("x"))),
                     Lam("x", None, Pi("y", Lam("y", None, App(Var("x"), Var("x"))), Const("c"))))


def spends(monkeypatch) -> list[int]:
    """A one-item list that counts the steps glf's budgets spend from now on."""
    spent = [0]
    spend = reduce_module._Budget.spend

    def counted(budget):
        spent[0] += 1
        spend(budget)

    monkeypatch.setattr(reduce_module._Budget, "spend", counted)
    return spent


class TestPrefixContexts:
    """A prefix P that heads a redex a third time with a closed argument is
    normalized once, as the context P η, and each P a from then on is its
    normal form with nf(a) in the hole: the very node normal order gives,
    and no more steps."""

    @given(prefix_families())
    @example((None, [App(Lam("x", None, app(Var("x"), Const("c"))), arg)
                     for arg in (Lam("y", None, Var("y")), Lam("z", None, Const("d")), I)]))
    @example((None, PI_PREFIX_TERMS))
    @settings(max_examples=200, deadline=None)
    def test_same_nodes_and_no_more_steps_than_the_reference(self, family):
        sig, terms = family
        normal = Normalizer(sig)
        for t in terms:
            want = outcome(reference_normalize, sig, t, budget=CONTEXT_BUDGET)
            if want is NonTerminationGuard:
                continue
            # The least budget the reference needs is enough here too.
            normal.budget = reference_steps(sig, t, "applied")
            assert normal(t) is want

    def test_a_hole_in_a_pi_heading_a_spine_is_plugged_as_it_stands(self):
        normal = Normalizer(None)
        for t in PI_PREFIX_TERMS:
            assert normal(t) is reference_normalize(None, t)
        hole, shared, applied = normal._contexts[PI_PREFIX]
        assert not applied and shared is App(Pi("x", hole, Var("x")), hole)

    def test_an_argument_the_context_drops_is_never_normalized(self):
        drop = Lam("x", None, App(Const("f"), Const("c")))
        normal = Normalizer(None, budget=50)
        for arg in (Const("d"), Const("e")):
            assert normal(App(drop, arg)) is App(Const("f"), Const("c"))
        # Met a third time: its context holds no hole, so the diverging
        # argument is never looked at, as normal order never looks at it.
        assert normal(App(drop, OMEGA)) is App(Const("f"), Const("c"))
        assert normal._contexts[drop][1] is App(Const("f"), Const("c"))

    def test_a_hole_at_the_head_with_normal_arguments_reduces_on(self):
        # λx. λy. x y: the hole applied to y, which is normal; the plugged
        # argument's binder y is renamed as normal order renames it.
        apply = Lam("x", None, Lam("y", None, App(Var("x"), Var("y"))))
        args = [lam(["a", "y"], app(Const("g"), Var("a"), Var("y"))),
                lam(["a"], app(Const("f"), Var("a"), Var("a"))),
                lam(["b", "c"], Var("c"))]
        normal = Normalizer(None)
        for arg in args:
            t = App(apply, arg)
            assert normal(t) is reference_normalize(None, t)
        hole, shared, applied = normal._contexts[apply]
        assert applied and shared is Lam("y", None, App(hole, Var("y")))

    def test_a_hole_applied_to_a_redex_falls_back_to_normal_order(self):
        redex = Lam("x", None, App(Var("x"), App(I, Const("c"))))
        normal = Normalizer(None)
        for arg in (I, Lam("w", None, Const("d")), Lam("w", None, App(Var("w"), Var("w")))):
            t = App(redex, arg)
            # The failed context charges no step: the least budget suffices.
            normal.budget = reference_steps(None, t, "applied")
            assert normal(t) is reference_normalize(None, t)
        assert not isinstance(normal._contexts[redex], tuple)  # no context for it

    def test_a_diverging_context_raises_one_guard(self, monkeypatch):
        diverging = Lam("x", None, app(Const("f"), Var("x"), OMEGA))
        normal = Normalizer(None, budget=100)
        for arg in (Const("c"), Const("e")):
            with pytest.raises(NonTerminationGuard):
                normal(App(diverging, arg))
        spent = spends(monkeypatch)
        with pytest.raises(NonTerminationGuard) as err:
            normal(App(diverging, Const("d")))  # the context P η diverges
        assert str(err.value) == "reduction exceeded the step budget of 100"
        assert spent[0] == 101  # the context's, and no second try in normal order

    def test_plugging_a_kept_context_spends_a_step(self, monkeypatch):
        # Normalizing W X plugs X's context into X X again and again: the
        # plug must spend the step of the redex it contracts, or the loop
        # spends none and overflows the stack at any budget.
        spent = spends(monkeypatch)
        with pytest.raises(NonTerminationGuard):
            Normalizer(None, budget=50)(DEEPENING_TERM)
        assert spent[0] == 51


def beta_redexes(t) -> list:
    """The β-redexes in `t`, each λ applied, wherever it is: inside a Π
    that heads a spine too."""
    found, todo = [], [t]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is App:
            if t.fn.__class__ is Lam:
                found.append(t)
            todo += [t.fn, t.arg]
        elif cls is Lam:
            todo += [t.body] if t.binder_type is None else [t.body, t.binder_type]
        elif cls is Pi:
            todo += [t.domain, t.codomain]
    return found


def lambda_definitions() -> Signature:
    """`ksig` with λ-definitions that unfold when applied: `twice f x` and
    `both p` (`and p p`)."""
    sig = ksig()
    sig.add(Declaration("twice", arrow(arrow(O, O), O, O),
                        lam(["f", "x"], App(Var("f"), App(Var("f"), Var("x"))))))
    sig.add(Declaration("both", arrow(O, O), Lam("p", O, app(and_, Var("p"), Var("p")))))
    return sig


class TestKnownNormalForms:
    """A signature keeps the normal forms its normalizers with δ "applied"
    found for closed terms, and its normalizers return them as they are."""

    @given(some_terms(12) | untyped_terms(4) | signature_terms(lambda_definitions(), 12))
    @example(app(Const("twice"), Const("neg"), App(Const("both"), Const("sunny'"))))
    @settings(max_examples=200, deadline=None)
    def test_a_normal_form_normalizes_to_itself(self, t):
        sig = lambda_definitions()
        try:
            n = normalize(sig, t, budget=CONTEXT_BUDGET)
        except (NonTerminationGuard, RecursionError):
            assume(False)
        assert (n in sig.known_normal) == (not free_vars(t))
        assert Normalizer(sig)(n) is n
        # Without the set, normalizing it again is a walk that gives it back.
        assert Normalizer(Signature(sig.declarations))(n) is n
        assert reference_normalize(sig, n) is n

    def test_a_term_known_under_one_signature_is_normalized_under_another(self):
        t = app(Const("twice"), Const("neg"), Const("sunny'"))
        opaque, unfolding = ksig(), lambda_definitions()
        assert normalize(opaque, t) is t and t in opaque.known_normal
        assert t not in unfolding.known_normal
        assert normalize(unfolding, t) is app(neg, App(neg, Const("sunny'")))
        assert t not in unfolding.known_normal

    def test_adding_a_declaration_empties_the_set(self):
        sig = ksig()
        t = App(Const("both"), Const("sunny'"))
        assert normalize(sig, t) is t and t in sig.known_normal
        sig.add(Declaration("both", arrow(O, O), Lam("p", O, app(and_, Var("p"), Var("p")))))
        assert len(sig.known_normal) == 0
        assert normalize(sig, t) is app(and_, Const("sunny'"), Const("sunny'"))

    def test_full_delta_ignores_the_set(self, sig):
        known = normalize(sig, Const("or"))
        assert known is Const("or") and known in sig.known_normal
        before = set(sig.known_normal)
        unfolded = normalize(sig, Const("or"), delta="full")
        assert isinstance(unfolded, Lam)
        assert set(sig.known_normal) == before

    def test_normal_forms_of_open_terms_stay_out(self, sig):
        t = App(Lam("x", None, App(run, Var("x"))), Var("y"))
        assert normalize(sig, t) is App(run, Var("y"))
        assert App(run, Var("y")) not in sig.known_normal

    def test_a_known_term_spends_no_step(self, sig):
        t = app(Const("or"), App(run, joan), App(run, mary))
        n = normalize(sig, t)
        assert n in sig.known_normal
        assert Normalizer(sig, budget=0)(n) is n
        assert Normalizer(Signature(sig.declarations), budget=0)(n) is n


class TestBetaNormalForms:
    """No normal form holds a β-redex."""

    @given(untyped_terms(4) | some_terms(12))
    @example(PI_PREFIX_TERMS[2])
    @example(DEEPENING_TERM)
    @settings(max_examples=200, deadline=None)
    def test_plain_terms(self, t):
        try:
            done = Normalizer(ksig(), budget=CONTEXT_BUDGET)(t)
        except NonTerminationGuard:
            return
        except RecursionError:
            self.runs_out_of_steps_first(ksig(), t)
            return
        assert beta_redexes(done) == []

    @given(prefix_families())
    @example((None, PI_PREFIX_TERMS))
    @example((None, [DEEPENING_TERM]))
    @settings(max_examples=200, deadline=None)
    def test_prefix_families(self, family):
        sig, terms = family
        normal = Normalizer(sig, budget=CONTEXT_BUDGET)
        for t in terms:
            try:
                done = normal(t)
            except NonTerminationGuard:
                continue
            except RecursionError:
                self.runs_out_of_steps_first(sig, t)
                continue
            assert beta_redexes(done) == []

    @staticmethod
    def runs_out_of_steps_first(sig, t):
        """Both errors mean `t` is not normal within the limits, but a term
        whose normalization overflows the stack must do so only after many
        steps: at a budget of 50 it runs out of steps instead."""
        with pytest.raises(NonTerminationGuard):
            Normalizer(sig, budget=50)(t)

    def test_a_pi_heading_a_spine_is_normalized(self):
        done = normalize(None, PI_PREFIX_TERMS[2])
        assert beta_redexes(done) == []
        assert show(done) == "({x : ({x : [y] y} x) ([y] y)} x) (({x : [y] y} x) ([y] y))"
