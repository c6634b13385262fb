import copy
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from glf.kernel import (
    App,
    Const,
    Lam,
    Pi,
    Sort,
    Var,
    alpha_eq,
    alpha_normal,
    app,
    arrow,
    constants,
    free_vars,
    fresh_name,
    lam,
    spine,
    substitute,
)
from helpers import clashing_terms, reference_alpha_eq, reference_free_vars, untyped_terms

love = Const("love'")
joan = Const("joan'")
mary = Const("mary'")


class TestAlphaEq:
    def test_bound_variable_renaming(self):
        t = Lam("x", None, app(love, Var("x"), Var("x")))
        u = Lam("y", None, app(love, Var("y"), Var("y")))
        assert alpha_eq(t, u)

    def test_distinct_constants(self):
        assert not alpha_eq(app(love, joan, joan), app(love, joan, mary))

    def test_binder_index_mismatch(self):
        t = lam(["x", "y"], Var("x"))
        u = lam(["x", "y"], Var("y"))
        assert not alpha_eq(t, u)

    def test_free_vs_bound(self):
        assert not alpha_eq(Lam("x", None, Var("x")), Lam("x", None, Var("y")))
        assert alpha_eq(Var("y"), Var("y"))

    def test_annotations_compared(self):
        assert not alpha_eq(Lam("x", Const("o"), Var("x")), Lam("x", None, Var("x")))
        assert alpha_eq(Lam("x", Const("o"), Var("x")), Lam("y", Const("o"), Var("y")))


class TestSubstitute:
    def test_simple(self):
        t = App(Var("p"), Var("x"))
        assert substitute(t, "x", Const("john'")) == App(Var("p"), Const("john'"))

    def test_capture_avoidance_forces_rename(self):
        t = Lam("x", None, app(Const("f"), Var("x"), Var("y")))
        result = substitute(t, "y", Var("x"))
        assert result == Lam("x'", None, app(Const("f"), Var("x'"), Var("x")))

    def test_constant_untouched(self):
        assert substitute(Const("c"), "x", joan) == Const("c")

    def test_shadowed_binder_blocks(self):
        t = Lam("x", None, Var("x"))
        assert substitute(t, "x", joan) == t

    def test_substitutes_in_binder_type(self):
        t = Lam("z", Var("a"), Var("z"))
        assert substitute(t, "a", Const("o")) == Lam("z", Const("o"), Var("z"))

    @given(untyped_terms(), st.sampled_from(["x", "y", "z"]))
    def test_identity_substitution(self, t, x):
        assert alpha_eq(substitute(t, x, Var(x)), t)


class TestStructure:
    def test_spine(self):
        head, args = spine(app(love, joan, mary))
        assert head == love and args == [joan, mary]

    def test_arrow_is_vacuous_pi(self):
        t = arrow(Const("o"), Const("o"), Const("o"))
        assert isinstance(t, Pi) and t.binder not in free_vars(t.codomain)
        assert t.codomain == Pi("_", Const("o"), Const("o"))

    def test_free_vars(self):
        t = Lam("x", Var("a"), app(Var("x"), Var("y")))
        assert free_vars(t) == {"a", "y"}

    def test_constants_collects_binder_types(self):
        t = Lam("x", Const("ι"), app(love, Var("x")))
        assert constants(t) == {"ι", "love'"}

    def test_fresh_name_primes(self):
        assert fresh_name("x", {"x", "x'"}) == "x''"
        assert fresh_name("x", set()) == "x"


class TestAlphaNormal:
    @given(untyped_terms())
    def test_agrees_with_alpha_eq(self, t):
        assert alpha_eq(t, alpha_normal(t))
        assert alpha_normal(alpha_normal(t)) == alpha_normal(t)

    @given(untyped_terms(), untyped_terms())
    def test_equality_iff_alpha_eq(self, t, u):
        assert (alpha_normal(t) == alpha_normal(u)) == alpha_eq(t, u)

    def test_hashable_key(self):
        t = Lam("x", None, Var("x"))
        u = Lam("y", None, Var("y"))
        assert {alpha_normal(t), alpha_normal(u)} == {alpha_normal(t)}


class TestOneAlphaAlgorithm:
    """`alpha_eq` and `alpha_normal` against the environment walk, on names
    that clash with the canonical binders."""

    @given(clashing_terms(), clashing_terms())
    @example(Lam("x", None, Var("$0")), Lam("y", None, Var("y")))
    @example(Pi("x", Const("c"), Lam("y", None, Var("$1"))),
             Pi("x", Const("c"), Lam("y", None, Var("y"))))
    def test_both_agree_with_the_reference(self, t, u):
        expected = reference_alpha_eq(t, u)
        assert alpha_eq(t, u) == expected
        assert (alpha_normal(t) == alpha_normal(u)) == expected

    def test_a_free_canonical_name_is_not_a_bound_one(self):
        t = Lam("x", None, Var("$0"))
        u = Lam("y", None, Var("y"))
        assert not reference_alpha_eq(t, u)
        assert not alpha_eq(t, u)
        assert alpha_normal(t) != alpha_normal(u)
        assert free_vars(alpha_normal(t)) == {"$0"}

    def test_alpha_normal_keeps_free_variables(self):
        t = Pi("$0", Var("$0'"), Lam("_", None, app(Var("$0"), Var("_"), Var("$1"))))
        normal = alpha_normal(t)
        assert free_vars(normal) == free_vars(t) == {"$0'", "$1"}
        assert reference_alpha_eq(normal, t)

    def test_arrow_does_not_capture_a_free_underscore(self):
        t = arrow(Const("o"), Var("_"))
        assert free_vars(t) == {"_"}
        assert t == Pi("_'", Const("o"), Var("_"))


def rebuild(t):
    """A structurally equal copy of `t` made of new nodes, none of them cached."""
    match t:
        case App(fn, arg):
            return App(rebuild(fn), rebuild(arg))
        case Lam(binder, binder_type, body):
            bt = rebuild(binder_type) if binder_type is not None else None
            return Lam(binder, bt, rebuild(body))
        case Pi(binder, domain, codomain):
            return Pi(binder, rebuild(domain), rebuild(codomain))
        case Var(name):
            return Var(name)
        case Const(name):
            return Const(name)
        case Sort(name):
            return Sort(name)


class TestFreeVarCache:
    @given(untyped_terms(), untyped_terms(), st.sampled_from(["x", "y", "z"]))
    def test_cached_free_vars_agree_with_the_reference(self, t, s, x):
        assert free_vars(t) == reference_free_vars(t)
        assert free_vars(s) == reference_free_vars(s)
        # Both caches are filled now; substitution shares their nodes into
        # larger terms, whose own sets are built from the cached ones.
        u = substitute(t, x, s)
        bigger = App(Lam(x, None, u), Pi(x, s, t))
        assert free_vars(bigger) == reference_free_vars(bigger)
        assert free_vars(u) == reference_free_vars(u)
        assert free_vars(t) == reference_free_vars(t)
        assert free_vars(s) == reference_free_vars(s)

    @given(untyped_terms())
    def test_cache_is_invisible_to_equality_hash_and_repr(self, t):
        free_vars(t)
        fresh = rebuild(t)
        assert fresh == t and t == fresh
        assert hash(fresh) == hash(t)
        assert repr(fresh) == repr(t)

    @given(untyped_terms())
    def test_copies_and_pickles_with_or_without_a_filled_cache(self, t):
        unfilled = rebuild(t)
        free_vars(t)
        for term in (unfilled, t):
            for duplicate in (copy.copy, copy.deepcopy,
                              lambda u: pickle.loads(pickle.dumps(u))):
                assert duplicate(term) == term

    def test_cache_is_neither_a_constructor_argument_nor_a_pattern(self):
        assert App.__match_args__ == ("fn", "arg")
        assert Lam.__match_args__ == ("binder", "binder_type", "body")
        assert Pi.__match_args__ == ("binder", "domain", "codomain")
        assert Var.__match_args__ == Const.__match_args__ == Sort.__match_args__ == ("name",)
        with pytest.raises(TypeError):
            Var("x", frozenset({"x"}))
