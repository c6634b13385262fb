import copy
import gc
import itertools
import pickle
import sys
import weakref
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

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
from glf.kernel import terms as terms_module
from glf.kernel.terms import show, substitute_all
from helpers import (
    clashing_terms,
    cyclic_garbage,
    reference_alpha_eq,
    reference_alpha_normal,
    reference_free_vars,
    reference_structural_eq,
    reference_substitute,
    untyped_terms,
)

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

    def test_show_parenthesizes_a_binder_at_the_head(self):
        assert show(App(Lam("x", None, Var("x")), joan)) == "([x] x) joan'"
        assert show(App(Pi("x", Const("o"), Var("x")), joan)) == "({x : o} x) joan'"
        assert show(app(Var("f"), Lam("x", None, Var("x")), joan)) == "f ([x] x) joan'"

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
    """`t` built again, bottom up, through the constructors.

    Terms are interned, so this returns `t` itself, made of the same nodes,
    with whatever free-variable caches they have filled.
    """
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


_suffixes = itertools.count()


def uncached_copy(t):
    """`t` with one new suffix on every name: the same shape, binding the
    same way, made of nodes no live term shares, so none has a filled cache."""
    suffix = f"#{next(_suffixes)}"

    def walk(t):
        match t:
            case App(fn, arg):
                node = App(walk(fn), walk(arg))
            case Lam(binder, binder_type, body):
                bt = walk(binder_type) if binder_type is not None else None
                node = Lam(binder + suffix, bt, walk(body))
            case Pi(binder, domain, codomain):
                node = Pi(binder + suffix, walk(domain), walk(codomain))
            case Var(name):
                node = Var(name + suffix)
            case Const(name):
                node = Const(name + suffix)
            case Sort(name):
                node = Sort(name + suffix)
        assert node._free_vars is None and node._alpha_normal is None
        return node

    return walk(t)


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
        t = uncached_copy(t)
        before = hash(t), repr(t)
        free_vars(t)
        alpha_normal(t)
        again = rebuild(t)
        assert again == t and t == again
        assert (hash(t), repr(t)) == before

    @given(untyped_terms())
    def test_copies_and_pickles_with_or_without_a_filled_cache(self, t):
        t = uncached_copy(t)
        duplicates = (copy.copy, copy.deepcopy, lambda u: pickle.loads(pickle.dumps(u)))
        unfilled = [duplicate(t) for duplicate in duplicates]
        free_vars(t)
        alpha_normal(t)
        filled = [duplicate(t) for duplicate in duplicates]
        assert unfilled == filled == [t] * len(duplicates)

    def test_cache_is_neither_a_constructor_argument_nor_a_pattern(self):
        assert App.__match_args__ == ("fn", "arg")
        assert Lam.__match_args__ == ("binder", "binder_type", "body")
        assert Pi.__match_args__ == ("binder", "domain", "codomain")
        assert Var.__match_args__ == Const.__match_args__ == Sort.__match_args__ == ("name",)
        with pytest.raises(TypeError):
            Var("x", frozenset({"x"}))


def has_binder(t) -> bool:
    match t:
        case App(fn, arg):
            return has_binder(fn) or has_binder(arg)
        case Lam() | Pi():
            return True
    return False


@contextmanager
def no_alpha_walk():
    """Within it, `alpha_normal` fails if it walks a term."""
    def walked(*args):
        raise AssertionError("alpha_normal walked the term")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(terms_module, "_alpha", walked)
        yield


class TestAlphaNormalCache:
    """`alpha_normal` caches its result on the node; the cached form is the
    one the uncached walk computes."""

    @given(clashing_terms())
    @example(Lam("x", None, Var("$0")))
    @example(Pi("$0", Var("$0'"), Lam("_", None, app(Var("$0"), Var("_"), Var("$1")))))
    def test_cached_form_is_the_reference(self, t):
        for term in (t, uncached_copy(t)):
            want = reference_alpha_normal(term)
            assert alpha_normal(term) is want
            assert alpha_normal(term) is want

    @given(clashing_terms())
    def test_a_second_call_returns_the_same_node(self, t):
        t = uncached_copy(t)
        first = alpha_normal(t)
        assert alpha_normal(t) is first
        assert alpha_normal(rebuild(t)) is first

    @given(clashing_terms())
    @example(Lam("x", None, Var("$0")))
    def test_alpha_normal_forms_are_their_own(self, t):
        for term in (t, uncached_copy(t)):
            normal = alpha_normal(term)
            assert alpha_normal(normal) is normal
            assert reference_alpha_normal(normal) is normal

    def test_a_term_that_is_its_own_normal_form_dies_with_its_last_reference(self):
        own = App(Const("own-normal-f"), Var("own-normal-x"))
        other = Lam("own-normal-y", None, App(Const("own-normal-f"), Var("own-normal-y")))
        assert alpha_normal(own) is own
        normal = alpha_normal(other)
        assert normal is not other and alpha_normal(normal) is normal
        refs = [weakref.ref(t) for t in (own, other, normal)]
        gc.disable()
        try:
            del own, other, normal
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    @given(untyped_terms())
    @example(Lam("x", None, Var("x")))
    def test_a_binder_free_term_is_its_own_without_the_walk(self, t):
        t = uncached_copy(t)
        with no_alpha_walk():
            if has_binder(t):
                with pytest.raises(AssertionError, match="walked"):
                    alpha_normal(t)
            else:
                assert alpha_normal(t) is t
                assert alpha_normal(t) is t

    def test_a_shared_binder_free_term_is_scanned_once_per_node(self):
        # 2^200 leaves as a tree, 201 nodes as a DAG.
        t = Var("shared-x")
        for _ in range(200):
            t = App(t, t)
        with no_alpha_walk():
            assert alpha_normal(t) is t

    @pytest.mark.parametrize("walk", [free_vars, alpha_normal])
    def test_a_non_term_inside_a_term_is_named(self, walk):
        for t in (App(Const("c"), "john"), App(Lam("x", None, Var("x")), "john")):
            with pytest.raises(TypeError, match="not a term: 'john'"):
                walk(t)

    def test_a_binder_under_shared_nodes_is_found(self):
        t = Lam("shared-y", None, Var("shared-y"))
        for _ in range(8):
            t = App(t, t)
        assert alpha_normal(t) is reference_alpha_normal(t)
        assert alpha_normal(t) is not t

    # Each example costs two full collections, so each runs a batch.
    @given(st.lists(clashing_terms(), min_size=1, max_size=20))
    @settings(max_examples=10)
    def test_alpha_normal_leaves_no_cyclic_garbage(self, ts):
        ts = [uncached_copy(t) for t in ts]
        assert cyclic_garbage(lambda: [alpha_normal(t) for t in ts]) == 0


class TestSubstituteAgainstReference:
    @given(clashing_terms(), clashing_terms(), st.sampled_from(["x", "y", "$0", "_"]))
    @example(Lam("x", None, app(Const("f"), Var("x"), Var("y"))), Var("x"), "y")
    @example(Lam("x", None, Lam("x'", None, app(Var("x"), Var("x'"), Var("y")))),
             App(Var("x"), Var("x'")), "y")
    @example(Pi("x", Var("y"), App(Var("x"), Var("y"))), Var("x"), "y")
    @example(Lam("x", Var("y"), Var("x")), Var("x"), "x")
    def test_substitute_is_the_reference(self, t, s, x):
        assert substitute(t, x, s) is reference_substitute(t, x, s)

    def test_a_capture_renames_every_binder_in_the_way(self):
        t = Pi("x", Var("y"), Lam("x'", None, app(Var("x"), Var("x'"), Var("y"))))
        s = App(Var("x"), Var("x'"))
        got = substitute(t, "y", s)
        assert got is reference_substitute(t, "y", s)
        assert got == Pi("x''", s, Lam("x'''", None, app(Var("x''"), Var("x'''"), s)))

    @given(st.lists(st.tuples(clashing_terms(), clashing_terms(),
                              st.sampled_from(["x", "y", "$0", "_"])), min_size=1, max_size=20))
    @settings(max_examples=10)
    def test_substitute_leaves_no_cyclic_garbage(self, cases):
        assert cyclic_garbage(lambda: [substitute(t, x, s) for t, s, x in cases]) == 0


def closed(t):
    """`t` with its free variables bound, in name order, by untyped λs."""
    return lam(sorted(free_vars(t)), t)


class TestSubstituteClosed:
    @given(clashing_terms(),
           st.dictionaries(st.sampled_from(["x", "y", "$0", "_"]), clashing_terms().map(closed),
                           min_size=1, max_size=4))
    @example(Lam("x", Var("y"), app(Var("x"), Var("y"), Var("z"))),
             {"x": Const("c"), "y": Const("d"), "z": Lam("x", None, Var("x"))})
    @example(Pi("x", Var("x"), Lam("y", None, app(Var("x"), Var("y")))),
             {"x": Const("c"), "y": Const("d")})
    def test_one_walk_is_one_substitution_after_another(self, t, values):
        sequential = t
        for x, s in values.items():
            sequential = reference_substitute(sequential, x, s)
        assert substitute_all(t, values, frozenset()) is sequential

    def test_a_binder_shadows_only_its_own_name(self):
        t = app(Var("x"), Lam("x", Var("y"), app(Var("x"), Var("y"))), Var("y"))
        c, d = Const("c"), Const("d")
        assert (substitute_all(t, {"x": c, "y": d}, frozenset())
                == app(c, Lam("x", d, app(Var("x"), d)), d))

    @given(st.lists(st.tuples(clashing_terms(), clashing_terms().map(closed),
                              clashing_terms().map(closed)), min_size=1, max_size=20))
    @settings(max_examples=10)
    def test_substitute_closed_leaves_no_cyclic_garbage(self, cases):
        assert cyclic_garbage(
            lambda: [substitute_all(t, {"x": a, "y": b}, frozenset()) for t, a, b in cases]) == 0


class TestInterning:
    @given(untyped_terms(), untyped_terms())
    @example(Var("x"), Var("x"))
    @example(App(Const("c"), Var("x")), App(Const("c"), Var("x")))
    @example(Lam("x", None, Var("x")), Lam("x", Const("c"), Var("x")))
    def test_identity_is_structural_equality(self, t, u):
        expected = reference_structural_eq(t, u)
        assert (t is u) == expected
        assert (t == u) == expected

    @given(clashing_terms(), clashing_terms())
    @example(Pi("$0", Var("_"), Var("$0")), Pi("$0", Var("_"), Var("$0")))
    def test_identity_is_structural_equality_on_clashing_names(self, t, u):
        expected = reference_structural_eq(t, u)
        assert (t is u) == expected
        assert (t == u) == expected

    @given(clashing_terms())
    def test_rebuilding_returns_the_same_node(self, t):
        assert rebuild(t) is t

    @given(clashing_terms())
    def test_copies_and_pickles_return_the_same_node(self, t):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t

    def test_no_term_class_defines_equality_or_hash(self):
        for cls in (Const, Var, App, Lam, Pi, Sort):
            assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
        t = App(Const("a"), Var("x"))
        assert t is App(Const("a"), Var("x"))
        assert hash(t) == object.__hash__(t)

    def test_a_dropped_term_dies(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        t = Lam("dropped", Const("dropped-type"), App(Const("dropped-f"), Var("dropped")))
        free_vars(t)
        ref = weakref.ref(t)
        del t
        assert ref() is None
        assert not unraisable
        again = Lam("dropped", Const("dropped-type"), App(Const("dropped-f"), Var("dropped")))
        assert reference_free_vars(again) == free_vars(again) == frozenset()

    def test_a_dropped_deep_chain_dies_without_recursion(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        t = innermost = App(Const("chain-f"), Var("chain-x"))
        for _ in range(100_000):
            t = App(Const("chain-f"), t)
        refs = weakref.ref(t), weakref.ref(innermost)
        del t, innermost
        assert [r() for r in refs] == [None, None]
        assert not unraisable
