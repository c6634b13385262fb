"""Language theories, semantics construction, and the target-logic gate.

Integration-level tests run against the shipped example fragments; the
unit-level ones build tiny grammars and theories inline.
"""

import gc
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from glf import bridge as bridge_module, tableau as tableau_module
from glf.bridge import (
    Fragment,
    Reading,
    TargetLogicGate,
    check_in_target_logic,
    construct_semantics,
    generate_language_theory,
    generate_view_stub,
    parse_sentence,
    term_to_ast,
    translate,
    _new_alpha_class,
    _skeleton,
)
from glf.corpus import fragment_dir
from glf.errors import BridgeError, GrammarError, NameClash, NonTerminationGuard
from glf.grammar import (
    AbstractGrammar,
    FunDecl,
    GrammarRegistry,
    ast_category,
    compile_cfg,
    linearize,
    parse_grammar_file,
    parse_tokens,
    tokenize,
)
from glf.kernel import (
    TYPE, App, Const, Lam, Normalizer, Var, alpha_eq, alpha_normal, app, arrow, lam, normalize,
)
from glf.kernel import reduce as reduce_module
from glf.kernel.terms import show
from glf.modsys import (
    TheoryGraph, View, ViewApplier, apply_view, check_totality, parse_term, parse_theory_file,
)
from glf.shell import load_fragment, parse_gold_file
from glf.shell.loader import initial_state
from glf.tableau import update_belief_state
from helpers import (
    alpha_variant,
    benchmark_workload,
    clashing_terms,
    cyclic_garbage,
    enumerate_asts,
    reference_ac_key,
    reference_alpha_eq,
    reference_apply_view,
    reference_check_in_target_logic,
    reference_normalize,
)


@pytest.fixture(scope="module")
def life():
    return load_fragment(fragment_dir("life"))


@pytest.fixture(scope="module")
def quantified():
    return load_fragment(fragment_dir("quantified"))


@pytest.fixture(scope="module")
def modal():
    return load_fragment(fragment_dir("modal"))


def toy_abstract() -> AbstractGrammar:
    return AbstractGrammar(
        name="Toy",
        startcat="S",
        cats=("S", "P"),
        funs=(FunDecl("hello", ("P",), "S"), FunDecl("world", (), "P")),
    )


class TestLanguageTheory:
    def test_categories_become_types_and_functions_arrows(self):
        theory = generate_language_theory(toy_abstract())
        assert theory.name == "Toy"
        assert theory.meta == "LF"
        decls = {d.name: d for d in theory.declarations}
        assert decls["S"].type_ == TYPE
        assert decls["P"].type_ == TYPE
        assert alpha_eq(decls["hello"].type_, arrow(Const("P"), Const("S")))
        assert alpha_eq(decls["world"].type_, Const("P"))

    def test_extension_becomes_include(self, life):
        theory = generate_language_theory(life.abstract)
        assert theory.includes == ("LifeGrammar",)
        own = {f.name for f in life.abstract.own_funs}
        assert {d.name for d in theory.declarations} == own

    def test_generated_theory_agrees_with_the_loaded_graph(self, life):
        flat = life.graph.flatten(life.language_theory)
        theory = generate_language_theory(life.abstract)
        for d in theory.declarations:
            assert alpha_eq(flat.lookup(d.name).type_, d.type_)

    def test_reserved_category_name_rejected(self):
        bad = AbstractGrammar("G", "end", ("end",), ())
        with pytest.raises(NameClash):
            generate_language_theory(bad)

    def test_reserved_function_name_rejected(self):
        bad = AbstractGrammar("G", "S", ("S",), (FunDecl("prec", (), "S"),))
        with pytest.raises(NameClash):
            generate_language_theory(bad)


class TestTreesAsTerms:
    def test_parse_results_are_terms_of_the_start_category(self, life):
        (ast,) = parse_sentence(life, "Joan loves herself")
        assert ast_category(life.abstract, ast) == "Stmt"
        assert term_to_ast(life.abstract, ast) is ast

    def test_ill_formed_tree_rejected(self, life):
        with pytest.raises(GrammarError):
            term_to_ast(life.abstract, app(Const("act"), Const("joan")))

    def test_tree_of_wrong_category_is_still_a_tree(self, life):
        assert ast_category(life.abstract, Const("joan")) == "Person"


class TestViewStub:
    def test_stub_lists_every_pending_assignment(self):
        g = TheoryGraph()
        parse_theory_file(g, "theory ToyLogic : LF = prop : type # o ; end")
        g.add(generate_language_theory(toy_abstract()))
        stub = generate_view_stub(g.theory("Toy"), g, "ToyLogic")
        assert stub.startswith("view ToySemantics : Toy -> ToyLogic =")
        for name in ("S", "P", "hello", "world"):
            assert f"// {name} = " in stub

    def test_stub_is_loadable_and_honestly_partial(self):
        g = TheoryGraph()
        parse_theory_file(g, "theory ToyLogic : LF = prop : type # o ; end")
        g.add(generate_language_theory(toy_abstract()))
        stub = generate_view_stub(g.theory("Toy"), g, "ToyLogic")
        parse_theory_file(g, stub)
        view = g.view("ToySemantics")
        assert check_totality(g, view) == ("S", "P", "hello", "world")

    def test_filling_the_stub_reaches_totality(self):
        g = TheoryGraph()
        parse_theory_file(g, "theory ToyLogic : LF = prop : type # o ; great : o ; end")
        g.add(generate_language_theory(toy_abstract()))
        parse_theory_file(g, """
        view ToySemantics : Toy -> ToyLogic =
          S = o ;
          P = o ;
          hello = [p : o] p ;
          world = great ;
        end
        """)
        assert check_totality(g, g.view("ToySemantics")) == ()


class TestConstructSemantics:
    def test_reflexive_object(self, life):
        readings = construct_semantics(life, "Joan loves herself")
        assert len(readings) == 1
        r = readings[0]
        assert r.in_target_logic and r.diagnostics == ()
        assert alpha_eq(r.term, parse_term(life.target_flat, "love' joan' joan'"))

    def test_raw_term_normalizes_to_the_reading(self, life):
        (r,) = construct_semantics(life, "Mary runs")
        assert not alpha_eq(r.raw, r.term)  # the view image is a redex
        assert alpha_eq(normalize(life.target_flat, r.raw), r.term)

    def test_accepts_a_tree_instead_of_a_sentence(self, life):
        (ast,) = parse_sentence(life, "Joan runs")
        (from_ast,) = construct_semantics(life, ast)
        (from_text,) = construct_semantics(life, "Joan runs")
        assert alpha_eq(from_ast.term, from_text.term)

    def test_ambiguity_survives_when_meanings_differ(self, quantified):
        readings = construct_semantics(quantified, "John and Mary and someone run")
        assert len(readings) == 2
        assert not alpha_eq(readings[0].term, readings[1].term)
        assert all(r.in_target_logic for r in readings)

    def test_ambiguity_collapses_when_meanings_agree(self, modal):
        sentence = "John doesn't have to run"
        assert len(parse_sentence(modal, sentence)) == 2
        readings = construct_semantics(modal, sentence)
        assert len(readings) == 1
        want = parse_term(modal.target_flat, "¬ (⟦ d ⟧ (run' john'))")
        assert alpha_eq(readings[0].term, want)

    def test_unparseable_sentence_has_no_readings(self, life):
        assert construct_semantics(life, "loves Joan herself") == []

    def test_unknown_language_rejected(self, life):
        with pytest.raises(BridgeError, match="no language"):
            parse_sentence(life, "Joan runs", "Klingon")

    def test_parsing_is_anchored_at_the_start_category(self, life):
        with pytest.raises(BridgeError, match="start category"):
            parse_sentence(life, "Joan", category="Person")

    def test_every_small_tree_has_a_lawful_meaning(self, life):
        for ast in enumerate_asts(life.abstract, life.start_category, 3):
            (r,) = construct_semantics(life, ast)
            assert r.in_target_logic, r.diagnostics


class TestTranslate:
    def test_english_to_german(self, life):
        assert translate(life, "Mary loves herself", "Eng", "Ger") == [
            "Maria liebt sich"
        ]

    def test_german_to_english(self, life):
        assert translate(life, "Johanna rennt und Maria rennt", "Ger", "Eng") == [
            "Joan runs and Mary runs"
        ]

    def test_unknown_target_language(self, life):
        with pytest.raises(BridgeError, match="no language"):
            translate(life, "Joan runs", "Eng", "Klingon")

    def test_ambiguous_parses_with_one_surface_form_collapse(self, modal):
        sentence = "John doesn't have to run"
        assert translate(modal, sentence, "Eng", "Eng") == [sentence]


class TestTargetLogicGate:
    @pytest.mark.parametrize("name", ["life", "quantified", "modal"])
    def test_shipped_gold_meanings_all_pass(self, name, life, quantified, modal):
        fragment = {"life": life, "quantified": quantified, "modal": modal}[name]
        gold = fragment_dir(name) / "gold" / f"{name}.gold"
        for case in parse_gold_file(gold.read_text(encoding="utf-8")):
            for expected in case.expected:
                t = parse_term(fragment.target_flat, expected)
                ok, diagnostics = check_in_target_logic(fragment, t)
                assert ok, (expected, diagnostics)

    def test_unreduced_binder_rejected(self, quantified):
        t = parse_term(quantified.target_flat, "[p] p john'")
        ok, diagnostics = check_in_target_logic(quantified, t)
        assert not ok
        assert any("binder" in d for d in diagnostics)

    def test_foreign_constant_rejected(self, life):
        t = app(Const("love'"), Const("blorp'"), Const("joan'"))
        ok, diagnostics = check_in_target_logic(life, t)
        assert not ok
        assert any("blorp'" in d for d in diagnostics)

    def test_binder_in_first_order_position_rejected(self, life):
        t = App(Const("run'"), lam([("x", Const("ind"))], Var("x")))
        ok, diagnostics = check_in_target_logic(life, t)
        assert not ok

    def test_quantified_binder_is_sanctioned(self, quantified):
        t = parse_term(quantified.target_flat, "∀ [x : ι] run' x")
        ok, diagnostics = check_in_target_logic(quantified, t)
        assert ok, diagnostics


def reference_construct(fragment, sentence: str, language: str | None = None) -> list[Reading]:
    """`construct_semantics` tree by tree: every reading viewed, normalized
    and gate-checked afresh, with nothing shared between them."""
    readings, seen = [], set()
    for ast in parse_sentence(fragment, sentence, language):
        raw = apply_view(fragment.graph, fragment.semantics_view, ast)
        term = reference_normalize(fragment.target_flat, raw)
        key = alpha_normal(term)
        if key in seen:
            continue
        seen.add(key)
        ok, diagnostics = reference_check_in_target_logic(fragment, term)
        readings.append(Reading(ast, raw, term, ok, diagnostics))
    return readings


def coordination(n: int, verb_phrase: str) -> str:
    """`N1 and … and Nn VP`, nouns placed as in the benchmark's workload."""
    nouns = ["someone" if i == n // 2 else "everyone" if i % 3 == 1 else ("John", "Mary")[i % 2]
             for i in range(n)]
    return " and ".join(nouns) + " " + verb_phrase


def belief_chain(depth: int) -> str:
    words = [("Mary believes that", "John doesn't believe that")[i % 2] for i in range(depth)]
    return " ".join(words) + " John has to run"


class TestSharedConstruction:
    """All trees of a sentence share one view applier, and all readings one
    normalizer and one gate; the result is what constructing each tree on
    its own gives."""

    @pytest.mark.parametrize("verb_phrase", ["run", "love everyone", "love someone"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_coordination_matches_per_tree_construction(self, quantified, n, verb_phrase):
        self.assert_matches(quantified, coordination(n, verb_phrase))

    @pytest.mark.parametrize("depth", [10, 50])
    def test_belief_chain_matches_per_tree_construction(self, modal, depth):
        self.assert_matches(modal, belief_chain(depth))

    @pytest.mark.parametrize("name", ["life", "quantified", "modal"])
    def test_gold_sentences_match_per_tree_construction(self, name, life, quantified, modal):
        fragment = {"life": life, "quantified": quantified, "modal": modal}[name]
        gold = fragment_dir(name) / "gold" / f"{name}.gold"
        for case in parse_gold_file(gold.read_text(encoding="utf-8")):
            self.assert_matches(fragment, case.sentence, case.language)

    @staticmethod
    def assert_matches(fragment, sentence, language=None):
        got = construct_semantics(fragment, sentence, language)
        want = reference_construct(fragment, sentence, language)
        assert got and got == want
        for g, w in zip(got, want):
            assert g.ast is w.ast and g.raw is w.raw and g.term is w.term
            assert g.term is Normalizer(fragment.target_flat)(g.raw)
            assert g.raw is apply_view(fragment.graph, fragment.semantics_view, g.ast)
            assert g.raw is reference_apply_view(fragment.graph, fragment.semantics_view, g.ast)
            assert check_in_target_logic(fragment, g.term) == (g.in_target_logic, g.diagnostics)


@pytest.fixture
def normalizer_calls(monkeypatch):
    """Every term a δ-applied `Normalizer` is called on and every context
    it is asked to form, in order, as (term, hole or None, steps spent,
    whether it returned a normal form or a kept context)."""
    spent = [0]
    spend = reduce_module._Budget.spend

    def counted(budget):
        spent[0] += 1
        spend(budget)

    calls = []

    def recording(method):
        def recorded(self, t, *hole):
            before, returned = spent[0], False
            try:
                result = method(self, t, *hole)
                returned = result is not None
                return result
            finally:
                if self.delta == "applied":
                    calls.append((t, hole[0] if hole else None, spent[0] - before, returned))
        return recorded

    monkeypatch.setattr(reduce_module._Budget, "spend", counted)
    monkeypatch.setattr(Normalizer, "__call__", recording(Normalizer.__call__))
    monkeypatch.setattr(Normalizer, "context", recording(Normalizer.context))
    return calls


def hole_fragment(says: str) -> Fragment:
    """A fragment whose sentences `says N and … and N` have one tree per
    bracketing, all with the image of `says` at their root.

    A noun phrase means `o -> ι -> o`: `a` keeps its proposition, `b` drops
    it, and `pair` binds `w` around both, so a proposition with `w` free
    that is plugged in unreduced makes that `w` be renamed.
    """
    registry = GrammarRegistry()
    parse_grammar_file(registry, """
    abstract Hole = {
      flags startcat = S ; cat S ; N ;
      fun says : N -> S ; a : N ; b : N ; pair : N -> N -> N ;
    }
    concrete HoleEng of Hole = {
      lincat S, N = { s : Str } ;
      lin says n = { s = "says" ++ n.s } ; a = { s = "a" } ; b = { s = "b" } ;
          pair x y = { s = x.s ++ "and" ++ y.s } ;
    }
    """)
    abstract, concrete = registry.abstract("Hole"), registry.concrete("HoleEng")
    g = TheoryGraph()
    parse_theory_file(g, """
    theory HoleLogic : LF =
      prop : type # o ;
      ind : type # ι ;
      and : o -> o -> o # %1 ∧ %2 prec 10 ;
      forall : (ι -> o) -> o # ∀ %1 prec 25 ;
      c' : o ;
    end
    """)
    g.add(generate_language_theory(abstract))
    flat = g.flatten("HoleLogic")
    assignments = {
        "S": "o",
        "N": "o -> ι -> o",
        "says": says,
        "a": "[p : o, w : ι] p",
        "b": "[p : o, w : ι] c'",
        "pair": "[x : o -> ι -> o, y : o -> ι -> o] [p : o, w : ι] (x p w) ∧ (y p w)",
    }
    # Added without `validate_view`, which would reject an ill-typed `says`.
    g.add(View("HoleSemantics", "Hole", "HoleLogic",
               assignments=tuple((c, parse_term(flat, t)) for c, t in assignments.items())))
    return Fragment(
        name="hole",
        abstract=abstract,
        concretes={"Eng": concrete},
        cfgs={"Eng": compile_cfg(abstract, concrete)},
        graph=g,
        language_theory=g.theory("Hole"),
        target_logic=g.theory("HoleLogic"),
        domain_theory=g.theory("HoleLogic"),
        semantics_view=g.view("HoleSemantics"),
        start_category="S",
        proposition_type="prop",
        individual_type="ind",
    )


# The hole is applied to a proposition already normal, to a redex with `w`
# free, and to a term that diverges.
HOLE_NORMAL = "[n : o -> ι -> o] ∀ ([w : ι] ∀ (n c'))"
HOLE_REDEX = "[n : o -> ι -> o] ∀ ([w : ι] ∀ (n (([x : ι] c') w)))"
HOLE_DIVERGES = "[n : o -> ι -> o] ∀ ([w : ι] ∀ (n (([x] x x) ([x] x x))))"


class TestSharedContexts:
    """Trees whose images differ in one closed argument normalize the rest
    once, as a context with a hole, and each tree gives the node and spends
    no more steps than without it."""

    @staticmethod
    def steps_per_tree(fragment, sentence, calls) -> tuple[list[int], list[int], int]:
        """Steps each tree spends without sharing and with it, a shared
        context's charged to the first tree, and the contexts normalized."""
        view = ViewApplier(fragment.graph, fragment.semantics_view)
        raws = [view(ast) for ast in parse_sentence(fragment, sentence)]
        normal = Normalizer(fragment.target_flat)
        calls.clear()
        for raw in raws:
            normal(raw)
        without = [steps for _, _, steps, _ in calls]
        calls.clear()
        construct_semantics(fragment, sentence)
        contexts = [(steps, ok) for _, hole, steps, ok in calls if hole is not None]
        trees = [(t, steps) for t, hole, steps, _ in calls if hole is None]
        assert len(trees) == len(raws)
        shared = [i for i, (t, _) in enumerate(trees) if t is not raws[i]]
        with_sharing = [steps for _, steps in trees]
        if shared:
            with_sharing[shared[0]] += sum(steps for steps, ok in contexts if ok)
        return without, with_sharing, len(contexts)

    @pytest.mark.parametrize("verb_phrase", ["run", "love everyone", "love someone"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_no_coordination_tree_spends_more_steps(self, quantified, normalizer_calls,
                                                     n, verb_phrase):
        without, with_sharing, contexts = self.steps_per_tree(
            quantified, coordination(n, verb_phrase), normalizer_calls)
        assert all(w <= o for w, o in zip(with_sharing, without)), (with_sharing, without)
        assert contexts == (n > 2)  # one tree at n = 2, so nothing to share
        if n > 3:
            assert sum(with_sharing) < sum(without)

    @pytest.mark.parametrize("says", [HOLE_NORMAL, HOLE_REDEX])
    @pytest.mark.parametrize("nouns", ["a and a and a", "b and b and a", "a and b and b and b"])
    def test_hand_made_contexts_give_the_per_tree_nodes_and_steps(self, normalizer_calls,
                                                                  says, nouns):
        fragment = hole_fragment(says)
        sentence = "says " + nouns
        got = construct_semantics(fragment, sentence)
        want = reference_construct(fragment, sentence)
        assert len(got) > 1 and got == want
        for g, w in zip(got, want):
            assert g.term is w.term and g.term is Normalizer(fragment.target_flat)(g.raw)
        without, with_sharing, contexts = self.steps_per_tree(
            fragment, sentence, normalizer_calls)
        assert contexts == 1
        assert all(w <= o for w, o in zip(with_sharing, without)), (with_sharing, without)

    def test_a_hole_applied_to_a_redex_falls_back(self, normalizer_calls):
        fragment = hole_fragment(HOLE_REDEX)
        normalizer_calls.clear()
        readings = construct_semantics(fragment, "says a and a and a")
        ((_, hole, _, ok),) = [c for c in normalizer_calls if c[1] is not None]
        assert not ok
        per_tree = [t for t, hole, _, _ in normalizer_calls if hole is None]
        assert per_tree == [r.raw for r in readings]
        # Plugged in unreduced, `([x : ι] c') w` made `pair`'s `w` be renamed.
        assert "[w' : ind]" in show(readings[0].term)

    def test_a_dropped_context_spends_no_steps(self, normalizer_calls):
        fragment = hole_fragment(HOLE_DIVERGES)
        normalizer_calls.clear()
        readings = construct_semantics(fragment, "says b and b and b")
        ((_, _, steps, ok),) = [c for c in normalizer_calls if c[1] is not None]
        # The step that puts the hole in place, and none on the diverging
        # term the hole is applied to.
        assert not ok and steps == 1
        assert readings == reference_construct(fragment, "says b and b and b")

    def test_a_context_that_raises_is_dropped(self):
        fragment = hole_fragment(HOLE_DIVERGES)
        # `b` drops the diverging proposition, so each tree normalizes.
        readings = construct_semantics(fragment, "says b and b and b")
        assert [r.term for r in readings] == [r.term for r in reference_construct(
            fragment, "says b and b and b")]
        # `a` keeps it, so the first tree diverges, as it does on its own.
        first = parse_sentence(fragment, "says a and b and b")[0]
        raw = apply_view(fragment.graph, fragment.semantics_view, first)
        with pytest.raises(NonTerminationGuard) as alone:
            Normalizer(fragment.target_flat)(raw)
        with pytest.raises(BridgeError) as err:
            construct_semantics(fragment, "says a and b and b")
        assert err.value.ast is first
        assert type(err.value.__cause__) is NonTerminationGuard
        assert str(err.value.__cause__) == str(alone.value)


class TestPrefixContextsInConstruction:
    """A belief chain's levels apply one of four view images of
    `modifyS pol (believe X)` to the level below: met a third time, each is
    reduced once more, as a context, and not again at every level."""

    def test_a_modal_pass_reduces_each_repeated_prefix_once(self, modal, monkeypatch):
        calls, spent = [0], [0]
        whnf, spend = reduce_module._whnf, reduce_module._Budget.spend

        def counted_whnf(*args):
            calls[0] += 1
            return whnf(*args)

        def counted_spend(budget):
            spent[0] += 1
            spend(budget)

        monkeypatch.setattr(reduce_module, "_whnf", counted_whnf)
        monkeypatch.setattr(reduce_module._Budget, "spend", counted_spend)
        for (sentence,) in benchmark_workload("modal_depth", 7).sessions:
            assert len(construct_semantics(modal, sentence.text)) == 1
        # Reducing every level's prefix again takes 1 010 calls and 3 902 steps.
        assert calls[0] <= 1010 // 2
        assert spent[0] <= 3902 // 2


def twin_fragment(one: str, two: str) -> Fragment:
    """A fragment whose one sentence `says` has two trees, `one` and `two`,
    which the view maps to the terms `one` and `two`."""
    registry = GrammarRegistry()
    parse_grammar_file(registry, """
    abstract Twin = { flags startcat = S ; cat S ; fun one : S ; two : S ; }
    concrete TwinEng of Twin = {
      lincat S = { s : Str } ;
      lin one = { s = "says" } ; two = { s = "says" } ;
    }
    """)
    abstract, concrete = registry.abstract("Twin"), registry.concrete("TwinEng")
    g = TheoryGraph()
    parse_theory_file(g, """
    theory TwinLogic : LF =
      prop : type # o ;
      ind : type # ι ;
      k' : (ι -> ι -> ι) -> o ;
    end
    """)
    g.add(generate_language_theory(abstract))
    flat = g.flatten("TwinLogic")
    g.add(View("TwinSemantics", "Twin", "TwinLogic",
               assignments=(("S", parse_term(flat, "o")), ("one", parse_term(flat, one)),
                            ("two", parse_term(flat, two)))))
    return Fragment(
        name="twin",
        abstract=abstract,
        concretes={"Eng": concrete},
        cfgs={"Eng": compile_cfg(abstract, concrete)},
        graph=g,
        language_theory=g.theory("Twin"),
        target_logic=g.theory("TwinLogic"),
        domain_theory=g.theory("TwinLogic"),
        semantics_view=g.view("TwinSemantics"),
        start_category="S",
        proposition_type="prop",
        individual_type="ind",
    )


class TestAlphaClasses:
    """Readings are told apart by α-normal form, asked for only where a
    hash blind to variable and binder names collides."""

    @given(st.lists(clashing_terms(), min_size=1, max_size=6), st.randoms(use_true_random=False),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_first_of_each_alpha_class_as_a_set_of_alpha_normal_forms(self, terms, rng, collide):
        terms = list(terms)
        for _ in range(rng.randint(0, 4)):
            variant = alpha_variant(rng.choice(terms), rng)
            terms.insert(rng.randint(0, len(terms)), variant)
        want = []
        for t in terms:
            if not any(reference_alpha_eq(t, w) for w in want):
                want.append(t)
        # With `collide`, every term's hash is the same: only the exact
        # comparison tells them apart.
        buckets, skeletons = {}, dict.fromkeys(terms, 0) if collide else {}
        got = [t for t in terms if _new_alpha_class(t, buckets, skeletons)]
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))

    @pytest.mark.parametrize("two, readings", [
        # An α-variant of `one`, reached through a redex: another node, one reading.
        ("([f : ι -> ι -> ι] k' f) ([u : ι, v : ι] u)", 1),
        # The same skeleton, but not α-equal to `one`: two readings.
        ("k' ([x : ι, y : ι] y)", 2),
    ], ids=["alpha_variants", "equal_skeletons"])
    def test_twin_trees_against_the_per_tree_construction(self, two, readings):
        fragment = twin_fragment("k' ([x : ι, y : ι] x)", two)
        first, second = [normalize(fragment.target_flat, apply_view(
            fragment.graph, fragment.semantics_view, ast)) for ast in parse_sentence(fragment, "says")]
        assert first is not second and _skeleton(first, {}) == _skeleton(second, {})
        got = construct_semantics(fragment, "says")
        assert len(got) == readings and got == reference_construct(fragment, "says")
        assert got[0].term is first

    def test_readings_ask_for_alpha_normal_forms_only_where_they_could_collide(
            self, quantified, monkeypatch):
        asked, skeletons = [], []
        for module in (bridge_module, tableau_module):
            monkeypatch.setattr(module, "alpha_normal",
                                lambda t, alpha_normal=module.alpha_normal: (
                                    asked.append(t) or alpha_normal(t)))
        monkeypatch.setattr(bridge_module, "_skeleton",
                            lambda t, memo, skeleton=_skeleton: (
                                skeletons.append(t) or skeleton(t, memo)))
        # One tree: no hash, no α-normal form.
        assert len(construct_semantics(quantified, "everyone runs")) == 1
        assert asked == skeletons == []
        # 132 trees with 132 readings, whose hashes do not collide.
        readings = construct_semantics(quantified, coordination(7, "love someone"))
        assert len(readings) == 132 and asked == []
        # The update α-normalizes one reading per AC class of the readings
        # as they stand; its tableau α-normalizes literals besides.
        state = initial_state(quantified)
        normal = Normalizer(state.signature.flat)
        terms = [normal(r.term) for r in readings if r.in_target_logic]
        update_belief_state(state, terms)
        keys: dict = {}
        classes = {reference_ac_key(state.signature, t, keys) for t in terms}
        asked_of_readings = [t for t in asked if any(t is u for u in terms)]
        assert len(asked_of_readings) == len(classes) < len(terms)


class TestNoCyclicGarbage:
    """With the cyclic collector off, each step from sentence to models
    frees everything it made as soon as its last reference goes."""

    SENTENCE = "John and Mary and everyone and someone and John love everyone"

    @pytest.mark.parametrize("name", ["life", "modal", "quantified"])
    def test_load_fragment(self, name):
        assert cyclic_garbage(lambda: load_fragment(fragment_dir(name))) == 0

    def test_linearize_and_translate(self, life):
        (tree,) = parse_sentence(life, "Mary loves herself")
        ger = life.concretes["Ger"]
        assert linearize(life.abstract, ger, tree) == "Maria liebt sich"
        assert cyclic_garbage(lambda: linearize(life.abstract, ger, tree)) == 0
        assert cyclic_garbage(lambda: translate(life, "Mary loves herself", "Eng", "Ger")) == 0

    def test_parse_tokens(self, quantified):
        cfg = quantified.cfg(quantified.default_language())
        tokens = tokenize(self.SENTENCE)
        assert len(parse_tokens(cfg, tokens)) == 14
        assert cyclic_garbage(lambda: parse_tokens(cfg, tokens)) == 0

    def test_apply_view(self, quantified):
        trees = parse_sentence(quantified, self.SENTENCE)
        graph, view = quantified.graph, quantified.semantics_view
        assert cyclic_garbage(lambda: [apply_view(graph, view, t) for t in trees]) == 0

    def test_construct_semantics(self, quantified):
        assert cyclic_garbage(lambda: construct_semantics(quantified, self.SENTENCE)) == 0

    @pytest.mark.parametrize("says", [HOLE_NORMAL, HOLE_REDEX])
    def test_construct_semantics_with_a_shared_or_a_dropped_context(self, says):
        fragment = hole_fragment(says)
        assert cyclic_garbage(lambda: construct_semantics(fragment, "says a and b and a")) == 0

    # The first closes every branch, against the knowledge that nobody
    # loves themself; the second leaves branches open.
    @pytest.mark.parametrize("sentence, stays_open", [
        (SENTENCE, False), ("Mary and someone and everyone run", True)])
    def test_update_belief_state(self, quantified, sentence, stays_open):
        readings = [r.term for r in construct_semantics(quantified, sentence)
                    if r.in_target_logic]
        state = initial_state(quantified)
        assert bool(update_belief_state(state, readings).open_branches) == stays_open
        assert cyclic_garbage(lambda: update_belief_state(state, readings)) == 0


def gate_fixtures(fragment) -> list:
    """Clean readings mixed with terms that fail the gate, some of them
    built from the clean readings' own subterms."""
    clean = [r.term for s in ("everyone runs", "John and someone love everyone", "Mary runs")
             for r in construct_semantics(fragment, s)]
    everyone_runs, john_and_someone, mary_runs = clean
    run, mary = mary_runs.fn, mary_runs.arg
    and_ = john_and_someone.arg.body.fn.fn
    sanctioned = everyone_runs.arg  # passes as the argument of ∀
    foreign = App(run, Const("blorp'"))
    unreduced = parse_term(fragment.target_flat, "[p] p john'")
    return clean + [
        unreduced,
        foreign,
        App(run, sanctioned),  # the same λ, now in a first-order position
        app(and_, mary_runs, foreign),
        app(and_, foreign, App(run, sanctioned)),
        app(and_, everyone_runs, App(unreduced, run)),
        app(and_, mary_runs, everyone_runs),
        App(run, mary),
    ]


class TestSharedGate:
    @given(order=st.permutations(range(11)))
    @settings(max_examples=60, deadline=None)
    def test_shared_gate_gives_the_one_shot_diagnostics(self, quantified, order):
        terms = gate_fixtures(quantified)
        assert len(terms) == 11
        gate = TargetLogicGate(quantified)
        for i in order:
            want = reference_check_in_target_logic(quantified, terms[i])
            assert check_in_target_logic(quantified, terms[i]) == want
            assert gate(terms[i]) == want
        assert sum(not gate(t)[0] for t in terms) == 6

    def test_a_gate_holds_its_memo_for_its_own_life(self, quantified):
        (everyone_runs,) = [r.term for r in construct_semantics(quantified, "everyone runs")]
        forall, binder = everyone_runs.fn, everyone_runs.arg
        # A binder name no other test uses, so only this test holds the node.
        t = App(forall, Lam("only_here", binder.binder_type, App(binder.body.fn, Var("only_here"))))
        gate = TargetLogicGate(quantified)
        assert gate(t) == (True, ())
        held = weakref.ref(t)
        gc.disable()
        try:
            del gate, t
            assert held() is None
        finally:
            gc.enable()


class TestFragmentByHand:
    """The bridge is usable as a library, without the file-based loader."""

    GRAMMAR = """
    abstract Pair = { flags startcat = S ; cat S ; P ; fun same : P -> S ; w : P ; }
    concrete PairEng of Pair = {
      lincat S, P = { s : Str } ;
      lin same p = { s = "same" ++ p.s } ; w = { s = "w" } ;
    }
    """

    LOGIC = """
    theory PairLogic : LF =
      prop : type # o ;
      ind : type # ι ;
      eq' : ι -> ι -> o ;
      all2 : (ι -> ι -> o) -> o # ∇ %1 prec 30 ;
      w' : ι ;
    end
    """

    def build(self) -> Fragment:
        registry = GrammarRegistry()
        parse_grammar_file(registry, self.GRAMMAR)
        abstract = registry.abstract("Pair")
        concrete = registry.concrete("PairEng")
        g = TheoryGraph()
        parse_theory_file(g, self.LOGIC)
        g.add(generate_language_theory(abstract))
        parse_theory_file(g, """
        view PairSemantics : Pair -> PairLogic =
          S = o ;
          P = ι ;
          w = w' ;
          same = [p : ι] ∇ ([x : ι, y : ι] eq' x p) ;
        end
        """)
        return Fragment(
            name="pair",
            abstract=abstract,
            concretes={"Eng": concrete},
            cfgs={"Eng": compile_cfg(abstract, concrete)},
            graph=g,
            language_theory=g.theory("Pair"),
            target_logic=g.theory("PairLogic"),
            domain_theory=g.theory("PairLogic"),
            semantics_view=g.view("PairSemantics"),
            start_category="S",
            proposition_type="prop",
            individual_type="ind",
        )

    def test_end_to_end(self):
        fragment = self.build()
        (r,) = construct_semantics(fragment, "same w")
        want = parse_term(fragment.target_flat, "∇ ([x : ι, y : ι] eq' x w')")
        assert alpha_eq(r.term, want)
        assert r.in_target_logic, r.diagnostics

    def test_binder_chain_under_higher_order_argument_is_sanctioned(self):
        fragment = self.build()
        t = parse_term(fragment.target_flat, "∇ ([x : ι, y : ι] eq' y x)")
        ok, diagnostics = check_in_target_logic(fragment, t)
        assert ok, diagnostics

    def test_chain_outside_higher_order_position_rejected(self):
        fragment = self.build()
        t = App(
            Const("eq'"),
            lam([("x", Const("ind")), ("y", Const("ind"))], Var("x")),
        )
        ok, diagnostics = check_in_target_logic(fragment, t)
        assert not ok
