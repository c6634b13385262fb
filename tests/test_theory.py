"""Theories, flattening, and views, built programmatically."""

import pytest

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
    TYPE,
    Var,
    alpha_eq,
    app,
    arrow,
    lam,
    normalize,
)
from glf.kernel.typecheck import EMPTY, infer_type
from glf.modsys import (
    Theory,
    TheoryGraph,
    View,
    ViewApplier,
    apply_view,
    check_totality,
    validate_view,
)
from helpers import cyclic_garbage, reference_apply_view

O = Const("prop")
I = Const("ind")


def d(name, ty=None, definiens=None):
    return Declaration(name, ty, definiens)


def life_graph() -> TheoryGraph:
    """Grammar + logic theories and the lexicon semantics, no surface syntax."""
    g = TheoryGraph()
    g.add(Theory("LogicSyntax", "LF", (), (
        d("prop", TYPE),
        d("and", arrow(O, O, O)),
        d("neg", arrow(O, O)),
        d("ind", TYPE),
        d("joan'", I),
        d("mary'", I),
        d("love'", arrow(I, I, O)),
        d("run'", arrow(I, O)),
    )))
    g.add(Theory("LifeGrammar", None, (), (
        d("Stmt", TYPE),
        d("Person", TYPE),
        d("Action", TYPE),
        d("act", arrow(Const("Person"), Const("Action"), Const("Stmt"))),
        d("and_Stmt", arrow(Const("Stmt"), Const("Stmt"), Const("Stmt"))),
    )))
    g.add(Theory("LifeLex", None, ("LifeGrammar",), (
        d("joan", Const("Person")),
        d("mary", Const("Person")),
        d("love", arrow(Const("Person"), Const("Action"))),
        d("run", Const("Action")),
        d("loveOneself", Const("Action")),
    )))
    g.add(View("LifeGrammarSemantics", "LifeGrammar", "LogicSyntax", (), (
        ("Stmt", O),
        ("Person", I),
        ("Action", arrow(I, O)),
        ("act", lam(["pers", "action"], app(Var("action"), Var("pers")))),
        ("and_Stmt", lam(["a", "b"], app(Const("and"), Var("a"), Var("b")))),
    )))
    g.add(View("LifeLexSemantics", "LifeLex", "LogicSyntax", ("LifeGrammarSemantics",), (
        ("joan", Const("joan'")),
        ("mary", Const("mary'")),
        ("love", lam(["p", "x"], app(Const("love'"), Var("x"), Var("p")))),
        ("run", Const("run'")),
        ("loveOneself", lam(["x"], app(Const("love'"), Var("x"), Var("x")))),
    )))
    return g


class TestFlatten:
    def test_flatten_collects_includes_in_dependency_order(self):
        g = life_graph()
        flat = g.flatten("LifeLex")
        names = [decl.name for decl in flat]
        assert names == [
            "Stmt", "Person", "Action", "act", "and_Stmt",
            "joan", "mary", "love", "run", "loveOneself",
        ]

    def test_flatten_is_idempotent_and_cached(self):
        g = life_graph()
        flat = g.flatten("LifeLex")
        assert g.flatten("LifeLex") is flat
        assert g.flatten(flat) is flat

    def test_cached_flattening_survives_an_unrelated_add(self):
        g = life_graph()
        flat = g.flatten("LifeLex")
        g.add(Theory("Unrelated", None, (), (d("u", TYPE),)))
        assert g.flatten("LifeLex") is flat

    def test_diamond_includes_contribute_once(self):
        g = TheoryGraph()
        g.add(Theory("Base", None, (), (d("c", TYPE),)))
        g.add(Theory("L", None, ("Base",), (d("l", Const("c")),)))
        g.add(Theory("R", None, ("Base",), (d("r", Const("c")),)))
        g.add(Theory("Top", None, ("L", "R"), ()))
        flat = g.flatten("Top")
        assert [decl.name for decl in flat] == ["c", "l", "r"]

    def test_meta_theory_is_flattened_in(self):
        g = TheoryGraph()
        g.add(Theory("Meta", None, (), (d("base", TYPE),)))
        g.add(Theory("Obj", "Meta", (), (d("x", Const("base")),)))
        flat = g.flatten("Obj")
        assert [decl.name for decl in flat] == ["base", "x"]
        assert infer_type(flat, EMPTY, Const("x")) == Const("base")

    def test_lf_meta_is_builtin(self):
        g = TheoryGraph()
        g.add(Theory("T", "LF", (), (d("c", TYPE),)))
        assert [decl.name for decl in g.flatten("T")] == ["c"]

    def test_cycle_detected(self):
        g = TheoryGraph()
        g.add(Theory("A", None, ("B",), ()))
        g.add(Theory("B", None, ("A",), ()))
        with pytest.raises(CyclicInclude):
            g.flatten("A")

    def test_self_include_detected(self):
        g = TheoryGraph()
        g.add(Theory("A", None, ("A",), ()))
        with pytest.raises(CyclicInclude):
            g.flatten("A")

    def test_missing_include_reported(self):
        g = TheoryGraph()
        g.add(Theory("A", None, ("Nowhere",), ()))
        with pytest.raises(UnresolvedReference):
            g.flatten("A")

    def test_qualified_lookup_disambiguates(self):
        g = TheoryGraph()
        g.add(Theory("P", None, (), (d("c", TYPE),)))
        g.add(Theory("Q", None, (), (d("c", TYPE),)))
        g.add(Theory("Both", None, ("P", "Q"), ()))
        flat = g.flatten("Both")
        with pytest.raises(DuplicateName):
            flat.lookup("c")
        assert flat.lookup("P?c").home == "P"
        assert flat.lookup("Q?c").home == "Q"

    def test_duplicate_declaration_in_one_theory(self):
        with pytest.raises(DuplicateName):
            Theory("T", None, (), (d("c", TYPE), d("c", TYPE)))

    def test_duplicate_module_name(self):
        g = TheoryGraph()
        g.add(Theory("T", None, (), ()))
        with pytest.raises(DuplicateName):
            g.add(Theory("T", None, (), ()))


class TestTotality:
    def test_total_view_reports_nothing(self):
        g = life_graph()
        assert check_totality(g, g.view("LifeLexSemantics")) == ()
        assert check_totality(g, g.view("LifeGrammarSemantics")) == ()

    def test_missing_assignment_is_named(self):
        g = life_graph()
        v = g.view("LifeLexSemantics")
        pruned = View(
            "Pruned", v.source, v.target, v.includes,
            tuple(a for a in v.assignments if a[0] != "loveOneself"),
        )
        g.add(pruned)
        assert check_totality(g, pruned) == ("loveOneself",)

    def test_defined_constants_do_not_need_assignments(self):
        g = TheoryGraph()
        g.add(Theory("S", None, (), (
            d("prop", TYPE),
            d("neg", arrow(O, O)),
            Declaration("dneg", arrow(O, O),
                        lam([("a", O)], app(Const("neg"), app(Const("neg"), Var("a"))))),
        )))
        g.add(Theory("T", None, (), (d("prop", TYPE), d("neg", arrow(O, O)))))
        v = View("V", "S", "T", (), (("prop", O), ("neg", Const("neg"))))
        g.add(v)
        assert check_totality(g, v) == ()

    def test_assignment_to_unknown_constant_rejected(self):
        g = life_graph()
        v = View("Bad", "LifeGrammar", "LogicSyntax", (), (("nope", O),))
        g.add(v)
        with pytest.raises(UnresolvedReference):
            check_totality(g, v)


class TestApplyView:
    def test_reflexivization_example(self):
        g = life_graph()
        v = g.view("LifeLexSemantics")
        ast = app(Const("act"), Const("joan"), Const("loveOneself"))
        image = apply_view(g, v, ast)
        logic = g.flatten("LogicSyntax")
        got = normalize(logic, image)
        want = app(Const("love'"), Const("joan'"), Const("joan'"))
        assert alpha_eq(got, want)

    def test_result_is_not_normalized(self):
        g = life_graph()
        v = g.view("LifeLexSemantics")
        ast = app(Const("act"), Const("joan"), Const("run"))
        image = apply_view(g, v, ast)
        assert not alpha_eq(image, normalize(g.flatten("LogicSyntax"), image))

    def test_homomorphic_over_application(self):
        g = life_graph()
        v = g.view("LifeLexSemantics")
        a = app(Const("act"), Const("mary"), Const("run"))
        b = app(Const("act"), Const("joan"), Const("run"))
        both = app(Const("and_Stmt"), a, b)
        assert alpha_eq(
            apply_view(g, v, both),
            app(apply_view(g, v, Const("and_Stmt")),
                apply_view(g, v, a), apply_view(g, v, b)),
        )

    def test_defined_source_constants_unfold_and_translate(self):
        g = TheoryGraph()
        g.add(Theory("S", None, (), (
            d("prop", TYPE),
            d("neg", arrow(O, O)),
            Declaration("dneg", arrow(O, O),
                        lam([("a", O)], app(Const("neg"), app(Const("neg"), Var("a"))))),
        )))
        g.add(Theory("T", None, (), (
            d("prop", TYPE),
            d("not_", arrow(O, O)),
        )))
        v = View("V", "S", "T", (), (("prop", O), ("neg", Const("not_"))))
        g.add(v)
        image = apply_view(g, v, Const("dneg"))
        want = lam([("a", O)], app(Const("not_"), app(Const("not_"), Var("a"))))
        assert alpha_eq(image, want)

    def test_ambient_constants_pass_through(self):
        g = life_graph()
        v = g.view("LifeGrammarSemantics")
        t = app(Const("and"), Const("mystery"), Const("mystery"))
        assert alpha_eq(apply_view(g, v, t), t)

    def test_partial_view_raises_on_unassigned_constant(self):
        g = life_graph()
        v = g.view("LifeGrammarSemantics")
        partial = View("P", "LifeGrammar", "LogicSyntax", (),
                       tuple(a for a in v.assignments if a[0] != "and_Stmt"))
        g.add(partial)
        with pytest.raises(PartialView) as exc:
            apply_view(g, partial, Const("and_Stmt"))
        assert exc.value.constant == "and_Stmt"

    def test_translation_commutes_with_normalization(self):
        g = life_graph()
        v = g.view("LifeLexSemantics")
        logic = g.flatten("LogicSyntax")
        ast = app(
            Const("and_Stmt"),
            app(Const("act"), Const("joan"), app(Const("love"), Const("mary"))),
            app(Const("act"), Const("mary"), Const("loveOneself")),
        )
        left = normalize(logic, apply_view(g, v, ast))
        want = app(
            Const("and"),
            app(Const("love'"), Const("joan'"), Const("mary'")),
            app(Const("love'"), Const("mary'"), Const("mary'")),
        )
        assert alpha_eq(left, want)


def life_trees() -> list:
    """Trees over `LifeLex` that share subtrees, and a tree containing each."""
    a = app(Const("act"), Const("mary"), Const("run"))
    b = app(Const("act"), Const("joan"), app(Const("love"), Const("mary")))
    c = app(Const("act"), Const("mary"), Const("loveOneself"))
    ab = app(Const("and_Stmt"), a, b)
    return [a, b, c, ab, app(Const("and_Stmt"), ab, c), app(Const("and_Stmt"), c, ab)]


class TestViewApplier:
    """One applier shared across trees gives each tree the image that
    translating it on its own gives."""

    @pytest.mark.parametrize("order", [range(6), reversed(range(6)), (3, 0, 5, 1, 4, 2)])
    def test_a_shared_applier_gives_the_one_shot_images(self, order):
        g = life_graph()
        v = g.view("LifeLexSemantics")
        trees = life_trees()
        view = ViewApplier(g, v)
        for i in order:
            image = view(trees[i])
            assert image is reference_apply_view(g, v, trees[i])
            assert image is apply_view(g, v, trees[i])
            assert view(trees[i]) is image

    def test_a_node_that_fails_fails_wherever_it_comes(self):
        g = life_graph()
        v = g.view("LifeGrammarSemantics")
        partial = View("P2", "LifeGrammar", "LogicSyntax", (),
                       tuple(a for a in v.assignments if a[0] != "and_Stmt"))
        g.add(partial)
        person = Const("Person")
        # `act` is assigned, `and_Stmt` is not.
        ok = app(Const("act"), Var("p"), Var("a"))
        failing = app(Const("and_Stmt"), ok, ok)
        view = ViewApplier(g, partial)
        assert view(ok) is reference_apply_view(g, partial, ok)
        for t in (failing, Lam("x", person, failing), failing):
            with pytest.raises(PartialView) as exc:
                view(t)
            assert exc.value.constant == "and_Stmt"
        assert view(ok) is reference_apply_view(g, partial, ok)
        assert view(person) is reference_apply_view(g, partial, person)

    def test_apply_view_leaves_no_cyclic_garbage(self):
        g = life_graph()
        v = g.view("LifeLexSemantics")
        trees = life_trees()
        assert cyclic_garbage(lambda: [apply_view(g, v, t) for t in trees]) == 0
        view = ViewApplier(g, v)
        assert cyclic_garbage(lambda: [view(t) for t in trees]) == 0


class TestMergedAssignments:
    def test_cached_map_equals_a_fresh_one_after_an_unrelated_add(self):
        g = life_graph()
        view = g.view("LifeLexSemantics")
        first = g.merged_assignments(view)
        assert g.merged_assignments(view) is first
        g.add(Theory("Unrelated", None, (), (d("u", TYPE),)))
        fresh_graph = life_graph()
        fresh = fresh_graph.merged_assignments(fresh_graph.view("LifeLexSemantics"))
        assert g.merged_assignments(view) == fresh
        assert list(g.merged_assignments(view)) == list(fresh)

    def test_unregistered_view_is_not_cached(self):
        g = life_graph()
        stray = View("LifeLexSemantics", "LifeLex", "LogicSyntax", ("LifeGrammarSemantics",), (
            ("joan", Const("mary'")),
        ))
        registered = g.view("LifeLexSemantics")
        assert g.merged_assignments(registered)["LifeLex?joan"] == Const("joan'")
        assert g.merged_assignments(stray)["LifeLex?joan"] == Const("mary'")
        assert g.merged_assignments(registered)["LifeLex?joan"] == Const("joan'")


class TestValidateView:
    def test_well_typed_view_passes(self):
        g = life_graph()
        validate_view(g, g.view("LifeGrammarSemantics"))
        validate_view(g, g.view("LifeLexSemantics"))

    def test_ill_typed_assignment_rejected(self):
        from glf.errors import TypeError_
        g = life_graph()
        bad = View("Bad", "LifeLex", "LogicSyntax", ("LifeGrammarSemantics",), (
            ("joan", Const("run'")),   # run' : ind -> prop, joan needs ind
        ))
        g.add(bad)
        with pytest.raises(TypeError_):
            validate_view(g, bad)

    def test_assigning_a_defined_constant_is_an_error(self):
        g = TheoryGraph()
        g.add(Theory("S", None, (), (
            d("prop", TYPE),
            Declaration("t", O, definiens=None),
            Declaration("dd", arrow(O, O), lam([("a", O)], Var("a"))),
        )))
        g.add(Theory("T", None, (), (d("prop", TYPE),)))
        v = View("V", "S", "T", (), (("dd", lam([("a", O)], Var("a"))),))
        g.add(v)
        with pytest.raises(ModuleError):
            validate_view(g, v)

    def test_conflicting_inherited_assignment_rejected(self):
        g = life_graph()
        clash = View("Clash", "LifeLex", "LogicSyntax", ("LifeGrammarSemantics",), (
            ("Person", O),   # the included view maps Person to ind
            ("joan", Const("joan'")),
        ))
        g.add(clash)
        with pytest.raises(DuplicateName):
            check_totality(g, clash)

    def test_inherited_assignment_checked_under_the_including_view(self):
        from glf.errors import NotAFunction
        g = life_graph()
        # `act` cannot be checked in the grammar view, which leaves Person
        # unassigned; the lexicon view assigns it, and `act` is ill-typed.
        grammar = View("Grammar", "LifeGrammar", "LogicSyntax", (), (
            ("Stmt", O),
            ("Action", arrow(I, O)),
            ("act", lam(["pers", "action"], app(Var("pers"), Var("action")))),
            ("and_Stmt", lam(["a", "b"], app(Const("and"), Var("a"), Var("b")))),
        ))
        lexicon = View("Lexicon", "LifeLex", "LogicSyntax", ("Grammar",), (
            ("Person", I),
            ("joan", Const("joan'")),
        ))
        g.add(grammar)
        g.add(lexicon)
        validate_view(g, grammar)
        with pytest.raises(NotAFunction, match="pers of type ind is applied to action"):
            validate_view(g, lexicon)

    def test_notation_arity_must_fit_type(self):
        from glf.kernel import Notation
        with pytest.raises(ModuleError):
            Theory("T", None, (), (
                Declaration("f", arrow(O, O), None,
                            Notation(("%1", "!!", "%2"), 10)),
            ))
