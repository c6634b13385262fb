"""Term parsing and printing against a notation-rich signature.

The precedence tests compare the Pratt parser against an independent
shunting-yard implementation on randomly generated token strings, so the
two algorithms vouch for each other.
"""

import gc
import weakref
from functools import cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from glf.errors import AmbiguousParse, DuplicateName, TermSyntaxError
from glf.kernel import (
    App,
    Const,
    Declaration,
    Lam,
    Notation,
    Pi,
    Signature,
    TYPE,
    Var,
    alpha_eq,
    app,
    arrow,
    lam,
)
from glf.corpus import fragment_dir
from glf.modsys import Theory, TheoryGraph, parse_term, print_term
from glf.modsys.syntax import _Printer, notation_table
from glf.shell import load_fragment
from helpers import cyclic_garbage, reference_print_term, signature_terms, typed_terms

O = Const("prop")
I = Const("ind")


def n(*tokens, prec=0):
    return Notation(tuple(tokens), prec)


def build_flat(*extra: Declaration):
    g = TheoryGraph()
    g.add(Theory("TestLogic", "LF", (), (
        Declaration("prop", TYPE, None, n("o")),
        Declaration("ind", TYPE, None, n("ι")),
        Declaration("mode", TYPE),
        Declaration("md", Const("mode")),
        Declaration("and", arrow(O, O, O), None, n("%1", "∧", "%2", prec=10)),
        Declaration("or", arrow(O, O, O), None, n("%1", "∨", "%2", prec=9)),
        Declaration("impl", arrow(O, O, O), None, n("%1", "⇒", "%2", prec=7)),
        Declaration("neg", arrow(O, O), None, n("¬", "%1", prec=20)),
        Declaration("ded", arrow(O, TYPE), None, n("⊢", "%1", prec=5)),
        Declaration("box", arrow(Const("mode"), O, O), None,
                    n("⟦", "%1", "⟧", "%2", prec=30)),
        Declaration("forall", arrow(arrow(I, O), O), None, n("∀", "%1", prec=25)),
        Declaration("p", O),
        Declaration("q", O),
        Declaration("r", O),
        Declaration("j", I),
        Declaration("m", I),
        Declaration("run'", arrow(I, O)),
        Declaration("love'", arrow(I, I, O)),
        *extra,
    )))
    return g.flatten("TestLogic")


FLAT = build_flat()


def pt(text: str):
    return parse_term(FLAT, text)


class TestParseShapes:
    def test_application_is_left_associative(self):
        assert pt("love' j m") == app(Const("love'"), Const("j"), Const("m"))

    def test_arrow_is_right_associative(self):
        t = pt("o -> o -> o")
        assert isinstance(t, Pi) and isinstance(t.codomain, Pi)
        assert t.domain == O and t.codomain.domain == O and t.codomain.codomain == O

    def test_zero_argument_lexemes_name_their_constants(self):
        assert pt("ι") == Const("ind")
        assert pt("o") == Const("prop")
        assert pt("ι -> o") == arrow(I, O)

    def test_plain_names_still_work(self):
        assert pt("ind -> prop") == arrow(I, O)

    def test_binders(self):
        t = pt("[pers, action] action pers")
        assert t == Lam("pers", None, Lam("action", None,
                        app(Var("action"), Var("pers"))))

    def test_annotated_binder(self):
        t = pt("[x : ι] love' x x")
        assert t == Lam("x", I, app(Const("love'"), Var("x"), Var("x")))

    def test_binder_body_is_maximal(self):
        t = pt("[x] run' x ∧ p")
        assert isinstance(t, Lam)
        assert t.body == app(Const("and"), app(Const("run'"), Var("x")), Const("p"))

    def test_lambda_argument_needs_parens_to_cut_short(self):
        t = pt("forall ([x] run' x) ∧ p")
        assert t == app(Const("and"),
                        app(Const("forall"), Lam("x", None, app(Const("run'"), Var("x")))),
                        Const("p"))

    def test_dependent_function_type(self):
        t = pt("{a : o} {b : o} ⊢ a -> ⊢ b -> ⊢ a ∧ b")
        assert t == Pi("a", O, Pi("b", O, arrow(
            app(Const("ded"), Var("a")),
            app(Const("ded"), Var("b")),
            app(Const("ded"), app(Const("and"), Var("a"), Var("b"))),
        )))

    def test_telescope_commas(self):
        assert alpha_eq(pt("{a : o, b : o} ⊢ a"), pt("{a : o} {b : o} ⊢ a"))

    def test_later_binders_may_depend_on_earlier_ones(self):
        t = pt("[a : o, x : ⊢ a] x")
        assert t.binder_type == O
        assert t.body.binder_type == app(Const("ded"), Var("a"))

    def test_type_sort(self):
        assert pt("type") == TYPE
        assert pt("o -> type") == arrow(O, TYPE)

    def test_unknown_names_parse_as_constants(self):
        assert pt("mystery") == Const("mystery")

    def test_shadowing_prefers_the_binder(self):
        t = pt("[p] p")
        assert t == Lam("p", None, Var("p"))
        assert pt("p") == Const("p")

    def test_quantifier_takes_a_maximal_lambda(self):
        t = pt("∀ [x : ι] run' x ∧ love' x x")
        inner = t.arg.body
        assert inner == app(Const("and"),
                            app(Const("run'"), Var("x")),
                            app(Const("love'"), Var("x"), Var("x")))

    def test_delimited_slot_parses_loosely(self):
        t = pt("⟦ md ⟧ run' j")
        assert t == app(Const("box"), Const("md"), app(Const("run'"), Const("j")))

    def test_trailing_slot_binds_tighter_than_infix(self):
        t = pt("⟦ md ⟧ p ∧ q")
        assert t == app(Const("and"),
                        app(Const("box"), Const("md"), Const("p")),
                        Const("q"))

    def test_nested_box(self):
        t = pt("¬ ⟦ md ⟧ ⟦ md ⟧ p")
        want = app(Const("neg"),
                   app(Const("box"), Const("md"),
                       app(Const("box"), Const("md"), Const("p"))))
        assert t == want


class TestPrecedence:
    def test_negation_binds_tighter_than_conjunction(self):
        assert pt("¬ p ∧ q") == app(Const("and"),
                                    app(Const("neg"), Const("p")), Const("q"))
        assert pt("¬ (p ∧ q)") == app(Const("neg"),
                                      app(Const("and"), Const("p"), Const("q")))

    def test_conjunction_binds_tighter_than_disjunction(self):
        assert pt("p ∨ q ∧ r") == app(Const("or"), Const("p"),
                                      app(Const("and"), Const("q"), Const("r")))

    def test_infix_is_left_associative(self):
        assert pt("p ∧ q ∧ r") == app(Const("and"),
                                      app(Const("and"), Const("p"), Const("q")),
                                      Const("r"))

    def test_application_binds_tightest(self):
        assert pt("run' j ∧ run' m") == app(Const("and"),
                                            app(Const("run'"), Const("j")),
                                            app(Const("run'"), Const("m")))

    def test_turnstile_is_loosest(self):
        t = pt("⊢ p ∧ q ⇒ r")
        assert t == app(Const("ded"),
                        app(Const("impl"),
                            app(Const("and"), Const("p"), Const("q")),
                            Const("r")))

    def test_arrow_looser_than_any_notation(self):
        t = pt("⊢ p -> ⊢ q")
        assert isinstance(t, Pi)
        assert t.domain == app(Const("ded"), Const("p"))
        assert t.codomain == app(Const("ded"), Const("q"))


# --- shunting-yard oracle -----------------------------------------------------

PREFIX = {"¬": ("neg", 20), "⊢": ("ded", 5)}
INFIX = {"∧": ("and", 10), "∨": ("or", 9), "⇒": ("impl", 7)}
ATOMS = {"p", "q", "r"}


def shunting_yard(tokens: list[str]):
    out: list = []
    ops: list[tuple[str, int, str]] = []
    expect_operand = True

    def reduce_top():
        sym, _, kind = ops.pop()
        if kind == "prefix":
            x = out.pop()
            out.append(app(Const(PREFIX[sym][0]), x))
        else:
            b, a = out.pop(), out.pop()
            out.append(app(Const(INFIX[sym][0]), a, b))

    for tok in tokens:
        if tok in ATOMS:
            assert expect_operand
            out.append(Const(tok))
            expect_operand = False
        elif tok in PREFIX:
            assert expect_operand
            ops.append((tok, PREFIX[tok][1], "prefix"))
        elif tok in INFIX:
            assert not expect_operand
            prec = INFIX[tok][1]
            while ops and ops[-1][2] != "paren" and ops[-1][1] >= prec:
                reduce_top()
            ops.append((tok, prec, "infix"))
            expect_operand = True
        elif tok == "(":
            assert expect_operand
            ops.append((tok, 0, "paren"))
        else:
            assert not expect_operand
            while ops[-1][2] != "paren":
                reduce_top()
            ops.pop()
    assert not expect_operand
    while ops:
        reduce_top()
    assert len(out) == 1
    return out[0]


@st.composite
def op_expressions(draw, depth: int = 0) -> list[str]:
    tokens: list[str] = []
    for _ in range(draw(st.integers(0, 2))):
        tokens.append(draw(st.sampled_from(sorted(PREFIX))))
    if depth < 3 and draw(st.booleans()):
        tokens.append("(")
        tokens.extend(draw(op_expressions(depth + 1)))
        tokens.append(")")
    else:
        tokens.append(draw(st.sampled_from(sorted(ATOMS))))
    for _ in range(draw(st.integers(0, 2 if depth < 2 else 0))):
        tokens.append(draw(st.sampled_from(sorted(INFIX))))
        tokens.extend(draw(op_expressions(depth + 1)))
    return tokens


class TestAgainstShuntingYard:
    @given(op_expressions())
    @settings(max_examples=300, deadline=None)
    def test_parser_agrees_with_shunting_yard(self, tokens):
        text = " ".join(tokens)
        assert alpha_eq(pt(text), shunting_yard(tokens))

    def test_exhaustive_short_strings(self):
        import itertools
        vocab = ["p", "q", "¬", "⊢", "∧", "⇒", "(", ")"]
        checked = 0
        for length in range(1, 6):
            for tokens in itertools.product(vocab, repeat=length):
                try:
                    want = shunting_yard(list(tokens))
                except (AssertionError, IndexError, KeyError):
                    continue
                got = pt(" ".join(tokens))
                assert alpha_eq(got, want), " ".join(tokens)
                checked += 1
        assert checked > 250

    def test_oracle_sanity(self):
        assert shunting_yard(["¬", "p", "∧", "q"]) == app(
            Const("and"), app(Const("neg"), Const("p")), Const("q"))


class TestPrinter:
    def test_prints_with_minimal_parens(self):
        t = app(Const("and"), app(Const("neg"), Const("p")), Const("q"))
        assert print_term(FLAT, t) == "¬ p ∧ q"
        u = app(Const("neg"), app(Const("and"), Const("p"), Const("q")))
        assert print_term(FLAT, u) == "¬ (p ∧ q)"

    def test_prints_zero_arity_lexemes(self):
        assert print_term(FLAT, arrow(I, O)) == "ι -> o"

    def test_right_nested_infix_keeps_parens(self):
        t = app(Const("and"), Const("p"), app(Const("and"), Const("q"), Const("r")))
        assert print_term(FLAT, t) == "p ∧ (q ∧ r)"
        u = app(Const("and"), app(Const("and"), Const("p"), Const("q")), Const("r"))
        assert print_term(FLAT, u) == "p ∧ q ∧ r"

    def test_prints_binders(self):
        t = Lam("x", I, app(Const("love'"), Var("x"), Var("x")))
        assert print_term(FLAT, t) == "[x : ι] love' x x"

    def test_lambda_argument_is_parenthesized(self):
        t = app(Const("forall"), Lam("x", I, app(Const("run'"), Var("x"))))
        text = print_term(FLAT, t)
        assert alpha_eq(pt(text), t)
        t2 = app(Const("and"), app(Const("forall"), Lam("x", I, app(Const("run'"), Var("x")))), Const("p"))
        assert alpha_eq(pt(print_term(FLAT, t2)), t2)

    def test_unparseable_binder_names_are_renamed(self):
        t = Lam("$0", I, app(Const("run'"), Var("$0")))
        text = print_term(FLAT, t)
        assert "$" not in text
        assert alpha_eq(pt(text), t)

    def test_dependent_type_round_trip(self):
        t = pt("{a : o} {b : o} ⊢ a -> ⊢ b -> ⊢ a ∧ b")
        assert alpha_eq(pt(print_term(FLAT, t)), t)

    @given(typed_terms(FLAT, bases=(O, I)))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, t):
        text = print_term(FLAT, t)
        assert alpha_eq(parse_term(FLAT, text), t)

    @given(typed_terms(FLAT, bases=(O, I)))
    @settings(max_examples=100, deadline=None)
    def test_printing_is_stable(self, t):
        text = print_term(FLAT, t)
        assert print_term(FLAT, parse_term(FLAT, text)) == text


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "", "(p", "p)", "[x", "[x] ", "p ∧", "∧ p", "p q)",
        "[x : ] p", "{x} p", "p ⟦", "⟦ p ⟧", "[1x] p", "p # q",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(TermSyntaxError):
            pt(bad)

    @pytest.mark.parametrize("bad, message", [
        ("{x} x", "expected 'colon', found '}' at line 1, column 3"),
        ("{x, y : type} x", "expected 'colon', found ',' at line 1, column 3"),
        ("{x : type, y} x", "expected 'colon', found '}' at line 1, column 13"),
        ("[x : type, ] x", "expected 'ident', found ']' at line 1, column 12"),
        ("{} x", "expected 'ident', found '}' at line 1, column 2"),
        ("[x y] x", "expected 'rbrack', found 'y' at line 1, column 4"),
        ("{x : type x", "expected 'rbrace', found 'end of input' at line 1, column 12"),
        ("[x : ] x", "expected a term, found ']' at line 1, column 6"),
    ])
    def test_binder_group_errors(self, bad, message):
        with pytest.raises(TermSyntaxError) as exc:
            pt(bad)
        assert str(exc.value) == message

    def test_error_carries_position(self):
        with pytest.raises(TermSyntaxError) as exc:
            pt("p ∧\n∧ q")
        assert exc.value.line == 2

    def test_ambiguous_plain_reference(self):
        g = TheoryGraph()
        g.add(Theory("P", None, (), (Declaration("c", TYPE),)))
        g.add(Theory("Q", None, (), (Declaration("c", TYPE),)))
        g.add(Theory("Both", None, ("P", "Q"), ()))
        flat = g.flatten("Both")
        with pytest.raises(DuplicateName):
            parse_term(flat, "c")
        assert parse_term(flat, "P?c") == Const("P?c")

    def test_qualified_names_print_back(self):
        g = TheoryGraph()
        g.add(Theory("P", None, (), (Declaration("c", TYPE),)))
        g.add(Theory("Q", None, (), (Declaration("c", TYPE),)))
        g.add(Theory("Both", None, ("P", "Q"), ()))
        flat = g.flatten("Both")
        t = parse_term(flat, "P?c -> Q?c")
        assert alpha_eq(parse_term(flat, print_term(flat, t)), t)


class TestAmbiguityChecks:
    def test_duplicate_prefix_key(self):
        flat = build_flat(Declaration("neg2", arrow(O, O), None, n("¬", "%1", "!", prec=11)))
        with pytest.raises(AmbiguousParse):
            parse_term(flat, "p")

    def test_duplicate_infix_key(self):
        flat = build_flat(Declaration("and2", arrow(O, O, O), None, n("%1", "∧", "%2", prec=11)))
        with pytest.raises(AmbiguousParse):
            parse_term(flat, "p")

    def test_delimiter_clashing_with_operator(self):
        # ⟧ closes the box notation, so it cannot also start one
        flat = build_flat(Declaration("weird", arrow(O, O), None, n("⟧", "%1", prec=11)))
        with pytest.raises(AmbiguousParse):
            parse_term(flat, "p")

    def test_adjacent_placeholders(self):
        flat = build_flat(Declaration("pair", arrow(O, O, O), None,
                                      n("⟨", "%1", "%2", "⟩", prec=11)))
        with pytest.raises(AmbiguousParse):
            parse_term(flat, "p")

    def test_notation_needs_a_literal(self):
        flat = build_flat(Declaration("idn", arrow(O, O), None, Notation(("%1",), 10)))
        with pytest.raises(AmbiguousParse):
            parse_term(flat, "p")

    def test_placeholders_must_be_consecutive_from_one(self):
        with pytest.raises(ValueError):
            Notation(("%2", "!"), 10)
        with pytest.raises(ValueError):
            Notation(("%1", "!", "%1"), 10)

    def test_reserved_tokens_rejected(self):
        for tok in ["->", "(", "]", ":", ";", "=", "#", "type", "end"]:
            flat = build_flat(Declaration("zz", arrow(O, O), None, n(tok, "%1", prec=11)))
            with pytest.raises(AmbiguousParse):
                parse_term(flat, "p")

    def test_open_notation_needs_room_above_arrow(self):
        flat = build_flat(Declaration("low", arrow(O, O), None, n("!", "%1", prec=1)))
        with pytest.raises(AmbiguousParse):
            parse_term(flat, "p")

    def test_closed_notation_may_omit_precedence(self):
        flat = build_flat(Declaration("abs", arrow(O, O), None, n("⌈", "%1", "⌉")))
        t = parse_term(flat, "⌈ p ∧ q ⌉")
        assert t == app(Const("abs"), app(Const("and"), Const("p"), Const("q")))
        assert alpha_eq(parse_term(flat, print_term(flat, t)), t)

    def test_same_token_opening_and_closing_is_ambiguous(self):
        flat = build_flat(Declaration("norm", arrow(O, O), None, n("|", "%1", "|")))
        with pytest.raises(AmbiguousParse):
            parse_term(flat, "p")


def ambiguous_flat():
    """Two theories that declare `c` and `g`, each with its own notation."""
    g = TheoryGraph()
    g.add(Theory("P", None, (), (
        Declaration("c", TYPE, None, n("⋆")),
        Declaration("g", arrow(TYPE, TYPE, TYPE), None, n("%1", "⊕", "%2", prec=10)),
    )))
    g.add(Theory("Q", None, (), (
        Declaration("c", TYPE, None, n("⋄")),
        Declaration("g", arrow(TYPE, TYPE), None, n("⊗", "%1", prec=20)),
    )))
    g.add(Theory("Both", None, ("P", "Q"), ()))
    return g.flatten("Both")


@cache
def printing_flats():
    flats = {"test": FLAT, "ambiguous": ambiguous_flat(),
             "op.infix": OP_SIGNATURE, "op.prefix": op_signature(n("⊗", "%1", "⊘", "%2", prec=10))}
    for name in ("life", "quantified", "modal"):
        fragment = load_fragment(fragment_dir(name))
        flats[f"{name}.target"] = fragment.target_flat
        flats[f"{name}.language"] = fragment.language_flat
    return flats


class TestPrinterAgainstReference:
    """`print_term` prints what the printer that matched every token
    against ``%n`` and looked every constant up in the signature printed."""

    @pytest.mark.parametrize("name", [
        "test", "ambiguous", "life.target", "life.language", "quantified.target",
        "quantified.language", "modal.target", "modal.language",
    ])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_text_as_the_reference(self, name, data):
        flat = printing_flats()[name]
        t = data.draw(signature_terms(flat))
        assert print_term(flat, t) == reference_print_term(flat, t)

    @pytest.mark.parametrize("t, text", [
        (Const("c"), "c"),
        (Const("P?c"), "⋆"),
        (Const("Q?c"), "⋄"),
        (app(Const("P?g"), Const("P?c"), Const("Q?c")), "⋆ ⊕ ⋄"),
        (app(Const("Q?g"), Const("P?c"), Const("Q?c")), "(⊗ ⋆) ⋄"),
        (app(Const("g"), Const("P?c"), Const("Q?c")), "g ⋆ ⋄"),
    ])
    def test_ambiguous_names_print_as_themselves(self, t, text):
        flat = ambiguous_flat()
        assert print_term(flat, t) == text == reference_print_term(flat, t)

    def test_each_signature_prints_its_own_notation(self):
        infix = op_signature(n("%1", "⊕", "%2", prec=10))
        prefix = op_signature(n("⊗", "%1", "⊘", "%2", prec=10))
        t = app(Const("op"), Const("a"), app(Const("op"), Const("b"), Const("a")))
        for _ in range(2):
            assert print_term(infix, t) == "a ⊕ (b ⊕ a)"
            assert print_term(prefix, t) == "⊗ a ⊘ (⊗ b ⊘ a)"
            assert print_term(infix, Const("ty")) == print_term(prefix, Const("ty")) == "ty"

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_memo_gives_the_reference_text(self, data):
        # The same terms printed again, at other precedences, and under
        # tables that print the same node differently, in any order.
        flats = [printing_flats()[name] for name in OP_FLATS]
        terms = data.draw(st.lists(signature_terms(OP_SIGNATURE), min_size=1, max_size=4))
        places = st.tuples(st.sampled_from(terms), st.sampled_from(flats),
                           st.sampled_from(PRECEDENCES), st.booleans())
        for t, flat, prec, right_open in data.draw(st.lists(places, min_size=1, max_size=12)):
            want = reference_print_term(flat, t, prec, right_open)
            assert _Printer(notation_table(flat)).render(t, prec, right_open) == want
            assert print_term(flat, t) == reference_print_term(flat, t)


def op_signature(notation):
    """A signature whose `op` has the given notation."""
    return Signature([
        Declaration("ty", TYPE, None, n("ty")),
        Declaration("a", Const("ty")),
        Declaration("b", Const("ty")),
        Declaration("op", arrow(Const("ty"), Const("ty"), Const("ty")), None, notation),
        Declaration("neg", arrow(Const("ty"), Const("ty")), None, n("¬", "%1", prec=20)),
    ])


#: Two signatures that give `op` different notations, and the two flats of
#: a fragment, whose terms share nodes.
OP_SIGNATURE = op_signature(n("%1", "⊕", "%2", prec=10))
OP_FLATS = ("op.infix", "op.prefix", "quantified.target", "quantified.language")
#: Every precedence a printer asks for: the top's, application's, the
#: arrow's, and either side of each shipped notation's.
PRECEDENCES = (0, 2, 3, 5, 6, 9, 10, 11, 20, 21, 25, 26, 30, 31, 1000, 1001)


class TestPrintMemo:
    """Each table remembers the text of the nodes it has printed for as
    long as they live, and no longer."""

    def test_a_printed_node_dies_with_its_last_reference(self):
        flat = printing_flats()["quantified.target"]
        table = notation_table(flat)
        gc.disable()
        try:
            t = app(Const("or"), App(Const("run'"), Const("memo_unique")), Const("sunny'"))
            text = print_term(flat, t)
            held = weakref.ref(t)
            printed = sum(len(memo) for memo in table.printed.values())
            del t
            assert held() is None
            assert sum(len(memo) for memo in table.printed.values()) < printed
        finally:
            gc.enable()
        rebuilt = app(Const("or"), App(Const("run'"), Const("memo_unique")), Const("sunny'"))
        assert print_term(flat, rebuilt) == text == reference_print_term(flat, rebuilt)

    @given(st.lists(signature_terms(OP_SIGNATURE), min_size=1, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_printing_leaves_no_cyclic_garbage(self, terms):
        flats = [printing_flats()[name] for name in OP_FLATS]
        assert cyclic_garbage(
            lambda: [print_term(flat, t) for t in terms for flat in flats]) == 0

    def test_a_new_table_makes_no_cycle(self):
        t = app(Const("op"), Lam("x", None, app(Const("neg"), Var("x"))), Const("a"))
        assert cyclic_garbage(
            lambda: print_term(op_signature(n("⊖", "%1", "⊙", "%2", prec=10)), t)) == 0
