"""The theory/view file format and its load-time checking."""

import pytest

from glf.errors import (
    DuplicateName,
    TermSyntaxError,
    TypeError_,
    UnresolvedReference,
)
from glf.kernel import Const, Lam, TYPE, Var, alpha_eq, app, arrow, normalize
from glf.modsys import TheoryGraph, parse_term, parse_theory_file, print_term

LOGIC = """
// the propositional core with its surface notations
theory PropLogicSyntax : LF =
  prop : type # o ;
  and : o -> o -> o # %1 ∧ %2 prec 10 ;
  neg : o -> o # ¬ %1 prec 20 ;
  or : o -> o -> o = [a : o, b : o] ¬ (¬ a ∧ ¬ b) # %1 ∨ %2 prec 9 ;
end

theory LogicSyntax =
  include PropLogicSyntax ;
  ind : type # ι ;
end
"""


def graph_with(text: str) -> TheoryGraph:
    g = TheoryGraph()
    parse_theory_file(g, text)
    return g


class TestTheoryFiles:
    def test_blocks_register_in_order(self):
        g = TheoryGraph()
        added = parse_theory_file(g, LOGIC)
        assert added == ["PropLogicSyntax", "LogicSyntax"]
        assert "PropLogicSyntax" in g.theories

    def test_comments_are_stripped(self):
        g = graph_with("theory T = // nothing here ; end\n c : type ; end")
        assert [d.name for d in g.flatten("T")] == ["c"]

    def test_comment_inside_a_notation_is_an_error(self):
        # Stripped, the comment would take the `;` with it, and the
        # notation would swallow the declaration of `c` on the next line.
        text = (
            "theory T =\n  o : type ;\n  div : o -> o -> o # %1 // %2 ;\n"
            "  c : o ;\nend\n"
        )
        with pytest.raises(TermSyntaxError, match="notation.*line 3"):
            graph_with(text)

    def test_comments_after_a_notation_are_stripped(self):
        g = graph_with(
            "theory T =\n  o : type ;\n  neg : o -> o # ¬ %1 prec 20 ; // negation\n"
            "  c : o ; // a constant # with a hash\nend\n"
            "theory U = // after an end\n  include T ;\nend\n"
        )
        assert [d.name for d in g.flatten("U")] == ["o", "neg", "c"]

    def test_declarations_parse_with_earlier_notations(self):
        g = graph_with(LOGIC)
        flat = g.flatten("PropLogicSyntax")
        d = flat.lookup("or")
        body = normalize(flat, app(Const("or"), Const("x"), Const("y")), delta="full")
        want = parse_term(flat, "¬ (¬ x ∧ ¬ y)")
        assert alpha_eq(body, want)

    def test_notation_precedences_recorded(self):
        g = graph_with(LOGIC)
        flat = g.flatten("LogicSyntax")
        assert flat.lookup("and").notation.precedence == 10
        assert flat.lookup("neg").notation.precedence == 20
        assert flat.lookup("ind").notation.tokens == ("ι",)
        assert flat.lookup("ind").notation.precedence == 0

    def test_meta_is_recorded(self):
        g = graph_with(LOGIC)
        assert g.theory("PropLogicSyntax").meta == "LF"
        assert g.theory("LogicSyntax").meta is None

    def test_includes_flatten_through_files(self):
        g = graph_with(LOGIC)
        flat = g.flatten("LogicSyntax")
        assert [d.name for d in flat] == ["prop", "and", "neg", "or", "ind"]

    def test_extra_semicolons_tolerated(self):
        g = graph_with("theory T = ; c : type ; ; end")
        assert [d.name for d in g.flatten("T")] == ["c"]

    def test_ill_typed_declaration_rejected_at_load(self):
        with pytest.raises(TypeError_):
            graph_with("theory T = c : type ; x : c ; bad : x ; end")

    def test_definiens_checked_against_type(self):
        with pytest.raises(TypeError_):
            graph_with("""
            theory T =
              c : type ;
              x : c ;
              f : c -> c = [a : c] x ;
              bad : c -> c = x ;
            end
            """)

    def test_unknown_constant_in_type_rejected(self):
        from glf.errors import UnknownConstant
        with pytest.raises(UnknownConstant):
            graph_with("theory T = x : nowhere ; end")

    def test_unknown_include_rejected(self):
        with pytest.raises(UnresolvedReference):
            graph_with("theory T = include Missing ; end")

    def test_missing_end_rejected(self):
        with pytest.raises(TermSyntaxError):
            graph_with("theory T = c : type ;")

    def test_junk_between_blocks_rejected(self):
        with pytest.raises(TermSyntaxError):
            graph_with("theory T = end banana")

    def test_declaration_needs_some_content(self):
        with pytest.raises(TermSyntaxError):
            graph_with("theory T = justaname ; end")

    def test_notation_alone_is_not_a_declaration(self):
        with pytest.raises(TermSyntaxError, match="d needs a type or a definiens"):
            graph_with("theory T = d # dee ; end")

    def test_reserved_word_as_declaration_name_rejected(self):
        with pytest.raises(TermSyntaxError):
            graph_with("theory T = include : type ; end")

    def test_duplicate_theory_name_rejected(self):
        with pytest.raises(DuplicateName):
            graph_with("theory T = end theory T = end")


class TestViewFiles:
    GRAMMAR = LOGIC + """
    theory Dom =
      include LogicSyntax ;
      joan' : ι ;
      love' : ι -> ι -> o ;
    end

    theory G =
      Stmt : type ;
      Person : type ;
      act : Person -> Person -> Stmt ;
    end
    """

    def test_view_with_assignments(self):
        g = graph_with(self.GRAMMAR + """
        view Sem : G -> Dom =
          Stmt = o ;
          Person = ι ;
          act = [a, b] love' a b ;
        end
        """)
        v = g.view("Sem")
        assert v.source == "G" and v.target == "Dom"
        flat = g.flatten("Dom")
        ast = app(Const("act"), Const("joan'"), Const("joan'"))
        from glf.modsys import apply_view
        got = normalize(flat, apply_view(g, v, ast))
        assert alpha_eq(got, parse_term(flat, "love' joan' joan'"))

    def test_assignment_terms_use_target_notation(self):
        g = graph_with(self.GRAMMAR + """
        view Sem : G -> Dom =
          Stmt = o ;
          Person = ι ;
          act = [a, b] ¬ (love' a b) ;
        end
        """)
        t = dict(g.view("Sem").assignments)["act"]
        assert isinstance(t, Lam)

    def test_ill_typed_assignment_rejected(self):
        with pytest.raises(TypeError_):
            graph_with(self.GRAMMAR + """
            view Sem : G -> Dom =
              Stmt = o ;
              Person = o ;
              act = [a, b] love' a b ;
            end
            """)

    def test_unknown_source_constant_rejected(self):
        with pytest.raises(UnresolvedReference):
            graph_with(self.GRAMMAR + """
            view Sem : G -> Dom =
              Stmt = o ;
              nobody = ι ;
            end
            """)

    def test_unknown_source_theory_rejected(self):
        with pytest.raises(UnresolvedReference):
            graph_with("theory T = end view V : Missing -> T = end")

    def test_view_includes_resolve(self):
        g = graph_with(self.GRAMMAR + """
        view Base : G -> Dom =
          Stmt = o ;
          Person = ι ;
        end
        view Full : G -> Dom =
          include Base ;
          act = [a, b] love' a b ;
        end
        """)
        from glf.modsys import check_totality
        assert check_totality(g, g.view("Full")) == ()
        assert check_totality(g, g.view("Base")) == ("act",)

    def test_malformed_assignment_rejected(self):
        with pytest.raises(TermSyntaxError):
            graph_with(self.GRAMMAR + """
            view Sem : G -> Dom =
              Stmt o ;
            end
            """)


class TestRoundTripThroughFiles:
    def test_parse_print_parse_on_file_theories(self):
        g = graph_with(LOGIC)
        flat = g.flatten("LogicSyntax")
        for text in [
            "¬ x' ∧ y'",
            "¬ (x' ∧ y')",
            "x' ∨ y' ∧ z'",
            "[x : ι] f x x",
            "{a : o} a ∨ ¬ a",
            "(ι -> o) -> o",
        ]:
            t = parse_term(flat, text)
            assert alpha_eq(parse_term(flat, print_term(flat, t)), t)
