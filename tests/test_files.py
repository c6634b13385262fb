"""The theory/view file format and its load-time checking."""

import ast as python_ast
import re
import shutil
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from glf.corpus import FRAGMENTS, fragment_dir
from glf.errors import (
    AmbiguousParse,
    DuplicateName,
    FragmentLoadError,
    GlfError,
    TermSyntaxError,
    TypeError_,
    UnresolvedReference,
)
from glf.kernel import Const, Lam, Notation, TYPE, Var, alpha_eq, app, arrow, normalize
from glf.modsys import TheoryGraph, parse_term, parse_theory_file, print_term, syntax
from glf.modsys.syntax import IDENT_RE, KEYWORDS, RESERVED_TOKENS, notation_table
from glf.shell.loader import load_fragment, parse_manifest
from helpers import reference_parse_theory_file

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

    def test_errors_give_file_positions(self):
        with pytest.raises(TermSyntaxError, match=r"'%' at line 9, column 25$"):
            load_domain(("o # love'", "o % love'"))
        with pytest.raises(TermSyntaxError, match=r"found '\)' at line 7, column 15$"):
            load_domain(("mary_DT : ι #", "mary_DT : ι ) #"))

    def test_glued_notation_word_is_rejected_where_it_is_written(self):
        # The bracket once hid the `;`, and the notation swallowed the theory.
        with pytest.raises(TermSyntaxError, match=r"jo\(an'.* at line 6, column 17$"):
            load_domain(("# joan' ;", "# jo(an' ;"))

    @pytest.mark.parametrize("notation", ["a ( %1", "end' #x", "%1 : %2", "%1 prec", "ab+"])
    def test_notation_words_must_lex_as_one_token(self, notation):
        with pytest.raises(TermSyntaxError, match="line 3"):
            graph_with(f"theory T =\n  o : type ;\n  f : o -> o -> o # {notation} ;\nend\n")

    def test_notation_ends_at_the_first_semicolon_or_end(self):
        g = graph_with("theory T = o : type ; c : o # ⊤ end theory U = d : type # ⊥; end")
        assert g.theory("T").declarations[1].notation == Notation(("⊤",))
        assert g.theory("U").declarations[0].notation == Notation(("⊥",))

    @pytest.mark.parametrize("text, tokens, prec", [
        ("theory T = o : type ; c : o # q'end ; end", ("q'end",), 0),
        ("theory T = o : type ; c : o -> o # %1 q'end prec 5 ; end", ("%1", "q'end"), 5),
        ("theory T = o : type ; c : o # q'prec 5 ; end", ("q'prec", "5"), 0),
        ("theory T = o : type ; c : o -> o # %1 q'prec prec 5 ; end", ("%1", "q'prec"), 5),
    ])
    def test_end_after_a_prime_is_part_of_a_notation_word(self, text, tokens, prec):
        # A prime is a word character, so `q'end` is one word, not `q'` and `end`,
        # and `q'prec` is not `q'` and `prec`.
        for parse in (parse_theory_file, reference_parse_theory_file):
            g = TheoryGraph()
            parse(g, text)
            assert g.theory("T").declarations[-1].notation == Notation(tokens, prec)

    def test_longer_notation_symbols_win_over_structural_ones(self):
        g = graph_with("theory T = o : type ; imp : o -> o -> o # %1 => %2 prec 5 ;"
                       " c : o ; d : o = c=>c ; end")
        assert g.flatten("T").lookup("d").definiens == app(Const("imp"), Const("c"), Const("c"))

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


class TestOneScopePerTheory:
    """A theory is read into one scope that each declaration joins once it
    is checked, so its notations are checked where they are written and
    reading is linear in its length."""

    HATE = ("# love' ;", "# love' ;\n  hate_DT : ι -> ι -> o # love' ;")

    def test_a_notation_clash_in_the_last_declaration_is_rejected(self):
        with pytest.raises(AmbiguousParse, match=r"LifeDT\?love_DT and LifeDT\?hate_DT"):
            load_domain(self.HATE)

    def test_a_notation_clash_is_blamed_on_the_file_that_makes_it(self, tmp_path):
        root = tmp_path / "life"
        shutil.copytree(fragment_dir("life"), root)
        path = root / "logic" / "domain.thy"
        old, new = self.HATE
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        with pytest.raises(FragmentLoadError, match=r"^logic/domain\.thy: notations for"):
            load_fragment(root)

    @staticmethod
    def long_theory(n: int, notations: bool) -> str:
        lines = ["theory Base =", "  o : type ;", "  i : type ;", "  a : i ;", "end",
                 "theory Long =", "  include Base ;"]
        for k in range(n):
            lines.append(f"  c{k} : i -> o" + (f" # w{k}' %1 prec 10 ;" if notations else " ;"))
        return "\n".join(lines + ["end"])

    def test_new_symbol_notations_never_rebuild_the_lexer(self, monkeypatch):
        # Each declaration brings a new symbol; ⊕1 is a prefix of ⊕10 and ⊕100.
        lines = ["theory Base =", "  o : type ;", "  i : type ;", "  a : i ;", "end",
                 "theory Long =", "  include Base ;"]
        lines += [f"  c{k} : i -> o # ⊕{k} %1 prec 10 ;" for k in range(300)]
        text = "\n".join(lines + ["end"])
        compiled = []
        compile_ = re.compile
        monkeypatch.setattr(re, "compile", lambda *args: compiled.append(args) or compile_(*args))
        g = TheoryGraph()
        assert parse_theory_file(g, text) == ["Base", "Long"]
        assert len(compiled) <= 2  # a pattern compiled per new symbol would make 300
        monkeypatch.undo()
        want = TheoryGraph()
        reference_parse_theory_file(want, text)
        assert g.theories == want.theories
        flat = g.flatten("Long")
        assert parse_term(flat, "⊕10 ⊕1 a") == app(Const("c10"), app(Const("c1"), Const("a")))
        assert parse_term(flat, "⊕100 a") == app(Const("c100"), Const("a"))

    @pytest.mark.parametrize("notations", [False, True])
    def test_reading_builds_one_table_and_scope_per_block(self, monkeypatch, notations):
        parse_theory_file(TheoryGraph(), "")  # the table between blocks is built once
        calls = {"tables": 0, "flattenings": 0}

        def counted(name, original):
            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(syntax.NotationTable, "__init__",
                            counted("tables", syntax.NotationTable.__init__))
        monkeypatch.setattr(TheoryGraph, "flatten", counted("flattenings", TheoryGraph.flatten))
        text = self.long_theory(300, notations)
        g = TheoryGraph()
        assert parse_theory_file(g, text) == ["Base", "Long"]
        blocks, includes = 2, 1
        assert calls["tables"] == blocks
        assert calls["flattenings"] <= blocks + includes
        monkeypatch.undo()
        want = TheoryGraph()
        reference_parse_theory_file(want, text)
        assert g.theories == want.theories
        flat = g.flatten("Long")
        assert len(flat.declarations) == 303
        if notations:
            assert parse_term(flat, "w299' a") == app(Const("c299"), Const("a"))


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

    def test_conflicting_inherited_assignment_rejected_at_load(self):
        # Base's merged assignments are built, and kept, when Base loads;
        # Full must still see that it maps Person differently.
        with pytest.raises(DuplicateName, match="assigns Person twice"):
            graph_with(self.GRAMMAR + """
            view Base : G -> Dom =
              Stmt = o ;
              Person = ι ;
            end
            view Full : G -> Dom =
              include Base ;
              Person = o ;
            end
            """)

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


def _theory_texts() -> list[tuple[tuple, str]]:
    """Each shipped theory or view file with the modules loaded before it, and
    every theory or view written out in the tests, with none."""
    cases = []
    for name in FRAGMENTS:
        d = fragment_dir(name)
        entries = parse_manifest((d / "fragment.manifest").read_text(encoding="utf-8"))
        graph = load_fragment(d).graph
        modules = [*graph.theories.values(), *graph.views.values()]
        names = [m.name for m in modules]
        for key in ("theories", "language_theories", "views"):
            for rel in filter(None, map(str.strip, entries.get(key, "").split(","))):
                text = (d / rel).read_text(encoding="utf-8")
                first = re.search(r"^(?:theory|view) (\w+)", text, re.M)[1]
                cases.append((tuple(modules[:names.index(first)]), text))
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in python_ast.walk(python_ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, python_ast.Constant)
                and isinstance(node.value, str)
                and re.search(r"\b(theory|view) \w+ .*=.*\bend\b", node.value, re.S)
            ):
                cases.append(((), node.value))
    return cases


THEORY_TEXTS = _theory_texts()
STRUCTURAL = tuple(";=#:()[]{},.%/'\n ") + ("//", "->", "end", "prec", "include")


@st.composite
def damaged_theories(draw):
    """A theory or view text after up to three deletions, truncations or insertions."""
    context, text = draw(st.sampled_from(THEORY_TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("delete", "truncate", "insert")))
        if edit == "delete":
            text = text[:at] + text[at + 1 :]
        elif edit == "truncate":
            text = text[:at]
        else:
            text = text[:at] + draw(st.sampled_from(STRUCTURAL)) + text[at:]
    return context, text


def _lexes_apart(word: str) -> bool:
    """Whether the term lexer would read a notation word as other than that one token."""
    return Notation.placeholder_index(word) is None and bool(
        word in RESERVED_TOKENS or word in KEYWORDS or re.search(r"[][(){}#]", word)
        or IDENT_RE.match(word) and not IDENT_RE.fullmatch(word)
    )


def _notations_clash(theories) -> bool:
    """Whether the notation table of some theory read raises `AmbiguousParse`."""
    graph = TheoryGraph()
    for _, theory in theories:
        graph.add(theory)
    for name, _ in theories:
        try:
            notation_table(graph.flatten(name))
        except AmbiguousParse:
            return True
        except GlfError:
            pass
    return False


def _modules_after(parse, context, text):
    graph = TheoryGraph()
    for module in context:
        graph.add(module)
    added = parse(graph, text)
    return added, list(graph.theories.items()), list(graph.views.items())


def _domain_case(*replacements):
    """The life fragment's `logic/domain.thy`, edited, with its context."""
    (context, text), = [c for c in THEORY_TEXTS if "theory LifeDT" in c[1]]
    for old, new in replacements:
        assert old in text, old
        text = text.replace(old, new, 1)
    return context, text


def load_domain(*replacements):
    return _modules_after(parse_theory_file, *_domain_case(*replacements))


class TestAgainstReferenceReader:
    """`parse_theory_file` against the character-scanning reader it replaced."""

    def check(self, context, text):
        try:
            want = _modules_after(reference_parse_theory_file, context, text)
        except Exception:
            with pytest.raises(GlfError):
                _modules_after(parse_theory_file, context, text)
            return
        if any(
            _lexes_apart(word)
            for _, theory in want[1] for d in theory.declarations if d.notation
            for word in d.notation.tokens
        ):  # a bracket hid the `;` ending a notation, which swallowed what followed
            with pytest.raises(GlfError):
                _modules_after(parse_theory_file, context, text)
            return
        try:
            got = _modules_after(parse_theory_file, context, text)
        except AmbiguousParse:
            # The reference checks a declaration's notation only when it reads
            # the next declaration, so it misses a clash in a theory's last one.
            assert _notations_clash(want[1])
        except TermSyntaxError as err:
            # The reference cut a notation at a second `#` and dropped the rest.
            word = text.split("\n")[err.line - 1][err.column - 1:].split()[0]
            assert _lexes_apart(word), err
        else:
            assert got == want

    def test_corpus_and_test_theories(self):
        assert len(THEORY_TEXTS) > 20
        for context, text in THEORY_TEXTS:
            self.check(context, text)

    @settings(max_examples=400, deadline=None)
    @given(damaged_theories())
    @example(_domain_case(("# joan' ;", "# jo(an' ;")))
    @example(_domain_case(("o # love'", "o % love'")))
    @example(_domain_case(("# run' ;", "# ru#n' ;")))
    @example(_domain_case(("# run' ;", "# run' 'prec 4 ;")))
    @example(_domain_case(("# mary' ;", "# mary' ( ;")))
    @example(_domain_case(("# love' ;", "# love' // ;")))
    @example(_domain_case(TestOneScopePerTheory.HATE))
    @example(_domain_case(("run_DT : ι -> o # run' ;", "q'end : ι -> o ;")))
    def test_damaged_theories(self, case):
        self.check(*case)
