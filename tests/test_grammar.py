"""Grammar engine: abstract/concrete structures, file format, CFG compilation."""

import ast as python_ast
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from glf.corpus import corpus_root
from glf.errors import (
    GlfError,
    GrammarError,
    LinTypeMismatch,
    MissingLin,
    TermSyntaxError,
    UnknownCategory,
)
from glf.grammar import (
    NT,
    AbstractGrammar,
    ConcreteGrammar,
    FunDecl,
    GrammarRegistry,
    LinRule,
    LinType,
    ParamType,
    ast_category,
    ast_depth,
    compile_cfg,
    parse_grammar_file,
)
from glf.grammar.concrete import (
    ArgField,
    Concat,
    Ctor,
    Literal,
    Record,
    Select,
    Table,
    eval_lin,
)
from glf.grammar.files import _parse_lin_expr
from glf.kernel import App, Const, Lam, Var
from helpers import reference_parse_grammar_file


def ast(fun, *args):
    t = Const(fun)
    for a in args:
        t = App(t, a)
    return t


TINY = AbstractGrammar(
    "Tiny",
    "S",
    ("S", "NP", "VP"),
    (
        FunDecl("act", ("NP", "VP"), "S"),
        FunDecl("john", (), "NP"),
        FunDecl("mary", (), "NP"),
        FunDecl("run", (), "VP"),
        FunDecl("love", ("NP",), "VP"),
    ),
)


class TestAbstract:
    def test_ast_category_checks_the_tree(self):
        t = ast("act", ast("john"), ast("love", ast("mary")))
        assert ast_category(TINY, t) == "S"
        assert ast_category(TINY, ast("love", ast("mary"))) == "VP"

    def test_ill_formed_trees_rejected(self):
        with pytest.raises(GrammarError):
            ast_category(TINY, ast("act", ast("john")))  # missing argument
        with pytest.raises(GrammarError):
            ast_category(TINY, ast("act", ast("run"), ast("run")))  # VP where NP due
        with pytest.raises(GrammarError):
            ast_category(TINY, ast("sing"))

    def test_depth(self):
        assert ast_depth(ast("john")) == 1
        assert ast_depth(ast("act", ast("john"), ast("love", ast("mary")))) == 3

    def test_a_term_that_is_not_a_tree_is_shown_as_a_term(self):
        for t, shown in ((Lam("x", None, Var("x")), "[x] x"),
                         (App(Var("f"), ast("john")), "f john")):
            for check in (lambda: ast_category(TINY, t), lambda: ast_depth(t)):
                with pytest.raises(GrammarError) as err:
                    check()
                assert str(err.value) == f"not an abstract syntax tree: {shown}"

    def test_duplicate_category_rejected(self):
        with pytest.raises(GrammarError):
            AbstractGrammar("Bad", "S", ("S", "S"), ())

    def test_fun_with_unknown_category_rejected(self):
        with pytest.raises(UnknownCategory):
            AbstractGrammar("Bad", "S", ("S",), (FunDecl("f", ("NP",), "S"),))

    def test_startcat_must_be_declared(self):
        with pytest.raises(UnknownCategory):
            AbstractGrammar("Bad", "X", ("S",), ())

    def test_plain_grammar_owns_all_declarations(self):
        assert TINY.own_cats == TINY.cats
        assert TINY.own_funs == TINY.funs
        assert TINY.extends is None


class TestEvalLin:
    GRAMMAR = ConcreteGrammar(
        "E", "Tiny",
        (ParamType("Num", ("Sg", "Pl")),),
        (("S", LinType((), ())),),
        (),
    )

    def test_literal_splits_into_tokens(self):
        assert eval_lin(self.GRAMMAR, Literal("is not"), {}, "t") == ("str", ("is", "not"))
        assert eval_lin(self.GRAMMAR, Literal(""), {}, "t") == ("str", ())

    def test_concat_and_projection(self):
        env = {"np": ("record", {"s": ("str", ("John",))})}
        e = Concat(ArgField("np", "s"), Literal("runs"))
        assert eval_lin(self.GRAMMAR, e, env, "t") == ("str", ("John", "runs"))

    def test_table_must_cover_constructors_exactly(self):
        good = Table((("Sg", Literal("a")), ("Pl", Literal("b"))))
        v = eval_lin(self.GRAMMAR, good, {}, "t")
        assert v[0] == "table" and set(v[1]) == {"Sg", "Pl"}
        with pytest.raises(LinTypeMismatch):
            eval_lin(self.GRAMMAR, Table((("Sg", Literal("a")),)), {}, "t")
        with pytest.raises(LinTypeMismatch):
            dup = Table((("Sg", Literal("a")), ("Sg", Literal("b"))))
            eval_lin(self.GRAMMAR, dup, {}, "t")

    def test_select_picks_a_row(self):
        e = Select(Table((("Sg", Literal("runs")), ("Pl", Literal("run")))), Ctor("Pl"))
        assert eval_lin(self.GRAMMAR, e, {}, "t") == ("str", ("run",))

    def test_select_needs_table_and_param(self):
        with pytest.raises(LinTypeMismatch):
            eval_lin(self.GRAMMAR, Select(Literal("x"), Ctor("Sg")), {}, "t")

    def test_unknown_constructor_rejected(self):
        with pytest.raises(GrammarError):
            eval_lin(self.GRAMMAR, Ctor("Du"), {}, "t")

    def test_missing_field(self):
        env = {"np": ("record", {"s": ("str", ())})}
        with pytest.raises(LinTypeMismatch):
            eval_lin(self.GRAMMAR, ArgField("np", "g"), env, "t")

    def test_unknown_argument(self):
        with pytest.raises(LinTypeMismatch):
            eval_lin(self.GRAMMAR, ArgField("vp", "s"), {}, "t")

    def test_constructors_unique_across_param_types(self):
        with pytest.raises(GrammarError):
            ConcreteGrammar(
                "Bad", "Tiny",
                (ParamType("A", ("X",)), ParamType("B", ("X",))),
                (), (),
            )


AGREE = """
abstract Agree = {
  flags startcat = S ;
  cat S ; NP ; V ;
  fun pred : NP -> V -> S ;
      john : NP ;
      dogs : NP ;
      vrun : V ;
}

concrete AgreeEng of Agree = {
  param Num = Sg | Pl ;
  lincat S = { s : Str } ;
         NP = { s : Str ; n : Num } ;
         V = { s : Num => Str } ;
  lin pred np v = { s = np.s ++ v.s ! np.n } ;
      john = { s = "John" ; n = Sg } ;
      dogs = { s = "dogs" ; n = Pl } ;
      vrun = { s = table { Sg => "runs" ; Pl => "run" } } ;
}
"""


def load(text):
    registry = GrammarRegistry()
    parse_grammar_file(registry, text)
    return registry


class TestCompile:
    def test_parameter_valuations_become_nonterminals(self):
        r = load(AGREE)
        cfg = compile_cfg(r.abstract("Agree"), r.concrete("AgreeEng"))
        lhss = {p.lhs for p in cfg.productions}
        assert NT("NP", ("Sg",), ()) in lhss
        assert NT("NP", ("Pl",), ()) in lhss
        assert NT("V", (), ("Sg",)) in lhss
        assert NT("V", (), ("Pl",)) in lhss

    def test_selection_resolves_per_valuation(self):
        r = load(AGREE)
        cfg = compile_cfg(r.abstract("Agree"), r.concrete("AgreeEng"))
        preds = [p for p in cfg.productions if p.fun == "pred"]
        assert len(preds) == 2  # one per NP number
        by_num = {p.rhs[0][0].inherent: p for p in preds}
        assert by_num[("Sg",)].rhs[1][0] == NT("V", (), ("Sg",))
        assert by_num[("Pl",)].rhs[1][0] == NT("V", (), ("Pl",))

    def test_lexical_table_rows_become_cell_productions(self):
        r = load(AGREE)
        cfg = compile_cfg(r.abstract("Agree"), r.concrete("AgreeEng"))
        cells = {p.lhs.cell: p.rhs for p in cfg.productions if p.fun == "vrun"}
        assert cells == {("Sg",): ("runs",), ("Pl",): ("run",)}

    def test_production_inventory_for_plain_grammar(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; NP ; fun go : NP -> S ; j : NP ; }
        concrete TE of T = {
          lincat S = { s : Str } ; NP = { s : Str } ;
          lin go np = { s = np.s ++ "goes" } ; j = { s = "J" } ;
        }
        """
        r = load(text)
        cfg = compile_cfg(r.abstract("T"), r.concrete("TE"))
        assert [(p.fun, p.lhs, p.rhs) for p in cfg.productions] == [
            ("go", NT("S", (), ()), ((NT("NP", (), ()), 0), "goes")),
            ("j", NT("NP", (), ()), ("J",)),
        ]

    def test_dropping_an_argument_is_rejected(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; NP ; fun go : NP -> S ; j : NP ; }
        concrete TE of T = {
          lincat S = { s : Str } ; NP = { s : Str } ;
          lin go np = { s = "goes" } ; j = { s = "J" } ;
        }
        """
        r = load(text)
        with pytest.raises(GrammarError, match="exactly"):
            compile_cfg(r.abstract("T"), r.concrete("TE"))

    def test_using_an_argument_twice_is_rejected(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; NP ; fun go : NP -> S ; j : NP ; }
        concrete TE of T = {
          lincat S = { s : Str } ; NP = { s : Str } ;
          lin go np = { s = np.s ++ np.s } ; j = { s = "J" } ;
        }
        """
        r = load(text)
        with pytest.raises(GrammarError, match="exactly"):
            compile_cfg(r.abstract("T"), r.concrete("TE"))

    def test_missing_lin_rule(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { lincat S = { s : Str } ; }
        """
        r = load(text)
        with pytest.raises(MissingLin):
            compile_cfg(r.abstract("T"), r.concrete("TE"))

    def test_start_category_must_be_a_plain_string(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = {
          param N = A | B ;
          lincat S = { s : N => Str } ;
          lin s0 = { s = table { A => "a" ; B => "b" } } ;
        }
        """
        r = load(text)
        with pytest.raises(GrammarError, match="plain string"):
            compile_cfg(r.abstract("T"), r.concrete("TE"))

    def test_concrete_must_match_abstract(self):
        r = load(AGREE)
        with pytest.raises(GrammarError):
            compile_cfg(TINY, r.concrete("AgreeEng"))

    def test_empty_string_yields_empty_production(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; Pol ; fun s0 : Pol -> S ; pos : Pol ; }
        concrete TE of T = {
          lincat S = { s : Str } ; Pol = { s : Str } ;
          lin s0 p = { s = p.s ++ "go" } ; pos = { s = "" } ;
        }
        """
        r = load(text)
        cfg = compile_cfg(r.abstract("T"), r.concrete("TE"))
        pos = [p for p in cfg.productions if p.fun == "pos"]
        assert pos[0].rhs == ()


class TestGrammarFiles:
    def test_extension_keeps_base_and_own_declarations(self):
        text = """
        abstract Core = { flags startcat = S ; cat S ; NP ; fun act : NP -> S ; }
        abstract Lex = Core ** { fun john, mary : NP ; }
        """
        r = load(text)
        lex = r.abstract("Lex")
        assert lex.extends == "Core"
        assert lex.startcat == "S"
        assert [f.name for f in lex.funs] == ["act", "john", "mary"]
        assert [f.name for f in lex.own_funs] == ["john", "mary"]
        assert lex.own_cats == ()

    @pytest.mark.parametrize("text, want", [
        ('{ s = "x" ; t = A }', Record((("s", Literal("x")), ("t", Ctor("A"))))),
        ('table { A => "a" ; B => "b" }', Table((("A", Literal("a")), ("B", Literal("b"))))),
    ])
    def test_records_and_tables_take_a_trailing_semicolon(self, text, want):
        assert _parse_lin_expr(text.split(), "lin") == want
        assert _parse_lin_expr(text.replace(" }", " ; }").split(), "lin") == want
        for unclosed in (text[:-2], text[:-2] + " ;"):
            with pytest.raises(TermSyntaxError, match="unexpected end of expression"):
                _parse_lin_expr(unclosed.split(), "lin")

    def test_comments_stripped_but_not_inside_literals(self):
        text = """
        -- top comment
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; } -- trailing
        concrete TE of T = {
          lincat S = { s : Str } ;
          lin s0 = { s = "a--b" } ;   -- the literal keeps its dashes
        }
        """
        r = load(text)
        rule = r.concrete("TE").lin("s0")
        assert rule.expr == Record((("s", Literal("a--b")),))

    def test_unknown_base_grammar(self):
        with pytest.raises(GrammarError):
            load("abstract Lex = Missing ** { cat X ; }")

    def test_unknown_abstract_for_concrete(self):
        with pytest.raises(GrammarError):
            load("concrete XE of X = { lincat S = { s : Str } ; }")

    def test_lincat_for_unknown_category(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { lincat Z = { s : Str } ; }
        """
        with pytest.raises(GrammarError, match="unknown category"):
            load(text)

    def test_lin_for_unknown_function(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { lincat S = { s : Str } ; lin zap = { s = "x" } ; }
        """
        with pytest.raises(GrammarError):
            load(text)

    def test_lin_arity_must_match_fun(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; NP ; fun go : NP -> S ; j : NP ; }
        concrete TE of T = {
          lincat S = { s : Str } ; NP = { s : Str } ;
          lin go = { s = "goes" } ; j = { s = "J" } ;
        }
        """
        with pytest.raises(GrammarError, match="binds 0"):
            load(text)

    def test_startcat_flag_required_without_base(self):
        with pytest.raises(TermSyntaxError, match="startcat"):
            load("abstract T = { cat S ; fun s0 : S ; }")

    def test_concrete_blocks_take_no_flags(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { flags startcat = S ; lincat S = { s : Str } ; }
        """
        with pytest.raises(TermSyntaxError):
            load(text)

    def test_junk_between_blocks_rejected(self):
        with pytest.raises(TermSyntaxError, match="outside"):
            load("hello\nabstract T = { flags startcat = S ; cat S ; fun s0 : S ; }")

    def test_unbalanced_braces(self):
        with pytest.raises(TermSyntaxError):
            load("abstract T = { flags startcat = S ; cat S ;")

    def test_duplicate_grammar_name(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        """
        with pytest.raises(GrammarError, match="already taken"):
            load(text)

    def test_lincat_needs_s_field(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; NP ; fun s0 : S ; }
        concrete TE of T = {
          param N = A | B ;
          lincat S = { s : Str } ; NP = { n : N } ;
        }
        """
        with pytest.raises(TermSyntaxError, match="s field"):
            load(text)

    def test_inherent_field_cannot_be_a_string(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { lincat S = { s : Str ; t : Str } ; }
        """
        with pytest.raises(TermSyntaxError, match="parameter value"):
            load(text)

    def test_lincat_using_undeclared_param(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = {
          lincat S = { s : Num => Str } ;
          lin s0 = { s = "x" } ;
        }
        """
        with pytest.raises(GrammarError, match="unknown parameter"):
            load(text)

    def test_repeated_lin_argument_name(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; NP ; fun f : NP -> NP -> S ; j : NP ; }
        concrete TE of T = {
          lincat S = { s : Str } ; NP = { s : Str } ;
          lin f x x = { s = x.s ++ x.s } ; j = { s = "J" } ;
        }
        """
        with pytest.raises(TermSyntaxError, match="repeats"):
            load(text)

    def test_nested_tables_parse(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; V ; fun s0 : V -> S ; v : V ; }
        concrete TE of T = {
          param P = A | B ; param Q = C | D ;
          lincat S = { s : Str } ; V = { s : P => Q => Str } ;
          lin s0 v = { s = v.s ! A ! C } ;
              v = { s = table { A => table { C => "ac" ; D => "ad" } ;
                                B => table { C => "bc" ; D => "bd" } } } ;
        }
        """
        r = load(text)
        rule = r.concrete("TE").lin("v")
        assert isinstance(rule.expr, Record)
        outer = dict(rule.expr.fields)["s"]
        assert isinstance(outer, Table)
        assert isinstance(dict(outer.rows)["A"], Table)

    def test_selection_binds_tighter_than_concatenation(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; V ; fun s0 : V -> S ; v : V ; }
        concrete TE of T = {
          param P = A | B ;
          lincat S = { s : Str } ; V = { s : P => Str } ;
          lin s0 v = { s = "x" ++ v.s ! A } ;
              v = { s = table { A => "a" ; B => "b" } } ;
        }
        """
        r = load(text)
        rule = r.concrete("TE").lin("s0")
        e = dict(rule.expr.fields)["s"]
        assert isinstance(e, Concat)
        assert isinstance(e.right, Select)

    def test_lin_rule_needs_a_function_name(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { lincat S = { s : Str } ; lin = { s = "x" } ; }
        """
        with pytest.raises(TermSyntaxError, match="not a valid name"):
            load(text)

    def test_unterminated_string_names_its_line(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { lincat S = { s : Str } ; lin s0 = { s = "x } ; }
        """
        with pytest.raises(TermSyntaxError, match="unterminated string.*line 3"):
            load(text)

    def test_strings_end_on_their_line(self):
        text = """
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { lincat S = { s : Str } ; lin s0 = { s = "x
        y" } ; }
        """
        with pytest.raises(TermSyntaxError, match="must end on its line"):
            load(text)

    def test_registry_lists_concretes_of_an_abstract(self):
        r = load(AGREE)
        assert [c.name for c in r.concretes_of("Agree")] == ["AgreeEng"]


def _grammar_texts() -> list[str]:
    """The shipped grammars, and every grammar written out in the tests."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(corpus_root().glob("*/grammar/*.gf"))]
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in python_ast.walk(python_ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, python_ast.Constant)
                and isinstance(node.value, str)
                and re.search(r"\b(abstract|concrete) \w+ .*\{", node.value, re.S)
            ):
                texts.append(node.value)
    return texts


GRAMMAR_TEXTS = _grammar_texts()
STRUCTURAL = tuple('{}();=:,|"!.+-*>\n ')


@st.composite
def damaged_grammars(draw):
    """A grammar after up to three deletions, truncations or insertions."""
    text = draw(st.sampled_from(GRAMMAR_TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("delete", "truncate", "insert")))
        if edit == "delete":
            text = text[:at] + text[at + 1 :]
        elif edit == "truncate":
            text = text[:at]
        else:
            text = text[:at] + draw(st.sampled_from(STRUCTURAL)) + text[at:]
    return text


def edited(text, *replacements):
    for old, new in replacements:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


def _registry_after(parse, text):
    registry = GrammarRegistry()
    parse(registry, text)
    return list(registry.abstracts.items()), list(registry.concretes.items())


class TestAgainstReferenceParser:
    """`parse_grammar_file` against the character-scanning parser it replaced."""

    def check(self, text):
        try:
            want = _registry_after(reference_parse_grammar_file, text)
        except IndexError:  # the reference's defect: a lin rule without a name
            with pytest.raises(TermSyntaxError):
                _registry_after(parse_grammar_file, text)
        except GlfError as err:
            with pytest.raises(GlfError) as got:
                _registry_after(parse_grammar_file, text)
            assert type(got.value) is type(err), (err, got.value)
        else:
            assert _registry_after(parse_grammar_file, text) == want

    def test_corpus_and_test_grammars(self):
        assert len(GRAMMAR_TEXTS) > 20
        for text in GRAMMAR_TEXTS:
            self.check(text)

    @settings(max_examples=400, deadline=None)
    @given(damaged_grammars())
    @example(edited(AGREE, ("lin pred np v =", "lin =")))
    @example(edited(AGREE, ('"dogs"', '"dogs')))
    # An unknown function or category comes before a bracket or string error.
    @example(edited(AGREE, ("lin pred", "lin prd"), ('"dogs"', '"do\ngs"')))
    @example(edited(AGREE, ("V = {", "W = {"), ('"run" } }', '"run" } } (')))
    @example(edited(AGREE, ("V = {", "W = {"), ('"run" } }', '"run" } } )')))
    # `prd:np` is one bad word; in `prd np :v` the unknown `prd` comes first.
    @example(edited(AGREE, ("lin pred np v", "lin prd:np v")))
    @example(edited(AGREE, ("lin pred np v", "lin prd np :v")))
    def test_damaged_grammars(self, text):
        self.check(text)
