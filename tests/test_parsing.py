"""Chart parsing and linearization, checked against exhaustive tree enumeration
and against the reference parser in `helpers`."""

import functools
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from glf.corpus import fragment_dir
from glf.errors import GrammarError, MissingLin
from glf.grammar import (
    CFG,
    NT,
    GrammarRegistry,
    Production,
    compile_cfg,
    linearize,
    parse_grammar_file,
    parse_tokens,
    recognize,
    tokenize,
)
from glf.kernel import App, Const
from glf.shell import load_fragment, parse_gold_file
from glf.grammar import earley
from helpers import (
    benchmark_workload,
    enumerate_asts,
    reference_parse_tokens,
    reference_parse_tokens_before,
    reference_recognize,
)


def ast(fun, *args):
    t = Const(fun)
    for a in args:
        t = App(t, a)
    return t


def load(text):
    registry = GrammarRegistry()
    parse_grammar_file(registry, text)
    return registry


def all_trees(grammar, cat, depth):
    """Every well-formed tree of `cat` with depth at most `depth`."""
    if depth == 0:
        return []
    out = []
    for f in grammar.funs:
        if f.result != cat:
            continue
        per_arg = [all_trees(grammar, a, depth - 1) for a in f.args]
        for combo in itertools.product(*per_arg):
            out.append(ast(f.name, *combo))
    return out


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

CONJ = """
abstract Conj = {
  flags startcat = S ;
  cat S ; NP ; VP ;
  fun act : NP -> VP -> S ;
      both : NP -> NP -> NP ;
      john : NP ; mary : NP ; joan : NP ;
      run : VP ;
}
concrete ConjEng of Conj = {
  lincat S = { s : Str } ; NP = { s : Str } ; VP = { s : Str } ;
  lin act np vp = { s = np.s ++ vp.s } ;
      both a b = { s = a.s ++ "and" ++ b.s } ;
      john = { s = "John" } ; mary = { s = "Mary" } ; joan = { s = "Joan" } ;
      run = { s = "run" } ;
}
"""

POLARITY = """
abstract Polar = {
  flags startcat = S ;
  cat S ; Pol ; Mark ;
  fun say : Pol -> S ;
      plain : Mark -> Pol ;
      strong : Pol ;
      silent : Mark ;
}
concrete PolarEng of Polar = {
  lincat S = { s : Str } ; Pol = { s : Str } ; Mark = { s : Str } ;
  lin say p = { s = "he" ++ p.s ++ "runs" } ;
      plain m = { s = m.s } ;
      strong = { s = "really" } ;
      silent = { s = "" } ;
}
"""


def pipeline(text, abstract_name, concrete_name):
    r = load(text)
    a = r.abstract(abstract_name)
    c = r.concrete(concrete_name)
    return a, c, compile_cfg(a, c)


S_ = NT("S", (), ())
A_SG, A_PL = NT("A", ("Sg",), ()), NT("A", ("Pl",), ())
B_ = NT("B", (), ())

#: Two variant productions of `wrap`, through A[Sg] and A[Pl], give the one
#: tree `wrap leaf` for "a"; `other b` lies between them in grammar order.
VARIANTS = CFG("S", (
    Production(S_, ((A_SG, 0),), "wrap", 1),
    Production(S_, ((B_, 0),), "other", 1),
    Production(S_, ((A_PL, 0),), "wrap", 1),
    Production(A_SG, ("a",), "leaf", 0),
    Production(A_PL, ("a",), "leaf", 0),
    Production(B_, ("a",), "b", 0),
))


class TestParsing:
    def test_unique_parse(self):
        a, c, cfg = pipeline(AGREE, "Agree", "AgreeEng")
        assert parse_tokens(cfg, tokenize("John runs")) == [ast("pred", ast("john"), ast("vrun"))]
        assert parse_tokens(cfg, tokenize("dogs run")) == [ast("pred", ast("dogs"), ast("vrun"))]

    def test_agreement_violations_rejected(self):
        _, _, cfg = pipeline(AGREE, "Agree", "AgreeEng")
        assert parse_tokens(cfg, tokenize("John run")) == []
        assert parse_tokens(cfg, tokenize("dogs runs")) == []

    def test_conjunction_is_two_ways_ambiguous(self):
        _, _, cfg = pipeline(CONJ, "Conj", "ConjEng")
        trees = parse_tokens(cfg, tokenize("John and Mary and Joan run"))
        right = ast("act", ast("both", ast("john"), ast("both", ast("mary"), ast("joan"))), ast("run"))
        left = ast("act", ast("both", ast("both", ast("john"), ast("mary")), ast("joan")), ast("run"))
        assert trees == [right, left]

    def test_parse_order_is_stable(self):
        _, _, cfg = pipeline(CONJ, "Conj", "ConjEng")
        tokens = tokenize("John and Mary and Joan run")
        assert parse_tokens(cfg, tokens) == parse_tokens(cfg, tokens)

    def test_empty_linearizations_parse(self):
        _, _, cfg = pipeline(POLARITY, "Polar", "PolarEng")
        quiet = parse_tokens(cfg, tokenize("he runs"))
        assert quiet == [ast("say", ast("plain", ast("silent")))]
        loud = parse_tokens(cfg, tokenize("he really runs"))
        assert loud == [ast("say", ast("strong"))]

    def test_no_parse_returns_empty(self):
        _, _, cfg = pipeline(AGREE, "Agree", "AgreeEng")
        assert parse_tokens(cfg, tokenize("runs John")) == []
        assert parse_tokens(cfg, tokenize("")) == []
        assert parse_tokens(cfg, tokenize("John runs John")) == []

    def test_first_token_matches_case_insensitively(self):
        _, _, cfg = pipeline(AGREE, "Agree", "AgreeEng")
        assert parse_tokens(cfg, tokenize("john runs")) == [ast("pred", ast("john"), ast("vrun"))]
        assert parse_tokens(cfg, tokenize("JOHN runs")) == [ast("pred", ast("john"), ast("vrun"))]

    def test_later_tokens_match_exactly(self):
        _, _, cfg = pipeline(AGREE, "Agree", "AgreeEng")
        assert parse_tokens(cfg, tokenize("John Runs")) == []

    def test_recognize_agrees_with_parse(self):
        _, _, cfg = pipeline(CONJ, "Conj", "ConjEng")
        inputs = [
            "John run", "John and Mary run", "John and run", "and John run",
            "John", "run", "John and Mary and Joan run", "Mary and Joan run x",
        ]
        for s in inputs:
            tokens = tokenize(s)
            assert recognize(cfg, tokens) == bool(parse_tokens(cfg, tokens)), s

    def test_multi_token_literal(self):
        text = """
        abstract R = { flags startcat = S ; cat S ; fun refl : S ; }
        concrete RG of R = {
          lincat S = { s : Str } ;
          lin refl = { s = "liebt sich" } ;
        }
        """
        _, _, cfg = pipeline(text, "R", "RG")
        assert parse_tokens(cfg, ["liebt", "sich"]) == [ast("refl")]
        assert parse_tokens(cfg, ["liebt"]) == []

    def test_variant_derivations_of_one_tree_give_it_once_where_it_first_appears(self):
        trees = parse_tokens(VARIANTS, ["a"])
        assert trees == [ast("wrap", ast("leaf")), ast("other", ast("b"))]
        assert parse_tokens(VARIANTS, ["a"]) == reference_parse_tokens(VARIANTS, ["a"])

    def test_equal_subtrees_are_one_object(self):
        _, _, cfg = pipeline(CONJ, "Conj", "ConjEng")
        right, left = parse_tokens(cfg, tokenize("John and Mary and Joan run"))
        assert right.arg is left.arg  # `run`
        assert right.fn.arg.arg.arg is left.fn.arg.arg  # `joan`


@functools.cache
def oracle_grammars():
    """(cfg, real sentences as token lists) for every corpus language and test grammar.

    The sentences are the linearizations of every tree of height at most 3,
    plus, for the corpus, the sentences of the gold files.
    """
    out = []
    for name in ("life", "quantified", "modal"):
        fragment = load_fragment(fragment_dir(name))
        cases = [case for path in sorted((fragment_dir(name) / "gold").glob("*.gold"))
                 for case in parse_gold_file(path.read_text(encoding="utf-8"))]
        trees = enumerate_asts(fragment.abstract, fragment.start_category, 3)
        for language, concrete in fragment.concretes.items():
            sentences = [linearize(fragment.abstract, concrete, t) for t in trees]
            sentences += [case.sentence for case in cases if case.language == language]
            out.append((fragment.cfgs[language], tuple(map(tokenize, sentences))))
    for text, abstract_name, concrete_name in (
        (AGREE, "Agree", "AgreeEng"), (CONJ, "Conj", "ConjEng"), (POLARITY, "Polar", "PolarEng"),
    ):
        a, c, cfg = pipeline(text, abstract_name, concrete_name)
        trees = all_trees(a, a.startcat, 3)
        out.append((cfg, tuple(tokenize(linearize(a, c, t)) for t in trees)))
    out.append((VARIANTS, (["a"],)))
    return out


def terminals(cfg):
    return sorted({it for p in cfg.productions for it in p.rhs if isinstance(it, str)})


@st.composite
def oracle_inputs(draw):
    """A grammar and tokens: random terminals, or an edited prefix of a real sentence."""
    cfg, sentences = oracle_grammars()[draw(st.integers(0, len(oracle_grammars()) - 1))]
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(terminals(cfg)), max_size=8))
    else:
        tokens = list(draw(st.sampled_from(sentences)))
        tokens = tokens[:draw(st.integers(0, len(tokens)))]
        for _ in range(draw(st.integers(0, 2))):
            if not tokens:
                break
            k = draw(st.integers(0, len(tokens) - 1))
            if draw(st.booleans()):
                del tokens[k]
            else:
                tokens.insert(k, tokens[k])
    if tokens and draw(st.booleans()):
        tokens[0] = tokens[0].capitalize()
    return cfg, tokens


_SYMBOLS = ("a", "b", "A", S_, NT("S", ("x",), ()), A_SG, B_)


@st.composite
def random_cfgs(draw, symbols=_SYMBOLS):
    """Small CFGs with cycles, empty right-hand sides, several start symbols,
    permuted arguments, and one function name on several productions."""
    productions = []
    for _ in range(draw(st.integers(1, 7))):
        lhs = draw(st.sampled_from([s for s in _SYMBOLS if isinstance(s, NT)]))
        rhs = draw(st.lists(st.sampled_from(symbols), max_size=3))
        order = iter(draw(st.permutations(range(sum(isinstance(it, NT) for it in rhs)))))
        rhs = tuple(it if isinstance(it, str) else (it, next(order)) for it in rhs)
        arity = sum(not isinstance(it, str) for it in rhs)
        productions.append(Production(lhs, rhs, draw(st.sampled_from("fgh")), arity))
    return CFG("S", tuple(productions))


E_, Z_, N_, D_, G_ = (NT(cat, (), ()) for cat in "EZNDG")

#: E and Z each derive one empty tree, and N one tree of both, its
#: arguments permuted: all three are compiled out of every right-hand side.
#: D derives two empty trees and G derives an empty tree and "a": both stay.
EMPTIES = (
    Production(E_, (), "e", 0),
    Production(Z_, (), "z", 0),
    Production(N_, ((E_, 1), (Z_, 0)), "n", 2),
    Production(D_, (), "d1", 0),
    Production(D_, (), "d2", 0),
    Production(G_, (), "g0", 0),
    Production(G_, ("a",), "ga", 0),
)


@st.composite
def cfgs_with_empty_categories(draw):
    """`random_cfgs` whose right-hand sides may hold E, N, D and G anywhere;
    now and then the start category's one production is `s : N -> S`, so
    that it derives one empty tree too."""
    cfg = draw(random_cfgs(_SYMBOLS + (E_, N_, D_, G_)))
    productions = cfg.productions + EMPTIES
    if draw(st.booleans()):
        productions = tuple(p for p in productions if p.lhs.cat != "S") + (
            Production(S_, ((N_, 0),), "s", 1),)
    return CFG("S", productions)


class TestAgainstReference:
    """The parser gives the reference parser's trees, in its order."""

    @settings(max_examples=300, deadline=None)
    @given(oracle_inputs())
    def test_corpus_and_test_grammars(self, case):
        cfg, tokens = case
        assert parse_tokens(cfg, tokens) == reference_parse_tokens(cfg, tokens)
        assert recognize(cfg, tokens) == reference_recognize(cfg, tokens)

    @settings(max_examples=300, deadline=None)
    @given(random_cfgs(), st.lists(st.sampled_from(("a", "b", "A")), max_size=6))
    def test_random_grammars(self, cfg, tokens):
        assert parse_tokens(cfg, tokens) == reference_parse_tokens(cfg, tokens)
        assert recognize(cfg, tokens) == reference_recognize(cfg, tokens)

    @settings(max_examples=300, deadline=None)
    @given(cfgs_with_empty_categories(), st.lists(st.sampled_from(("a", "b", "A")), max_size=6))
    @example(CFG("S", (Production(S_, ((N_, 0),), "s", 1),) + EMPTIES), [])
    def test_random_grammars_with_empty_categories(self, cfg, tokens):
        assert parse_tokens(cfg, tokens) == reference_parse_tokens(cfg, tokens)
        assert recognize(cfg, tokens) == reference_recognize(cfg, tokens)

    @settings(max_examples=200, deadline=None)
    @given(random_cfgs(), st.lists(st.sampled_from(("a", "b", "A")), max_size=6))
    def test_the_previous_parser_finds_no_tree_this_one_misses(self, cfg, tokens):
        assert set(reference_parse_tokens_before(cfg, tokens)) <= set(parse_tokens(cfg, tokens))


WRAP = """
abstract Wrap = {
  flags startcat = S ;
  cat S ; X ;
  fun wrap : X -> S ;
      conj : S -> S -> X ;
      atom : X ;
}
concrete WrapEng of Wrap = {
  lincat S = { s : Str } ; X = { s : Str } ;
  lin wrap x = { s = x.s } ;
      conj a b = { s = a.s ++ "and" ++ b.s } ;
      atom = { s = "p" } ;
}
"""

R_, X_ = NT("R", (), ()), NT("X", (), ())

#: S -> B ; B -> S "b" | "a": left recursion through a unit production.
LEFT = CFG("S", (
    Production(S_, ((B_, 0),), "s", 1),
    Production(B_, ((S_, 0), "b"), "b", 1),
    Production(B_, ("a",), "a", 0),
))

#: R -> X | S ; X -> S | "a" ; S -> X | "a": on "a", X and S over the one
#: span make the cycle X -> S -> X, which extraction meets first from X and
#: then from S.
UNIT_CYCLE = CFG("R", (
    Production(R_, ((X_, 0),), "r1", 1),
    Production(R_, ((S_, 0),), "r2", 1),
    Production(X_, ((S_, 0),), "g", 1),
    Production(X_, ("a",), "k", 0),
    Production(S_, ((X_, 0),), "f", 1),
    Production(S_, ("a",), "h", 0),
))


class TestCycles:
    """Extraction returns exactly the trees in which no (nonterminal, span)
    repeats on a root-to-leaf path, so a left recursion loses no tree."""

    def test_indirect_left_recursion(self):
        _, _, cfg = pipeline(WRAP, "Wrap", "WrapEng")
        atom = ast("wrap", ast("atom"))
        assert parse_tokens(cfg, tokenize("p and p")) == [
            ast("wrap", ast("conj", atom, atom))]
        inner = ast("wrap", ast("conj", atom, atom))
        assert parse_tokens(cfg, tokenize("p and p and p")) == [
            ast("wrap", ast("conj", atom, inner)),
            ast("wrap", ast("conj", inner, atom)),
        ]

    def test_left_recursion_through_a_unit_production(self):
        assert parse_tokens(LEFT, ["a", "b"]) == [ast("s", ast("b", ast("s", ast("a"))))]
        tree = ast("s", ast("a"))
        for _ in range(160):
            tree = ast("s", ast("b", tree))
        assert parse_tokens(LEFT, ["a"] + ["b"] * 160) == [tree]

    def test_a_cycle_met_from_two_sides_gives_each_tree_once_without_repeats(self):
        # Under r2, S -> X -> S repeats S, so f (g h) is not a tree of it.
        assert parse_tokens(UNIT_CYCLE, ["a"]) == [
            ast("r1", ast("g", ast("h"))), ast("r1", ast("k")),
            ast("r2", ast("f", ast("k"))), ast("r2", ast("h")),
        ]
        assert parse_tokens(UNIT_CYCLE, ["a"]) == reference_parse_tokens(UNIT_CYCLE, ["a"])

    def test_only_codes_that_derive_themselves_over_one_span_are_cyclic(self):
        # Codes number the left-hand sides first, in order of appearance.
        assert UNIT_CYCLE.cyclic == {1, 2}  # X and S; R is above the cycle
        assert LEFT.cyclic == frozenset()  # B -> S "b" spends a token
        empty = NT("E", (), ())
        nullable_step = CFG("S", (
            Production(S_, ((S_, 0), (empty, 1)), "f", 2),
            Production(S_, ("a",), "a", 0),
            Production(empty, (), "e", 0),
        ))
        assert nullable_step.cyclic == {0}  # S -> S E, with E empty

    @pytest.mark.parametrize("name", ["life", "quantified", "modal"])
    def test_no_shipped_grammar_is_cyclic(self, name):
        cfgs = load_fragment(fragment_dir(name)).cfgs
        assert cfgs and all(cfg.cyclic == frozenset() for cfg in cfgs.values())

    @settings(max_examples=200, deadline=None)
    @given(random_cfgs(), st.lists(st.sampled_from(("a", "b", "A")), max_size=6))
    @example(LEFT, ["a", "b"])
    def test_an_accepted_input_has_a_tree(self, cfg, tokens):
        assert recognize(cfg, tokens) == bool(parse_tokens(cfg, tokens))

    @settings(max_examples=200, deadline=None)
    @given(random_cfgs(), st.lists(st.sampled_from(("a", "b", "A")), max_size=6), st.randoms())
    def test_the_trees_do_not_depend_on_the_order_of_productions(self, cfg, tokens, rnd):
        shuffled = list(cfg.productions)
        rnd.shuffle(shuffled)
        assert set(parse_tokens(cfg, tokens)) == set(
            parse_tokens(CFG(cfg.start, tuple(shuffled)), tokens))


class TestEmptyCategories:
    """A category whose one derivation is one empty tree leaves every
    right-hand side, and its tree becomes a fixed argument of the parent."""

    def test_only_categories_with_one_empty_derivation_leave_the_rules(self):
        cfg = CFG("S", (
            Production(S_, ((E_, 0), "a", (D_, 1), (N_, 2), (G_, 3), (E_, 4)), "f", 5),
        ) + EMPTIES)
        # Codes number the left-hand sides in order of first appearance:
        # S, E, Z, N, D, G. E, Z and N leave every right-hand side.
        d, g = 4, 5
        assert cfg.rhs[:4] == [("a", d, g), (), (), ()]
        assert cfg.productions[0].rhs[0] == (E_, 0)  # the productions stay as they are
        n = ast("n", ast("z"), ast("e"))
        assert parse_tokens(cfg, ["a"]) == reference_parse_tokens(cfg, ["a"]) == [
            ast("f", ast("e"), ast("d1"), n, ast("g0"), ast("e")),
            ast("f", ast("e"), ast("d2"), n, ast("g0"), ast("e")),
        ]

    @pytest.mark.parametrize("name", ["life", "quantified", "modal"])
    def test_no_shipped_rule_holds_a_nullable_code(self, name):
        for cfg in load_fragment(fragment_dir(name)).cfgs.values():
            assert not any(it.__class__ is int and cfg.nullable[it] for r in cfg.rhs for it in r)
        if name == "modal":  # its polarities linearize as the empty string
            assert any(not p.rhs for p in cfg.productions)

    def test_a_modal_pass_completes_fewer_chart_items(self, monkeypatch):
        # With the polarities in the chart, this pass completes 4 219 items.
        done_sizes = []
        run = earley._run

        def counted(cfg, tokens, done=None):
            completed = run(cfg, tokens, done)
            if done is not None:
                done_sizes.append(len(done))
            return completed

        monkeypatch.setattr(earley, "_run", counted)
        cfg = load_fragment(fragment_dir("modal")).cfgs["Eng"]
        for (sentence,) in benchmark_workload("modal_depth", 7).sessions:
            assert len(parse_tokens(cfg, tokenize(sentence.text))) == 1
        assert sum(done_sizes) == 1954


class TestLinearize:
    def test_agreement_surfaces(self):
        a, c, _ = pipeline(AGREE, "Agree", "AgreeEng")
        assert linearize(a, c, ast("pred", ast("john"), ast("vrun"))) == "John runs"
        assert linearize(a, c, ast("pred", ast("dogs"), ast("vrun"))) == "dogs run"

    def test_only_plain_string_categories_render(self):
        a, c, _ = pipeline(AGREE, "Agree", "AgreeEng")
        with pytest.raises(GrammarError, match="parameters"):
            linearize(a, c, ast("john"))
        with pytest.raises(GrammarError, match="parameters"):
            linearize(a, c, ast("vrun"))

    def test_missing_lin_reported(self):
        r = load("""
        abstract T = { flags startcat = S ; cat S ; fun s0 : S ; }
        concrete TE of T = { lincat S = { s : Str } ; }
        """)
        with pytest.raises(MissingLin):
            linearize(r.abstract("T"), r.concrete("TE"), ast("s0"))

    def test_empty_pieces_drop_out(self):
        a, c, _ = pipeline(POLARITY, "Polar", "PolarEng")
        assert linearize(a, c, ast("say", ast("plain", ast("silent")))) == "he runs"
        assert linearize(a, c, ast("say", ast("strong"))) == "he really runs"


class TestRoundTrip:
    """parse(linearize(t)) must contain t for every enumerable tree."""

    @pytest.mark.parametrize(
        "text,abstract_name,concrete_name,depth",
        [
            (AGREE, "Agree", "AgreeEng", 3),
            (CONJ, "Conj", "ConjEng", 3),
            (POLARITY, "Polar", "PolarEng", 3),
        ],
    )
    def test_every_tree_round_trips(self, text, abstract_name, concrete_name, depth):
        a, c, cfg = pipeline(text, abstract_name, concrete_name)
        trees = all_trees(a, a.startcat, depth)
        assert trees, "enumeration oracle produced nothing"
        for t in trees:
            sentence = linearize(a, c, t)
            parsed = parse_tokens(cfg, tokenize(sentence))
            assert t in parsed, f"{sentence!r} lost {t!r}"

    def test_enumeration_oracle_counts(self):
        a, _, _ = pipeline(CONJ, "Conj", "ConjEng")
        # Depth 2: three bare-name subjects. Depth 3 adds 3*3 conjoined pairs.
        assert len(all_trees(a, "S", 2)) == 3
        assert len(all_trees(a, "S", 3)) == 12
