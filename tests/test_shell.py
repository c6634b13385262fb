"""Fragment loading, gold regression runs, the REPL, and the `glf` command."""

import functools
import io
import shutil
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from glf.bridge import TargetLogicGate
from glf.corpus import FRAGMENTS, corpus_root, fragment_dir
from glf.errors import FragmentLoadError, GlfError, GoldFormatError, TotalityFailure
from glf.shell import (
    GoldCase,
    execute,
    initial_state,
    load_fragment,
    logic_signature,
    new_session,
    parse_gold_file,
    parse_manifest,
    run_gold,
    run_repl,
)
from glf.shell.cli import main
from glf.tableau import extract_models, init_belief_state
from helpers import run_cli


@pytest.fixture(scope="module")
def life():
    return load_fragment(fragment_dir("life"))


def doctored(tmp_path, name, rel, old, new):
    """A copy of a shipped fragment with one textual edit applied."""
    root = tmp_path / name
    shutil.copytree(fragment_dir(name), root)
    path = root / rel
    text = path.read_text(encoding="utf-8")
    assert old in text, f"fixture drift: {old!r} not found in {rel}"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return root


def act_ill_typed_through_include(tmp_path):
    """A copy of `life` whose lexicon view, not its grammar view, assigns
    `Person`, and whose grammar view applies `act`'s arguments the wrong way
    round: only the lexicon view can see that `act` is ill-typed."""
    root = tmp_path / "life"
    shutil.copytree(fragment_dir("life"), root)
    path = root / "semantics" / "semantics.view"
    text = path.read_text(encoding="utf-8")
    for old, new in (
        ("  Person = ι ;\n", ""),
        ("  include LifeGrammarSemantics ;\n",
         "  include LifeGrammarSemantics ;\n  Person = ι ;\n"),
        ("[pers, action] action pers", "[pers, action] pers action"),
    ):
        assert old in text, f"fixture drift: {old!r} not found"
        text = text.replace(old, new, 1)
    path.write_text(text, encoding="utf-8")
    return root


#: `run_DT`'s type wrapped in more parentheses than the parser can recurse into.
DEEP_THEORY = ("logic/domain.thy", "run_DT : ι -> o",
               "run_DT : " + "(" * 600 + "ι -> o" + ")" * 600)


#: Saturating this sentence in `quantified` takes more than 5 steps.
OVER_BUDGET = "everyone and someone love someone"


def tight_budget(tmp_path):
    """A copy of `quantified` whose tableau may take only 5 steps per update."""
    return doctored(tmp_path, "quantified", "fragment.manifest",
                    "name = quantified", "name = quantified\nstep_budget = 5")


def collect(session, line):
    out = []
    alive = execute(session, line, out.append)
    return alive, "".join(out)


class TestManifest:
    def test_keys_and_values(self):
        entries = parse_manifest(
            "name = x\n# note\n\nconcrete.Eng = XEng\nconnective.neg = not'\n"
        )
        assert entries == {
            "name": "x", "concrete.Eng": "XEng", "connective.neg": "not'",
        }

    def test_unknown_key_reports_the_line(self):
        with pytest.raises(FragmentLoadError, match=r"manifest:3.*'colour'"):
            parse_manifest("name = x\n\ncolour = red\n", where="manifest")

    def test_duplicate_key_rejected(self):
        with pytest.raises(FragmentLoadError, match="duplicate"):
            parse_manifest("name = x\nname = y\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(FragmentLoadError, match="key = value"):
            parse_manifest("name\n")

    def test_prefix_keys_need_a_suffix(self):
        with pytest.raises(FragmentLoadError, match="unknown key"):
            parse_manifest("concrete. = XEng\n")


class TestLoadFragment:
    @pytest.mark.parametrize("name,languages,axioms", [
        ("life", ["Eng", "Ger"], 2),
        ("quantified", ["Eng"], 1),
        ("modal", ["Eng"], 1),
    ])
    def test_shipped_fragments_load(self, name, languages, axioms):
        fragment = load_fragment(fragment_dir(name))
        assert fragment.name == name
        assert fragment.languages() == languages
        assert fragment.start_category == fragment.abstract.startcat
        assert len(fragment.knowledge) == axioms

    def test_directory_without_manifest(self, tmp_path):
        with pytest.raises(FragmentLoadError, match="no fragment.manifest"):
            load_fragment(tmp_path)

    def test_manifest_must_name_the_essentials(self, tmp_path):
        (tmp_path / "fragment.manifest").write_text("name = x\n", encoding="utf-8")
        with pytest.raises(FragmentLoadError, match="'grammars'"):
            load_fragment(tmp_path)

    def test_partial_semantics_view_fails_totality(self, tmp_path):
        root = doctored(tmp_path, "life", "semantics/semantics.view",
                        "  run = run' ;\n", "")
        with pytest.raises(TotalityFailure) as exc:
            load_fragment(root)
        assert exc.value.view == "LifeLexSemantics"
        assert exc.value.missing == ("run",)

    def test_language_theory_drift_is_fatal(self, tmp_path):
        root = doctored(tmp_path, "life", "logic/language.thy",
                        "run : Action ;", "run : Person ;")
        with pytest.raises(FragmentLoadError, match="drifted.*run has a different type"):
            load_fragment(root)

    def test_language_theory_with_no_grammar_counterpart(self, tmp_path):
        root = tmp_path / "life"
        shutil.copytree(fragment_dir("life"), root)
        path = root / "logic" / "language.thy"
        path.write_text(
            path.read_text(encoding="utf-8")
            + "\ntheory Extra : LF =\n  z : type ;\nend\n",
            encoding="utf-8",
        )
        with pytest.raises(FragmentLoadError, match="Extra does not correspond"):
            load_fragment(root)

    def test_broken_knowledge_names_file_and_line(self, tmp_path):
        root = doctored(tmp_path, "life", "knowledge/facts.kb",
                        "run' joan'", "run'")
        with pytest.raises(FragmentLoadError, match=r"facts\.kb:2"):
            load_fragment(root)

    def test_too_deep_knowledge_names_file_and_line(self, tmp_path):
        deep = "(" * 600 + "run' joan'" + ")" * 600
        root = doctored(tmp_path, "life", "knowledge/facts.kb", "run' joan'", deep)
        with pytest.raises(FragmentLoadError, match=r"facts\.kb:2: .*nested too deeply"):
            load_fragment(root)

    def test_too_deep_theory_names_the_file(self, tmp_path):
        root = doctored(tmp_path, "life", *DEEP_THEORY)
        with pytest.raises(FragmentLoadError, match=r"^logic/domain\.thy: .*nested too deeply"):
            load_fragment(root)

    def test_inherited_view_assignment_is_type_checked(self, tmp_path):
        root = act_ill_typed_through_include(tmp_path)
        with pytest.raises(FragmentLoadError,
                           match="^semantics/semantics.view: pers of type ind is applied"):
            load_fragment(root)

    def test_start_category_must_match_the_grammar(self, tmp_path):
        root = doctored(tmp_path, "life", "fragment.manifest",
                        "start_category = Stmt", "start_category = Person")
        with pytest.raises(FragmentLoadError, match="does not match"):
            load_fragment(root)

    def test_unknown_connective_role(self, tmp_path):
        root = doctored(tmp_path, "life", "fragment.manifest",
                        "connective.and = and", "connective.nand = and")
        with pytest.raises(FragmentLoadError, match="unknown connective role"):
            load_fragment(root)

    def test_step_budget_must_be_an_integer(self, tmp_path):
        root = doctored(tmp_path, "life", "fragment.manifest",
                        "name = life", "name = life\nstep_budget = soon")
        with pytest.raises(FragmentLoadError, match="integer"):
            load_fragment(root)

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_step_budget_must_be_positive(self, tmp_path, budget):
        root = doctored(tmp_path, "life", "fragment.manifest",
                        "name = life", f"name = life\nstep_budget = {budget}")
        with pytest.raises(FragmentLoadError, match="step_budget must be a positive integer"):
            load_fragment(root)

    def test_logic_signature_reflects_manifest_choices(self, life):
        signature = logic_signature(life)
        assert signature.connectives == {"and": "and", "or": "or", "neg": "neg"}
        assert signature.proposition_type == "prop"
        assert signature.individual_type == "ind"

    def test_initial_state_asserts_the_knowledge(self, life):
        state = initial_state(life)
        (model,) = extract_models(state)
        rendered = {lit.render(state.signature.flat) for lit in model}
        assert rendered == {"run' joan'", "¬ love' mary' mary'"}

    def test_the_initial_state_is_built_once_per_fragment(self, life):
        assert initial_state(life) is initial_state(life)
        assert new_session(life).state is initial_state(life)
        again = load_fragment(fragment_dir("life"))
        assert initial_state(again) is not initial_state(life)
        assert initial_state(again) is initial_state(again)

    def test_sessions_leave_the_shared_initial_state_as_it_was(self, life):
        shared = initial_state(life)
        branches, history = shared.branches, shared.history
        literals = [dict(b.literals) for b in branches]
        first, second = new_session(life), new_session(life)
        for sentence in ("Mary runs", "Mary loves herself"):
            collect(first, f"analyze {sentence}")
            collect(second, f"analyze {sentence}")
            collect(second, "analyze Joan runs")
        assert first.state is not shared and second.state is not shared
        assert initial_state(life) is shared
        assert shared.branches is branches
        assert [dict(b.literals) for b in shared.branches] == literals
        assert shared.history is history


def _sources(name):
    root = fragment_dir(name)
    return sorted(
        str(p.relative_to(root)) for p in root.rglob("*")
        if p.is_file() and p.suffix != ".gold"
    )


def _edit(name, rel, old, new):
    """The edit that turns the first `old` in a shipped file into `new`."""
    text = (fragment_dir(name) / rel).read_text(encoding="utf-8")
    return name, rel, ((text.index(old), len(old), new),)


#: Two edits that crashed the loader with a Python exception.
NAMELESS_LIN = _edit("life", "grammar/life.gf", "lin act p a =", "lin =")
UNTYPED_DECLARATION = _edit("life", "logic/domain.thy", "joan_DT : ι #", "joan_DT #")
#: A bracket glued into a notation once hid the `;` after it, so the
#: notation swallowed the rest of the theory and a later file took the blame.
GLUED_NOTATION = _edit("life", "logic/domain.thy", "# joan' ;", "# jo(an' ;")
STRUCTURAL = tuple('{}()[];=:,|"#%!.+-*>?\n ') + ("", "//", "--", "->")


@st.composite
def fragment_edits(draw):
    """Up to three deletions, truncations or insertions in one fragment file."""
    name = draw(st.sampled_from(FRAGMENTS))
    rel = draw(st.sampled_from(_sources(name)))
    edits = draw(st.lists(
        st.tuples(
            st.integers(0, 5_000),
            st.one_of(st.integers(0, 3), st.just(10**6)),
            st.sampled_from(STRUCTURAL),
        ),
        min_size=1, max_size=3,
    ))
    return name, rel, tuple(edits)


@pytest.fixture(scope="module")
def fragment_copies(tmp_path_factory):
    root = tmp_path_factory.mktemp("fragments")
    for name in FRAGMENTS:
        shutil.copytree(fragment_dir(name), root / name)
    return root


def apply_edits(root, case):
    """Edit a copied fragment file in place; returns its original text."""
    name, rel, edits = case
    path = root / name / rel
    original = text = path.read_text(encoding="utf-8")
    for at, deleted, inserted in edits:
        at = min(at, len(text))
        text = text[:at] + inserted + text[at + deleted:]
    path.write_text(text, encoding="utf-8")
    return original


class TestMalformedFragments:
    @settings(max_examples=100, deadline=None)
    @given(case=fragment_edits())
    @example(case=NAMELESS_LIN)
    @example(case=UNTYPED_DECLARATION)
    @example(case=GLUED_NOTATION)
    def test_load_raises_only_glf_errors(self, fragment_copies, case):
        name, rel, _ = case
        original = apply_edits(fragment_copies, case)
        try:
            load_fragment(fragment_copies / name)
        except GlfError:
            pass
        finally:
            (fragment_copies / name / rel).write_text(original, encoding="utf-8")

    @pytest.mark.parametrize("case", [NAMELESS_LIN, UNTYPED_DECLARATION, GLUED_NOTATION])
    def test_glf_load_reports_one_error_line(self, tmp_path, case):
        name, rel, _ = case
        shutil.copytree(fragment_dir(name), tmp_path / name)
        apply_edits(tmp_path, case)
        run = run_cli("load", str(tmp_path / name))
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {rel}: "), lines[:3]


def ending_in_a_bad_byte(tmp_path, rel):
    """A copy of `life` whose file `rel` ends in a byte that is not UTF-8."""
    root = tmp_path / "life"
    shutil.copytree(fragment_dir("life"), root)
    with open(root / rel, "ab") as f:
        f.write(b"\xff")
    return root


def assert_one_error_line(run, named):
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1, lines[:3]
    assert lines[0].startswith("error: ") and named in lines[0], lines[0]


class TestUnreadableFiles:
    @pytest.mark.parametrize("rel", ["logic/domain.thy", "fragment.manifest"])
    def test_load_fragment_names_a_file_that_is_not_utf8(self, tmp_path, rel):
        with pytest.raises(FragmentLoadError, match=f"^{rel}: not UTF-8 text"):
            load_fragment(ending_in_a_bad_byte(tmp_path, rel))

    @pytest.mark.parametrize("command,rel", [
        ("load", "logic/domain.thy"),
        ("load", "fragment.manifest"),
        ("gold", "gold/life.gold"),
    ])
    def test_cli_names_a_file_that_is_not_utf8(self, tmp_path, command, rel):
        run = run_cli(command, str(ending_in_a_bad_byte(tmp_path, rel)))
        assert_one_error_line(run, f"{rel}: ")

    def test_gold_names_the_gold_file_with_a_bad_line(self, tmp_path):
        root = tmp_path / "life"
        shutil.copytree(fragment_dir("life"), root)
        gold = root / "gold" / "life.gold"
        lines = gold.read_text(encoding="utf-8").splitlines()
        gold.write_text("\n".join(lines + ["Eng\tStmt\tJoan runs"]) + "\n", encoding="utf-8")
        run = run_cli("gold", str(root))
        assert_one_error_line(run, str(gold))
        assert run.stderr == (
            f"error: {gold} line {len(lines) + 1}: expected 4 tab-separated fields, found 3\n"
        )

    def test_gold_without_fragments_prints_one_error_line(self, tmp_path):
        run = run_cli("gold", str(tmp_path))
        assert_one_error_line(run, f"no fragment.manifest under {tmp_path}")

    def test_gold_names_a_root_that_does_not_exist(self, tmp_path):
        root = str(tmp_path / "nonexistent")
        assert_one_error_line(run_cli("gold", root), root)

    def test_gold_names_a_root_that_is_a_file(self, tmp_path):
        root = tmp_path / "README.md"
        root.write_text("not a directory\n", encoding="utf-8")
        assert_one_error_line(run_cli("gold", str(root)), str(root))


class TestGoldFiles:
    def test_fields_and_multiple_readings(self):
        cases = parse_gold_file(
            "# header\n"
            "\n"
            "Eng\tS\tx runs\trun' x'\n"
            "Ger\tS\ty\ta' ; b'\n"
        )
        assert [c.line for c in cases] == [3, 4]
        assert cases[0] == GoldCase("Eng", "S", "x runs", ("run' x'",), 3)
        assert cases[1].expected == ("a'", "b'")

    def test_wrong_field_count(self):
        with pytest.raises(GoldFormatError) as exc:
            parse_gold_file("Eng\tS\tx runs\n")
        assert exc.value.line == 1

    def test_empty_field(self):
        with pytest.raises(GoldFormatError, match="empty field"):
            parse_gold_file("Eng\t\tx\ty'\n")

    def test_empty_reading(self):
        with pytest.raises(GoldFormatError, match="empty expected reading"):
            parse_gold_file("Eng\tS\tx\ta' ; ; b'\n")

    def test_shipped_gold_is_green(self, life):
        text = (fragment_dir("life") / "gold" / "life.gold").read_text(encoding="utf-8")
        report = run_gold(life, parse_gold_file(text))
        assert report.ok
        assert report.passed == len(report.results) == 8
        assert report.render().splitlines()[0] == "life: 8/8 passed"

    def test_wrong_expectation_shows_the_diff(self, life):
        case = GoldCase("Eng", "Stmt", "Joan runs", ("run' mary'",), 1)
        report = run_gold(life, (case,))
        assert not report.ok
        rendering = report.render()
        assert "FAIL  [Eng] Joan runs" in rendering
        assert "expected: run' mary'" in rendering
        assert "actual:   run' joan'" in rendering

    def test_unparseable_sentence_fails_without_crashing(self, life):
        case = GoldCase("Eng", "Stmt", "herself loves", ("run' joan'",), 1)
        report = run_gold(life, (case,))
        assert not report.ok
        assert report.results[0].actual == ()

    def test_off_category_case_is_an_error(self, life):
        case = GoldCase("Eng", "Person", "Joan", ("joan'",), 1)
        report = run_gold(life, (case,))
        assert not report.ok
        assert "start category" in report.results[0].error

    def test_unparseable_expectation_is_an_error(self, life):
        case = GoldCase("Eng", "Stmt", "Joan runs", ("run' (",), 1)
        report = run_gold(life, (case,))
        assert not report.ok
        assert report.results[0].error is not None

    def test_reading_order_never_matters(self, life):
        case = GoldCase(
            "Eng", "Stmt", "Joan runs",
            ("run' joan'", "run' joan'"), 1,
        )
        assert run_gold(life, (case,)).ok


class TestRepl:
    def test_parse_prints_the_tree(self, life):
        alive, out = collect(new_session(life), "parse Joan loves herself")
        assert alive
        assert out == "act joan loveOneself\n"

    def test_construct_prints_the_reading(self, life):
        _, out = collect(new_session(life), "construct Mary loves herself")
        assert out == "love' mary' mary'\n"

    def test_trace_shows_the_raw_view_image(self, life):
        session = new_session(life, trace=True)
        _, out = collect(session, "construct Mary runs")
        assert out.startswith("raw: ")
        assert out.endswith("run' mary'\n")

    def test_linearize_into_each_language(self, life):
        _, eng = collect(new_session(life), "linearize Eng act joan loveOneself")
        _, ger = collect(new_session(life), "linearize Ger act joan loveOneself")
        assert eng == "Joan loves herself\n"
        assert ger == "Johanna liebt sich\n"

    def test_analyze_updates_the_belief_state(self, life):
        session = new_session(life)
        _, out = collect(session, "analyze Mary runs")
        assert "model 1: {" in out
        assert "run' mary'" in out
        assert any("run' mary'" == lit.render(life.target_flat)
                   for model in extract_models(session.state) for lit in model)

    def test_analyze_can_reach_contradiction(self, life):
        session = new_session(life)
        _, out = collect(session, "analyze Mary loves herself")
        assert "contradiction: every branch closed" in out

    def test_exhausted_budget_keeps_the_partial_state_label(self, tmp_path):
        session = new_session(load_fragment(tight_budget(tmp_path)))
        _, out = collect(session, "analyze " + OVER_BUDGET)
        assert "(step budget exhausted; state is partial)" in out

    def test_too_deep_sentence_is_one_error_line(self):
        session = new_session(load_fragment(fragment_dir("modal")))
        alive, out = collect(session, "construct " + "Mary believes that " * 400 + "John runs")
        assert alive
        assert out.startswith("error: ") and out.count("\n") == 1
        assert "nested too deeply" in out

    def test_too_deep_parse_is_one_error_line_and_the_session_goes_on(self):
        session = new_session(load_fragment(fragment_dir("modal")))
        alive, out = collect(session, "parse " + "Mary believes that " * 400 + "John runs")
        assert alive
        assert out.startswith("error: ") and out.count("\n") == 1
        assert "nested too deeply" in out
        alive, out = collect(session, "parse Mary believes that John runs")
        assert alive and out.count("\n") == 1 and "believe mary" in out, out

    def test_too_deep_linearize_is_one_error_line_and_the_session_goes_on(self):
        session = new_session(load_fragment(fragment_dir("modal")))
        deep = "modifyS pos (believe mary) (" * 700 + "makeS pos john run" + ")" * 700
        alive, out = collect(session, "linearize Eng " + deep)
        assert alive
        assert out.startswith("error: ") and out.count("\n") == 1
        assert "nested too deeply" in out
        alive, out = collect(session, "linearize Eng makeS pos john run")
        assert alive and out == "John runs\n"

    def test_reset_restores_the_initial_state(self, life):
        session = new_session(life)
        collect(session, "analyze Mary loves herself")
        assert session.state.open_branches == ()
        _, out = collect(session, "reset")
        assert out == "belief state reset\n"
        assert len(session.state.open_branches) == 1
        fresh = init_belief_state(logic_signature(life), life.knowledge,
                                  step_budget=life.step_budget)
        assert session.state.branches == fresh.branches
        assert session.state.history == fresh.history
        assert extract_models(session.state) == extract_models(fresh)

    def test_analyze_with_no_reading_in_the_target_logic(self, life, monkeypatch):
        monkeypatch.setattr(TargetLogicGate, "__call__", lambda self, t: (False, ("forced",)))
        session = new_session(life)
        for line in ("analyze Joan runs", "analyze Eng Joan runs"):
            alive, out = collect(session, line)
            assert alive and out == "error: no usable reading: Joan runs\n"
        assert session.state is initial_state(life)

    def test_state_shows_recent_history(self, life):
        session = new_session(life)
        collect(session, "analyze Joan runs")
        _, out = collect(session, "state")
        assert "1 open branch\n" in out
        assert "  · " in out

    def test_language_tag_prefixes_are_recognized(self, life):
        _, out = collect(new_session(life), "parse Ger Maria liebt sich")
        assert out == "act mary loveOneself\n"

    def test_no_parse_is_reported_not_raised(self, life):
        alive, out = collect(new_session(life), "parse loves runs")
        assert alive and out == "no parse: loves runs\n"

    def test_a_command_without_its_sentence_is_one_error_line(self, life):
        session = new_session(life)
        for line in ("parse", "parse Ger", "construct", "analyze Eng"):
            alive, out = collect(session, line)
            assert alive and out == "error: expected a sentence\n", line

    def test_linearize_shows_a_term_that_is_not_a_tree_as_a_term(self, life):
        alive, out = collect(new_session(life), "linearize Eng [x] x")
        assert alive and out == "error: not an abstract syntax tree: [x] x\n"
        alive, out = collect(new_session(life), "linearize Eng ([x] x) joan")
        assert alive and out == "error: not an abstract syntax tree: ([x] x) joan\n"

    def test_linearize_without_a_language_and_a_tree_is_one_error_line(self, life):
        session = new_session(life)
        for line in ("linearize", "linearize Eng", "linearize Eng   "):
            alive, out = collect(session, line)
            assert alive and out == "error: expected a language and a tree\n", line

    def test_a_command_that_takes_no_argument_rejects_one(self, life):
        session = new_session(life)
        collect(session, "analyze Joan runs")
        state = session.state
        for command in ("state", "reset"):
            alive, out = collect(session, f"{command} extra")
            assert alive and out == f"error: {command} takes no argument\n"
        assert session.state is state

    def test_unknown_command(self, life):
        alive, out = collect(new_session(life), "blorp now")
        assert alive
        assert out == "error: unknown command 'blorp' (try help)\n"

    def test_errors_never_end_the_session(self, life):
        session = new_session(life)
        alive, out = collect(session, "linearize Eng act joan (")
        assert alive and out.startswith("error: ")
        alive, out = collect(session, "linearize Klingon act joan run")
        assert alive and out == "error: unknown language 'Klingon'\n"

    def test_help_and_blank_lines(self, life):
        session = new_session(life)
        alive, out = collect(session, "help")
        assert alive and "analyze" in out and "linearize" in out
        alive, out = collect(session, "   ")
        assert alive and out == ""

    def test_quit_ends_the_session(self, life):
        assert collect(new_session(life), "quit")[0] is False
        assert collect(new_session(life), "exit")[0] is False

    def test_run_repl_over_a_script(self, life):
        stdin = io.StringIO("parse Joan runs\nbad command\nquit\n")
        stdout = io.StringIO()
        assert run_repl(life, stdin=stdin, stdout=stdout) == 0
        lines = stdout.getvalue().splitlines()
        assert lines[0] == "loaded fragment life (Eng, Ger); try help"
        assert "act joan run" in lines
        assert any(line.startswith("error: unknown command") for line in lines)

    def test_run_repl_ends_cleanly_at_eof(self, life):
        assert run_repl(life, stdin=io.StringIO(""), stdout=io.StringIO()) == 0


#: Words no shipped grammar knows; none starts with `-`, which would be an option.
JUNK_WORDS = ("xyzzy", "(", "))", "42", "ü", "#", ";", "Mary's", "..", "%1")

#: A belief chain past the 328 levels that `construct` and `analyze` reach.
DEEP_BELIEF = ("John believes that " * 400 + "Mary runs").split()


@functools.cache
def terminals(name):
    """The words of a shipped fragment's grammars, in a fixed order."""
    fragment = load_fragment(fragment_dir(name))
    return sorted({sym for cfg in fragment.cfgs.values()
                   for p in cfg.productions for sym in p.rhs if isinstance(sym, str)})


def stack_depth():
    """The number of frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@st.composite
def cli_sentences(draw):
    """`parse`, `construct` or `analyze` on a shipped fragment: up to 8 of its
    words and junk, or, for `modal`, a belief chain 300–400 levels deep."""
    name = draw(st.sampled_from(FRAGMENTS))
    command = draw(st.sampled_from(("parse", "construct", "analyze")))
    if name == "modal" and draw(st.booleans()):
        depth = draw(st.integers(300, 400))
        words = ["John", "believes", "that"] * depth + ["Mary", "runs"]
    else:
        vocabulary = st.sampled_from(terminals(name) + list(JUNK_WORDS))
        words = draw(st.lists(vocabulary, min_size=1, max_size=8))
    return [command, str(fragment_dir(name)), *words]


class TestCli:
    def test_python_m_glf_is_the_cli(self):
        for args in (("load", str(fragment_dir("life"))), ("parse",)):
            run, want = run_cli(*args, module="glf"), run_cli(*args)
            assert (run.returncode, run.stdout, run.stderr) == (want.returncode, want.stdout, want.stderr)

    def test_load_summarizes(self, capsys):
        assert main(["load", str(fragment_dir("life"))]) == 0
        out = capsys.readouterr().out
        assert "fragment life" in out
        assert "languages:  Eng, Ger" in out

    def test_parse_prints_trees(self, capsys):
        assert main(["parse", str(fragment_dir("life")), "Joan", "loves", "herself"]) == 0
        assert capsys.readouterr().out == "act joan loveOneself\n"

    def test_parse_with_language_tag(self, capsys):
        code = main(["parse", "--lang", "Ger",
                     str(fragment_dir("life")), "Maria", "liebt", "sich"])
        assert code == 0
        assert capsys.readouterr().out == "act mary loveOneself\n"

    def test_parse_failure_exits_nonzero(self, capsys):
        assert main(["parse", str(fragment_dir("life")), "loves", "runs"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no parse" in captured.err

    def test_construct_with_trace(self, capsys):
        code = main(["construct", "--trace",
                     str(fragment_dir("life")), "Mary", "runs"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("raw: ")
        assert out[1] == "run' mary'"

    def test_analyze_prints_models(self, capsys):
        assert main(["analyze", str(fragment_dir("life")), "Joan", "runs"]) == 0
        assert "model 1: {" in capsys.readouterr().out

    def test_analyze_contradiction_still_reports(self, capsys):
        code = main(["analyze", str(fragment_dir("life")),
                     "Mary", "loves", "herself"])
        assert code == 0
        assert "contradiction" in capsys.readouterr().out

    def test_analyze_without_a_parse(self, capsys):
        assert main(["analyze", str(fragment_dir("quantified")), "xyzzy", "runs"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "no parse: xyzzy runs\n"

    def test_analyze_with_no_reading_in_the_target_logic(self, monkeypatch, capsys):
        monkeypatch.setattr(TargetLogicGate, "__call__", lambda self, t: (False, ("forced",)))
        assert main(["analyze", str(fragment_dir("life")), "Joan", "runs"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "no usable reading: Joan runs\n"

    def test_analyze_with_an_exhausted_budget_is_an_error(self, tmp_path, capsys):
        root = str(tight_budget(tmp_path))
        assert main(["analyze", root, *"someone runs".split()]) == 0
        assert "model 1: {" in capsys.readouterr().out
        assert main(["analyze", root, *OVER_BUDGET.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "step budget of 5" in captured.err

    def test_gold_defaults_to_the_shipped_corpus(self, capsys):
        assert main(["gold"]) == 0
        out = capsys.readouterr().out
        assert "total: 23 case(s) in 3 fragment(s)" in out
        assert "FAIL" not in out

    def test_gold_on_a_corrupted_copy_fails(self, tmp_path, capsys):
        root = doctored(
            tmp_path, "life", "gold/life.gold",
            "Joan loves herself\tlove' joan' joan'",
            "Joan loves herself\tlove' mary' joan'",
        )
        assert main(["gold", str(root)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gold_without_fragments(self, tmp_path, capsys):
        assert main(["gold", str(tmp_path)]) == 1
        assert "no fragment.manifest" in capsys.readouterr().err

    def test_load_error_is_reported_on_stderr(self, tmp_path, capsys):
        assert main(["load", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_load_names_a_theory_file_nested_too_deeply(self, tmp_path):
        run = run_cli("load", str(doctored(tmp_path, "life", *DEEP_THEORY)))
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1, lines[:3]
        assert lines[0].startswith("error: logic/domain.thy: ")
        assert "nested too deeply" in lines[0]

    def test_load_rejects_a_view_ill_typed_through_its_include(self, tmp_path):
        root = str(act_ill_typed_through_include(tmp_path))
        for command in (["load", root], ["construct", root, "Mary", "runs"]):
            run = run_cli(*command)
            assert run.returncode == 1
            assert run.stdout == ""
            assert run.stderr == (
                "error: semantics/semantics.view: pers of type ind is applied to action\n"
            )

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_sentences())
    @example(argv=["analyze", str(fragment_dir("modal")), *DEEP_BELIEF])
    def test_sentence_commands_exit_0_or_1_without_a_traceback(self, argv, capsys):
        capsys.readouterr()
        # Hypothesis raises the recursion limit while a test runs. `main` gets
        # the frames it has under `glf`: Python's default limit of 1000.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 1000)
        try:
            code = main(argv)
        finally:
            sys.setrecursionlimit(limit)
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "Traceback" not in captured.out + captured.err
        if code == 0:
            assert captured.err == ""
        else:
            assert len(captured.err.splitlines()) == 1, captured.err[:300]

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_repl_subcommand(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("parse Joan runs\nquit\n"))
        assert main(["repl", str(fragment_dir("life"))]) == 0
        out = capsys.readouterr().out
        assert "loaded fragment life" in out
        assert "act joan run" in out
