"""End-to-end acceptance checks, one test per guaranteed behavior.

Each test here pins down one externally visible promise of the package:
the shipped fragments compute the documented meanings fast enough, the
loader's static checks catch sabotage precisely, the tableau agrees with
truth tables, grammars round-trip, and the command line behaves. Run with
`pytest -v` to get one pass/fail line per promise.
"""

import random
import re
import shutil
import time
from pathlib import Path

import pytest

from glf.bridge import check_in_target_logic, construct_semantics, parse_sentence, translate
from glf.corpus import fragment_dir
from glf.errors import FragmentLoadError, TotalityFailure
from glf.grammar import linearize, parse_tokens, tokenize
from glf.kernel import alpha_eq
from glf.modsys import parse_term, print_term
from glf.shell import load_fragment, parse_gold_file
from glf.tableau import extract_models, init_belief_state, update_belief_state
from glf.shell.loader import initial_state
from helpers import (
    CLI_MODULE,
    enumerate_asts,
    prop_signature,
    random_formula,
    run_cli,
    satisfiable,
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


def copy_fragment(tmp_path, name):
    root = tmp_path / name
    shutil.copytree(fragment_dir(name), root)
    return root


def the_reading(fragment, sentence):
    """Construct semantics and require the result to be a single reading."""
    readings = construct_semantics(fragment, sentence)
    assert len(readings) == 1, f"{sentence!r} has {len(readings)} readings"
    return readings[0].term


def test_a01_key_sentences_reach_their_meanings(life, quantified, modal):
    wanted = [
        (life, "Joan loves herself", "love' joan' joan'"),
        (quantified, "John and Mary love everyone",
         "∀ [x : ι] (love' john' x) ∧ (love' mary' x)"),
        (modal, "John doesn't run", "¬ (run' john')"),
        (modal, "John doesn't believe that Mary has to run",
         "¬ (⟦ e john' ⟧ (⟦ d ⟧ (run' mary')))"),
    ]
    for fragment, sentence, expected in wanted:
        started = time.perf_counter()
        term = the_reading(fragment, sentence)
        elapsed = time.perf_counter() - started
        want = parse_term(fragment.target_flat, expected)
        assert alpha_eq(term, want), (
            f"{sentence!r} gave {print_term(fragment.target_flat, term)}, "
            f"wanted {expected}"
        )
        assert elapsed < 1.0, f"{sentence!r} took {elapsed:.2f}s"


def test_a02_translation_through_the_shared_trees(life):
    assert translate(life, "Mary loves herself", "Eng", "Ger") == ["Maria liebt sich"]


def test_a03_trees_print_as_plain_terms(life, quantified):
    (ast,) = parse_sentence(life, "Joan loves herself")
    assert print_term(life.language_flat, ast) == "act joan loveOneself"
    (ast,) = parse_sentence(quantified, "John and Mary love everyone")
    assert print_term(quantified.language_flat, ast) == (
        "makeSentence (and_NP john mary) (applyObject love everyone)"
    )


def test_a04_totality_pinpoints_each_deleted_assignment(tmp_path):
    source = (fragment_dir("life") / "semantics" / "semantics.view")
    text = source.read_text(encoding="utf-8")
    block = text.split("view LifeLexSemantics", 1)[1]
    assignments = re.findall(r"^( *(\w+) = .*;)$", block, flags=re.M)
    assert [name for _, name in assignments] == [
        "joan", "mary", "run", "love", "loveOneself",
    ]
    for line, name in assignments:
        root = copy_fragment(tmp_path, "life")
        target = root / "semantics" / "semantics.view"
        target.write_text(text.replace(line + "\n", ""), encoding="utf-8")
        with pytest.raises(TotalityFailure) as exc:
            load_fragment(root)
        assert exc.value.missing == (name,), (
            f"deleting {name} reported {exc.value.missing}"
        )
        shutil.rmtree(root)


def test_a05_derivations_are_checked_on_every_load(tmp_path, life):
    # The shipped derivation is accepted (loading `life` proof-checks it)
    # and carries the recorded conclusion.
    facts = life.graph.flatten("LifeFacts")
    both = facts.lookup("bothRun")
    assert both.definiens is not None
    assert alpha_eq(both.type_, parse_term(facts, "⊢ (run' mary') ∧ (run' joan')"))

    # Swapping the two axiom references makes the proof term ill-typed,
    # and the fragment refuses to load.
    root = copy_fragment(tmp_path, "life")
    path = root / "logic" / "facts.thy"
    text = path.read_text(encoding="utf-8")
    assert "a1 a2" in text
    path.write_text(text.replace("a1 a2", "a2 a1"), encoding="utf-8")
    with pytest.raises(FragmentLoadError, match=r"facts\.thy"):
        load_fragment(root)


def test_a06_tableau_agrees_with_truth_tables_on_500_formulas():
    signature = prop_signature()
    rng = random.Random(65537)
    started = time.perf_counter()
    disagreements = []
    for i in range(500):
        formula = random_formula(rng, 6)
        state = init_belief_state(signature, (formula,), step_budget=500_000)
        assert not state.exhausted
        if bool(state.open_branches) != satisfiable(formula):
            disagreements.append(i)
    elapsed = time.perf_counter() - started
    assert disagreements == []
    assert elapsed < 30.0, f"500 formulas took {elapsed:.1f}s"


def test_a07_ambiguous_conjunction_collapses_in_the_belief_state(quantified):
    sentence = "John and Mary and someone run"
    asts = parse_sentence(quantified, sentence)
    assert len(asts) == 2
    readings = construct_semantics(quantified, sentence)
    assert len(readings) == 2
    assert all(r.in_target_logic for r in readings)
    state = update_belief_state(
        initial_state(quantified), [r.term for r in readings]
    )
    models = extract_models(state)
    assert len(models) == 1, "the two bracketings must saturate identically"
    rendered = {lit.render(state.signature.flat) for lit in models[0]}
    assert {"run' john'", "run' mary'"} <= rendered


def test_a08_every_small_tree_round_trips(life, quantified, modal):
    for fragment in (life, quantified, modal):
        trees = enumerate_asts(fragment.abstract, fragment.start_category, 4)
        assert trees
        for language, concrete in fragment.concretes.items():
            cfg = fragment.cfgs[language]
            by_sentence = {}
            for tree in trees:
                sentence = linearize(fragment.abstract, concrete, tree)
                by_sentence.setdefault(sentence, []).append(tree)
            for sentence, originals in by_sentence.items():
                parsed = parse_tokens(cfg, tokenize(sentence))
                for tree in originals:
                    assert tree in parsed, (
                        f"{fragment.name}/{language}: "
                        f"{print_term(fragment.language_flat, tree)} "
                        f"not among the parses of {sentence!r}"
                    )


def test_a09_the_gate_separates_logic_from_leftovers(life, quantified, modal):
    for name, fragment in (("life", life), ("quantified", quantified), ("modal", modal)):
        gold = fragment_dir(name) / "gold" / f"{name}.gold"
        for case in parse_gold_file(gold.read_text(encoding="utf-8")):
            for expected in case.expected:
                term = parse_term(fragment.target_flat, expected)
                ok, diagnostics = check_in_target_logic(fragment, term)
                assert ok, (expected, diagnostics)
    leftover = parse_term(quantified.target_flat, "[p] p john'")
    ok, diagnostics = check_in_target_logic(quantified, leftover)
    assert not ok and diagnostics


def test_a10_gold_command_exit_codes(tmp_path):
    green = run_cli("gold")
    assert green.returncode == 0, green.stdout + green.stderr
    assert "total: 23 case(s) in 3 fragment(s)" in green.stdout
    assert "Traceback" not in green.stderr

    root = copy_fragment(tmp_path, "life")
    gold = root / "gold" / "life.gold"
    text = gold.read_text(encoding="utf-8")
    corrupted = text.replace("love' joan' joan'", "love' joan' mary'")
    assert corrupted != text
    gold.write_text(corrupted, encoding="utf-8")
    red = run_cli("gold", str(root))
    assert red.returncode == 1
    assert "FAIL" in red.stdout
    assert "Traceback" not in red.stderr


def test_a11_glf_console_script_is_the_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["glf"] == f"{CLI_MODULE}:main"


def test_a12_too_deep_input_is_one_error_line():
    words = "Mary believes that ".split() * 400 + ["John", "runs"]
    for command in ("parse", "construct", "analyze"):
        run = run_cli(command, str(fragment_dir("modal")), *words)
        assert run.returncode == 1, run.stderr[-2000:]
        assert "Traceback" not in run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines[:3]


def test_a13_long_coordinations_saturate_within_the_default_budget():
    # Catalan(7) = 429 and Catalan(8) = 1 430 bracketings, each one class
    # modulo AC of ∧ and ∨, so the tableau saturates one reading of each.
    eight = ("John and Mary and everyone and someone and "
             "John and Mary and everyone and someone run")
    nine = eight.replace(" run", " and Mary run")
    for sentence in (eight, nine):
        run = run_cli("analyze", str(fragment_dir("quantified")), *sentence.split())
        assert run.returncode == 0, run.stderr[-2000:]
        assert "error:" not in run.stdout + run.stderr
        models = [line for line in run.stdout.splitlines() if line.startswith("model ")]
        assert len(models) == 1, run.stdout
        assert "run' john'" in models[0] and "run' mary'" in models[0]
