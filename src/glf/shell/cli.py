"""The `glf` command.

    glf load <dir>                       check a fragment loads; summarize it
    glf parse <dir> <words...>           print abstract syntax trees
    glf construct <dir> <words...>       print logical readings
    glf analyze <dir> <words...>         readings + tableau models
    glf gold [dir]                       run gold cases (default: shipped corpus)
    glf repl <dir>                       interactive session

Exit status: 0 on success, 1 on failure (load error, no parse, exhausted
tableau step budget, failed gold case), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from pathlib import Path

from glf import corpus
from glf.bridge import construct_semantics, parse_sentence
from glf.errors import FragmentLoadError, GlfError, GoldFormatError, nesting_limit
from glf.modsys import print_term
from glf.shell.gold import parse_gold_file, run_gold
from glf.shell.loader import initial_state, load_fragment, read_fragment_file
from glf.shell.repl import run_repl
from glf.tableau import extract_models, update_belief_state


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glf", description="Grammar + logic fragments: parse, construct, analyze."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fragment_command(name: str, help_: str, sentence: bool):
        p = sub.add_parser(name, help=help_)
        p.add_argument("fragment", help="fragment directory")
        if sentence:
            p.add_argument("words", nargs="+", help="the sentence, as words")
            p.add_argument("--lang", help="concrete language tag")
        return p

    fragment_command("load", "load a fragment and summarize it", sentence=False)
    p = fragment_command("parse", "print the ASTs of a sentence", sentence=True)
    p.add_argument("--cat", help="parse category (must be the start category)")
    p = fragment_command("construct", "print the logical readings", sentence=True)
    p.add_argument("--trace", action="store_true",
                   help="also print the readings before normalization")
    fragment_command("analyze", "assert a sentence and print the models", sentence=True)

    p = sub.add_parser("gold", help="run gold cases for one fragment or a corpus tree")
    p.add_argument("directory", nargs="?",
                   help="fragment directory or a directory of fragments "
                        "(default: the shipped corpus)")

    p = sub.add_parser("repl", help="interactive session")
    p.add_argument("fragment", help="fragment directory")
    p.add_argument("--trace", action="store_true")
    return parser


def _cmd_load(args) -> int:
    fragment = load_fragment(args.fragment)
    print(f"fragment {fragment.name}")
    print(f"  abstract:   {fragment.abstract.name} "
          f"({len(fragment.abstract.funs)} functions, start {fragment.start_category})")
    print(f"  languages:  {', '.join(fragment.languages())}")
    print(f"  semantics:  {fragment.semantics_view.name} "
          f"-> {fragment.semantics_view.target}")
    print(f"  knowledge:  {len(fragment.knowledge)} axiom(s)")
    return 0


def _cmd_parse(args) -> int:
    fragment = load_fragment(args.fragment)
    sentence = " ".join(args.words)
    asts = parse_sentence(fragment, sentence, args.lang, args.cat)
    lines = [print_term(fragment.language_flat, ast) for ast in asts]
    for line in lines:
        print(line)
    if not asts:
        print(f"no parse: {sentence}", file=sys.stderr)
        return 1
    return 0


def _cmd_construct(args) -> int:
    fragment = load_fragment(args.fragment)
    sentence = " ".join(args.words)
    flat = fragment.target_flat
    readings = construct_semantics(fragment, sentence, language=args.lang)
    for r in readings:
        if args.trace:
            print("raw: " + print_term(flat, r.raw))
        gate = "" if r.in_target_logic else "   [not in target logic]"
        print(print_term(flat, r.term) + gate)
    if not readings:
        print(f"no parse: {sentence}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    fragment = load_fragment(args.fragment)
    sentence = " ".join(args.words)
    readings = construct_semantics(fragment, sentence, language=args.lang)
    if not readings:
        print(f"no parse: {sentence}", file=sys.stderr)
        return 1
    usable = [r.term for r in readings if r.in_target_logic]
    if not usable:
        print(f"no usable reading: {sentence}", file=sys.stderr)
        return 1
    state = update_belief_state(initial_state(fragment), usable)
    if state.exhausted:
        print(f"error: the tableau exhausted its step budget of {state.step_budget} "
              "steps; its models would be partial", file=sys.stderr)
        return 1
    flat = state.signature.flat
    if not state.branches:
        print("contradiction: every branch closed")
    for i, model in enumerate(extract_models(state), 1):
        print(f"model {i}: {{ " + ", ".join(l.render(flat) for l in model) + " }")
    return 0


def _gold_directories(root: Path) -> list[Path]:
    if (root / "fragment.manifest").is_file():
        return [root]
    return sorted(
        p for p in root.iterdir()
        if p.is_dir() and (p / "fragment.manifest").is_file()
    )


def _cmd_gold(args) -> int:
    root = Path(args.directory) if args.directory else corpus.corpus_root()
    if not root.is_dir():
        raise FragmentLoadError(f"{root} is not a directory")
    directories = _gold_directories(root)
    if not directories:
        raise FragmentLoadError(f"no fragment.manifest under {root}")
    ok, total = True, 0
    for directory in directories:
        fragment = load_fragment(directory)
        cases = []
        for gold_path in sorted((directory / "gold").glob("*.gold")):
            text = read_fragment_file(directory, f"gold/{gold_path.name}")
            try:
                cases.extend(parse_gold_file(text))
            except GoldFormatError as err:
                raise GoldFormatError(err.message, err.line, str(gold_path)) from None
        report = run_gold(fragment, tuple(cases))
        print(report.render())
        ok = ok and report.ok
        total += len(report.results)
    print(f"total: {total} case(s) in {len(directories)} fragment(s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "load": _cmd_load,
        "parse": _cmd_parse,
        "construct": _cmd_construct,
        "analyze": _cmd_analyze,
        "gold": _cmd_gold,
        "repl": lambda a: run_repl(load_fragment(a.fragment), trace=a.trace),
    }
    try:
        with nesting_limit("the input"):
            return handlers[args.command](args)
    except GlfError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
