"""An interactive session against one loaded fragment.

Commands:

    parse [lang] <sentence>        show the abstract syntax trees
    linearize <lang> <ast>         render a tree in a concrete language
    construct [lang] <sentence>    show the logical readings
    analyze [lang] <sentence>      assert the sentence into the belief state
    state                          show branches, models, recent history
    reset                          forget everything but the world knowledge
    help                           this text
    quit                           leave

A command that fails prints an error line; it never ends the session.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from glf.bridge import Fragment, construct_semantics, parse_sentence
from glf.errors import GlfError, nesting_limit
from glf.grammar import linearize
from glf.modsys import parse_term, print_term
from glf.shell.loader import initial_state
from glf.tableau import BeliefState, extract_models, update_belief_state

_HELP = __doc__.split("Commands:", 1)[1].rstrip() + "\n"


@dataclass
class Session:
    fragment: Fragment
    state: BeliefState
    trace: bool = False


def new_session(fragment: Fragment, trace: bool = False) -> Session:
    return Session(fragment, initial_state(fragment), trace)


def _split_language(session: Session, rest: str) -> tuple[str, str]:
    """Leading word is a language tag if it names one; else use the default.
    The sentence after it must not be empty."""
    first, _, remainder = rest.partition(" ")
    if first in session.fragment.cfgs:
        language, rest = first, remainder.strip()
    else:
        language = session.fragment.default_language()
    if not rest:
        raise GlfError("expected a sentence")
    return language, rest


def _readings(session: Session, rest: str, write) -> tuple[str, list]:
    """The sentence in `rest` and its readings; says so when there are none."""
    language, sentence = _split_language(session, rest)
    readings = construct_semantics(session.fragment, sentence, language=language)
    if not readings:
        write(f"no parse: {sentence}\n")
    return sentence, readings


def execute(session: Session, line: str, write) -> bool:
    """Run one command; returns False when the session should end."""
    line = line.strip()
    if not line:
        return True
    command, _, rest = line.partition(" ")
    rest = rest.strip()
    fragment = session.fragment
    flat = fragment.target_flat

    try:
        with nesting_limit("the input"):
            if command in ("quit", "exit"):
                return False

            elif command == "help":
                write(_HELP)

            elif command == "parse":
                language, sentence = _split_language(session, rest)
                asts = parse_sentence(fragment, sentence, language)
                lines = [print_term(fragment.language_flat, ast) + "\n" for ast in asts]
                if not asts:
                    write(f"no parse: {sentence}\n")
                for line in lines:
                    write(line)

            elif command == "linearize":
                language, _, ast_text = rest.partition(" ")
                if not ast_text.strip():
                    raise GlfError("expected a language and a tree")
                if language not in fragment.concretes:
                    write(f"error: unknown language {language!r}\n")
                    return True
                ast = parse_term(fragment.language_flat, ast_text)
                write(linearize(fragment.abstract, fragment.concretes[language], ast) + "\n")

            elif command == "construct":
                _, readings = _readings(session, rest, write)
                for r in readings:
                    if session.trace:
                        write("raw: " + print_term(flat, r.raw) + "\n")
                    gate = "" if r.in_target_logic else "   [not in target logic]"
                    write(print_term(flat, r.term) + gate + "\n")
                    for d in r.diagnostics:
                        write(f"  ! {d}\n")

            elif command == "analyze":
                sentence, readings = _readings(session, rest, write)
                usable = [r.term for r in readings if r.in_target_logic]
                if readings and not usable:
                    write(f"error: no usable reading: {sentence}\n")
                elif usable:
                    session.state = update_belief_state(session.state, usable)
                    _show_state(session, write)

            elif command in ("state", "reset") and rest:
                raise GlfError(f"{command} takes no argument")

            elif command == "state":
                _show_state(session, write, history=3)

            elif command == "reset":
                session.state = initial_state(fragment)
                write("belief state reset\n")

            else:
                write(f"error: unknown command {command!r} (try help)\n")

    except GlfError as err:
        write(f"error: {err}\n")
    return True


def _show_state(session: Session, write, history: int = 0) -> None:
    state = session.state
    flat = state.signature.flat
    models = extract_models(state)
    branches = "branch" if len(state.branches) == 1 else "branches"
    write(f"{len(state.branches)} open {branches}\n")
    if state.exhausted:
        write("(step budget exhausted; state is partial)\n")
    if not models and not state.branches:
        write("contradiction: every branch closed\n")
    for i, model in enumerate(models, 1):
        inside = ", ".join(lit.render(flat) for lit in model) or "<empty>"
        write(f"model {i}: {{ {inside} }}\n")
    for note in state.history[-history:] if history else ():
        write(f"  · {note}\n")


def run_repl(fragment: Fragment, stdin=None, stdout=None, trace: bool = False) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    session = new_session(fragment, trace=trace)
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    stdout.write(f"loaded fragment {fragment.name} "
                 f"({', '.join(fragment.languages())}); try help\n")
    while True:
        if interactive:
            stdout.write("glf> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            return 0
        if not execute(session, line, stdout.write):
            return 0
