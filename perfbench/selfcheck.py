"""Check the benchmark's checks: each wrong answer must count as a failed operation.

    python3 perfbench/selfcheck.py

Runs a few small sessions through `stages.Run`, first as glf answers them
(no operation may fail), then once per mutation with one operation's answer
made wrong (exactly that operation must fail). `run.py` runs this before
every measurement and reports `correct: false` if a mutation slips through.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path


def _swap_names(text: str) -> str:
    """One atom changed: the first individual named becomes the other one."""
    j, m = text.find("john'"), text.find("mary'")
    if j >= 0 and (m < 0 or j < m):
        return text[:j] + "mary'" + text[j + 5:]
    return text[:m] + "john'" + text[m + 5:]


def _flip_first_literal(models):
    lit = models[0][0]
    flipped = lit[2:] if lit.startswith("¬ ") else "¬ " + lit
    return [[flipped] + models[0][1:]] + models[1:]


MUTATIONS = {
    "an unreadable reading": lambda o: replace(o, readings=["∧ " + r for r in o.readings]),
    "a reading with one atom changed":
        lambda o: replace(o, readings=[_swap_names(o.readings[0])] + o.readings[1:]),
    "a dropped reading": lambda o: replace(o, readings=o.readings[:-1]),
    "a dropped model": lambda o: replace(o, models=o.models[:-1]),
    "an extra, empty model": lambda o: replace(o, models=o.models + [[]]),
    "a repeated model": lambda o: replace(o, models=o.models + [o.models[0]]),
    "a model literal negated": lambda o: replace(o, models=_flip_first_literal(o.models)),
    "a model literal dropped": lambda o: replace(o, models=[o.models[0][1:]] + o.models[1:]),
    "an exhausted tableau": lambda o: replace(o, exhausted=True),
}


def _cases(fragment_dir):
    import oracle
    from glf.shell.loader import load_fragment
    from workloads import Sentence, Workload, modal_sentence

    quantified = load_fragment(fragment_dir("quantified"))
    modal = load_fragment(fragment_dir("modal"))
    one = lambda text: Sentence(text, "", oracle.catalan(len(text.split(" and ")) - 1))
    # The mutated sentence is always the last of its session.
    yield "one-shot", quantified, Workload("t", "quantified", ((one("John and Mary and someone run"),),))
    yield "discourse", quantified, Workload("t", "quantified", (
        (one("Mary runs"), one("someone loves John"), one("John runs")),))
    yield "modal", modal, Workload("t", "modal", ((modal_sentence(random.Random(0), 3),),))


def run(fragment_dir) -> list[str]:
    """The wrong answers that were not counted as failed; empty when all were."""
    import stages
    from glf.errors import GlfError

    def plain(fragment):
        return lambda op, text, state: (stages.run_plain(fragment, text, state)[0], None)

    missed = []
    for label, fragment, workload in _cases(fragment_dir):
        baseline = stages.Run(workload, fragment)
        baseline.one_pass(plain(fragment), check_trees=True)
        if baseline.failed:
            missed.append(f"{label}: glf's own answers failed: {baseline.wrong + baseline.errors}")
            continue
        last = workload.sessions[-1][-1].text
        mutations = dict(MUTATIONS)

        def raising(o):
            raise GlfError("a deliberate failure")

        mutations["an exception"] = raising
        for name, mutate in mutations.items():
            def runner(op, text, state, mutate=mutate):
                outcome, measured = plain(fragment)(op, text, state)
                return (mutate(outcome) if text == last else outcome), measured

            checked = stages.Run(workload, fragment)
            checked.one_pass(runner)
            if checked.failed != 1:
                missed.append(f"{label}: {name} gave {checked.failed} failed operation(s), expected 1")

        # A tree count off by one either way, and an answer that changes between passes.
        for off in (-1, 1):
            sentence = workload.sessions[-1][-1]
            wrong_count = replace(sentence, trees=sentence.trees + off)
            sessions = workload.sessions[:-1] + (workload.sessions[-1][:-1] + (wrong_count,),)
            checked = stages.Run(replace(workload, sessions=sessions), fragment)
            checked.one_pass(plain(fragment), check_trees=True)
            if checked.failed != 1:
                missed.append(f"{label}: a tree count off by {off} was not counted as failed")
        # Redundant parentheses pass the oracle; only the comparison with the
        # first pass can catch this one.
        checked = stages.Run(workload, fragment)
        checked.one_pass(plain(fragment))
        checked.one_pass(lambda op, text, state: runner(
            op, text, state, lambda o: replace(o, readings=[f"({r})" for r in o.readings])))
        if checked.failed != 1:
            missed.append(f"{label}: an answer that changed between passes was not counted as failed")
    return missed


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from glf.corpus import fragment_dir
    missed = run(fragment_dir)
    for line in missed:
        print(f"missed: {line}")
    print("self-check: every wrong answer counted as failed" if not missed
          else f"self-check: {len(missed)} wrong answer(s) not caught")
    sys.exit(1 if missed else 0)
