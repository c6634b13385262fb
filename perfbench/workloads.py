"""Seeded inputs for the three workloads.

The seed picks words; the sizes are fixed, so every seed gives a pass of
about the same cost and the figures of two seeds can be compared. glf
receives only the sentence texts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle


@dataclass(frozen=True)
class Sentence:
    text: str
    size: str  # the size class whose share of the pass time the run reports
    trees: int  # parse trees the grammar must give
    expected: object = None  # modal_depth: the structure of the one reading


@dataclass(frozen=True)
class Workload:
    name: str
    fragment: str
    # Each session starts from the fragment's initial belief state; the
    # one-shot workloads have one sentence per session, as `glf analyze` does.
    sessions: tuple[tuple[Sentence, ...], ...]


# Coordination: conjunct counts and verb phrases; one pass is every pair.
# At n=7 there are Catalan(6) = 132 trees. Where each kind of noun stands is
# fixed, since it sets the tableau's work: one `someone` in the middle (each
# one doubles the branches of every reading, and two of them at n=7 take
# the tableau to within a tenth of its 10 000-step budget), `everyone` at
# every third place from the second, names elsewhere. The seed picks the
# names.
CONJUNCTS = range(2, 8)
VERB_PHRASES = ("run", "love everyone", "love someone")


def noun_kinds(n: int) -> list[str]:
    return ["someone" if i == n // 2 else "everyone" if i % 3 == 1 else "name"
            for i in range(n)]


# Modal depth: embeddings under "X (doesn't) believe(s) that". Depths stay
# well below the parser's recursion ceiling, which lies between 230 and 260.
DEPTHS = (10, 30, 50, 70, 90, 110, 130, 150)
ENDINGS = ("runs", "has to run", "is allowed to run")

# Discourse: sessions of SESSION_LENGTH sentences; the sentences at
# DOUBLING_AT split every open branch in two (glf never merges branches),
# the others leave the branch count alone. A session ends on
# 2 ** len(DOUBLING_AT) = 64 open branches. A sentence costs about its
# ground size once per open branch, so each place draws from a fixed band of
# sizes: the steady places cycle through STEADY_BANDS bands, the doubling
# ones through DOUBLING_BANDS, and every seed gets about the same work.
SESSIONS = 8
SESSION_LENGTH = 40
DOUBLING_AT = (3, 9, 15, 21, 27, 33)
STEADY_BANDS = 5
DOUBLING_BANDS = 3


def _app(head: str, *args) -> tuple:
    return ("app", head, tuple(args))


def _name(word: str) -> tuple:
    return _app(word.lower() + "'")


def coordination(seed: int) -> Workload:
    rng = random.Random(seed)
    sessions = []
    for n in CONJUNCTS:
        for vp in VERB_PHRASES:
            nouns = [rng.choice(("John", "Mary")) if kind == "name" else kind
                     for kind in noun_kinds(n)]
            text = " and ".join(nouns) + " " + vp
            sessions.append((Sentence(text, f"n={n}", oracle.catalan(n - 1)),))
    return Workload("coordination", "quantified", tuple(sessions))


def modal_sentence(rng: random.Random, depth: int) -> Sentence:
    """'X believes that / doesn't believe that ...' ending in John or Mary."""
    subject, ending = rng.choice(("John", "Mary")), rng.choice(ENDINGS)
    term = _app("run'", _name(subject))
    if ending == "has to run":
        term = ("box", _app("d"), term)
    elif ending == "is allowed to run":
        term = ("dia", _app("d"), term)
    words = [f"{subject} {ending}"]
    negated = set(rng.sample(range(depth), depth // 2))
    for level in range(depth):
        believer = rng.choice(("John", "Mary"))
        term = ("box", _app("e", _name(believer)), term)
        if level in negated:
            term = ("not", term)
            words.append(f"{believer} doesn't believe that")
        else:
            words.append(f"{believer} believes that")
    return Sentence(" ".join(reversed(words)), f"d={depth}", 1, term)


def modal_depth(seed: int) -> Workload:
    rng = random.Random(seed)
    sessions = tuple((modal_sentence(rng, d),) for d in DEPTHS)
    return Workload("modal_depth", "modal", sessions)


def discourse_pool() -> tuple[list[str], list[str]]:
    """Short sentences consistent with the knowledge, by branch factor 1 and 2.

    Sentences that contradict the knowledge would close every branch; all
    literals of the fragment are positive, so any mix of consistent
    sentences stays consistent.
    """
    nouns = ("John", "Mary", "everyone", "someone")
    subjects = [(a,) for a in nouns] + [(a, b) for a in nouns for b in nouns]
    keep: dict[int, list[str]] = {1: [], 2: []}
    for subject in subjects:
        one = len(subject) == 1
        for vp in ["runs" if one else "run"] + [
            ("loves " if one else "love ") + o for o in nouns
        ]:
            text = " and ".join(subject) + " " + vp
            if oracle.sentence_mask(text) & oracle.KNOWLEDGE == 0:
                continue
            factor = oracle.branch_factor(text)
            if factor in keep:
                keep[factor].append(text)
    return keep[1], keep[2]


def _bands(texts: list[str], n: int) -> list[list[str]]:
    """`texts` by ground size, cut into `n` bands of (nearly) equal count."""
    ordered = sorted(texts, key=lambda t: (oracle.ground_size(t), t))
    return [ordered[len(ordered) * k // n:len(ordered) * (k + 1) // n] for k in range(n)]


def discourse(seed: int) -> Workload:
    rng = random.Random(seed)
    steady_pool, doubling_pool = discourse_pool()
    steady, doubling = _bands(steady_pool, STEADY_BANDS), _bands(doubling_pool, DOUBLING_BANDS)
    sessions = []
    for _ in range(SESSIONS):
        session, branches = [], 1
        for k in range(SESSION_LENGTH):
            if k in DOUBLING_AT:
                band = doubling[DOUBLING_AT.index(k) % DOUBLING_BANDS]
            else:
                band = steady[(k - sum(d < k for d in DOUBLING_AT)) % STEADY_BANDS]
            text = rng.choice(band)
            session.append(Sentence(text, f"branches={branches}", 1))
            branches *= oracle.branch_factor(text)
        sessions.append(tuple(session))
    return Workload("discourse", "quantified", tuple(sessions))


WORKLOADS = {"coordination": coordination, "modal_depth": modal_depth, "discourse": discourse}
