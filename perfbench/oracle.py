"""Answers computed apart from glf, and the checks that compare glf with them.

Nothing here calls into glf's semantics, reduction or tableau. Readings and
model literals are checked in the form a user sees them: the rendered text
is parsed by a small precedence parser of this file's own, then either
evaluated over the two-individual domain of the `quantified` fragment or
compared with a structure the workload generator built from its choices.

Truth tables are bitmasks over the 64 valuations of the six ground atoms
`run' j`, `run' m`, `love' a b` (a, b in {john', mary'}).
"""

from __future__ import annotations

import re
from functools import cache
from math import comb

JOHN, MARY = "john'", "mary'"
DOMAIN = (JOHN, MARY)
ATOMS = (("run'", JOHN), ("run'", MARY)) + tuple(
    ("love'", a, b) for a in DOMAIN for b in DOMAIN
)
_BIT = {atom: i for i, atom in enumerate(ATOMS)}
VALUATIONS = range(1 << len(ATOMS))


class OracleError(Exception):
    """A rendered formula the oracle cannot read, or a word it does not know."""


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# --- rendered formulas -------------------------------------------------------
#
# Structures: ("app", head, args), ("not", p), ("and", p, q), ("or", p, q),
# ("forall", var, p), ("exists", var, p), ("box", modality, p),
# ("dia", modality, p), ("lam", var, body).

_TOKEN = re.compile(r"\s*(⟨⟨|⟩⟩|[()\[\],:∧∨¬∀∃⟦⟧]|[\w']+)")
_NAME = re.compile(r"[\w']+")
_INFIX = {"∧": ("and", 10), "∨": ("or", 9)}


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OracleError(f"cannot read {text!r} at {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0
        self.text = text

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise OracleError(f"expected {expected or 'more'} in {self.text!r}")
        self.i += 1
        return tok

    def parse(self):
        e = self.expr(0)
        if self.peek() is not None:
            raise OracleError(f"trailing {self.peek()!r} in {self.text!r}")
        return e

    def expr(self, min_prec: int):
        left = self.prefix()
        while self.peek() in _INFIX and _INFIX[self.peek()][1] >= min_prec:
            op, prec = _INFIX[self.take()]
            left = (op, left, self.expr(prec + 1))
        return left

    def prefix(self):
        tok = self.peek()
        if tok == "¬":
            self.take()
            return ("not", self.expr(21))
        if tok in ("∀", "∃"):
            self.take()
            lam = self.atom()
            if lam[0] != "lam":
                raise OracleError(f"{tok} without a binder in {self.text!r}")
            return ("forall" if tok == "∀" else "exists", lam[1], lam[2])
        if tok in ("⟦", "⟨⟨"):
            self.take()
            modality = self.expr(0)
            self.take("⟧" if tok == "⟦" else "⟩⟩")
            return ("box" if tok == "⟦" else "dia", modality, self.expr(31))
        head = self.atom()
        args = []
        while self.peek() is not None and (self.peek() in "([" or _NAME.fullmatch(self.peek())):
            args.append(self.atom())
        if args:
            if head[0] != "app" or head[2]:
                raise OracleError(f"application of a non-name in {self.text!r}")
            return ("app", head[1], tuple(args))
        return head

    def atom(self):
        tok = self.take()
        if tok == "(":
            e = self.expr(0)
            self.take(")")
            return e
        if tok == "[":
            binders = []
            while True:
                binders.append(self.take())
                if self.peek() == ":":
                    self.take()
                    self.take()  # the binder's type: ι wherever these fragments bind
                if self.take() == "]":
                    break
            body = self.expr(0)
            for name in reversed(binders):
                body = ("lam", name, body)
            return body
        if _NAME.fullmatch(tok):
            return ("app", tok, ())
        raise OracleError(f"unexpected {tok!r} in {self.text!r}")


def parse_rendered(text: str):
    """The structure of a rendered reading or literal; parentheses do not matter."""
    return _Parser(text).parse()


def _truth(e, env: dict[str, str], v: int) -> bool:
    kind = e[0]
    if kind == "and":
        return _truth(e[1], env, v) and _truth(e[2], env, v)
    if kind == "or":
        return _truth(e[1], env, v) or _truth(e[2], env, v)
    if kind == "not":
        return not _truth(e[1], env, v)
    if kind in ("forall", "exists"):
        each = (_truth(e[2], {**env, e[1]: d}, v) for d in DOMAIN)
        return all(each) if kind == "forall" else any(each)
    return bool(v >> _ground_atom(e, env) & 1)


def _ground_atom(e, env: dict[str, str]) -> int:
    if e[0] != "app":
        raise OracleError(f"not a first-order atom: {e!r}")
    args = []
    for a in e[2]:
        if a[0] != "app" or a[2]:
            raise OracleError(f"not an individual: {a!r}")
        args.append(env.get(a[1], a[1]))
    key = (e[1], *args)
    if key not in _BIT:
        raise OracleError(f"unknown atom {key!r}")
    return _BIT[key]


def mask_of(e) -> int:
    """Truth table of a closed first-order structure over the two individuals."""
    return sum(1 << v for v in VALUATIONS if _truth(e, {}, v))


# --- meanings from the words (quantified fragment) ---------------------------

_NOUNS = {"John": JOHN, "Mary": MARY, "everyone": "every", "someone": "some"}
#: ∀ [x : ι] ¬ (love' x x), the fragment's one knowledge axiom.
KNOWLEDGE = sum(
    1 << v for v in VALUATIONS
    if not any(v >> _BIT[("love'", d, d)] & 1 for d in DOMAIN)
)


def _noun(word: str) -> str:
    try:
        return _NOUNS[word]
    except KeyError:
        raise OracleError(f"unknown noun {word!r}") from None


def _np(word: str, prop) -> bool:
    noun = _noun(word)
    if noun == "every":
        return all(prop(d) for d in DOMAIN)
    if noun == "some":
        return any(prop(d) for d in DOMAIN)
    return prop(noun)


def split_sentence(text: str) -> tuple[list[str], str, str | None]:
    """'N1 and ... and Nn V [O]' -> (subject nouns, verb stem, object noun)."""
    words = text.split()
    for k, w in enumerate(words):
        if w in ("run", "runs", "love", "loves"):
            subject, rest = words[:k], words[k + 1:]
            break
    else:
        raise OracleError(f"no verb in {text!r}")
    if subject[1::2] != ["and"] * (len(subject) // 2) or len(subject) % 2 == 0:
        raise OracleError(f"subject is not 'N and ... and N' in {text!r}")
    verb = "run" if w.startswith("run") else "love"
    if (verb == "run" and rest) or (verb == "love" and len(rest) != 1):
        raise OracleError(f"bad verb phrase in {text!r}")
    return subject[0::2], verb, (rest[0] if rest else None)


@cache
def sentence_mask(text: str) -> int:
    """Truth table of a quantified-fragment sentence, read off its words.

    Conjoined subjects distribute (`and_NP = [x, y] [p] (x p) ∧ (y p)`), and
    a quantified object outscopes the whole subject, as the view's
    `love = [subj, obj] obj ([y : ι] subj ([x : ι] love' x y))` has it.
    """
    nouns, verb, obj = split_sentence(text)

    def holds(v: int) -> bool:
        if verb == "run":
            return all(_np(n, lambda x: v >> _BIT[("run'", x)] & 1) for n in nouns)
        return _np(obj, lambda y: all(
            _np(n, lambda x: v >> _BIT[("love'", x, y)] & 1) for n in nouns
        ))

    return sum(1 << v for v in VALUATIONS if holds(v))


def branch_factor(text: str) -> int:
    """Open branches one sentence turns one branch into, with no merging.

    The count of paths through the sentence's ground ∧/∨ structure that
    avoid `love' a a`, which the knowledge closes. Every literal in this
    fragment is positive, so nothing else closes a path.
    """
    nouns, verb, obj = split_sentence(text)

    def np_paths(word: str, paths) -> int:
        noun = _noun(word)
        if noun == "every":
            return paths(JOHN) * paths(MARY)
        if noun == "some":
            return paths(JOHN) + paths(MARY)
        return paths(noun)

    def subject_paths(atom_paths) -> int:
        total = 1
        for n in nouns:
            total *= np_paths(n, atom_paths)
        return total

    if verb == "run":
        return subject_paths(lambda x: 1)
    return np_paths(obj, lambda y: subject_paths(lambda x: 0 if x == y else 1))


def ground_size(text: str) -> int:
    """Nodes of the sentence's formula once its quantifiers are grounded over
    the two individuals: about the tableau steps it costs per open branch."""
    nouns, verb, obj = split_sentence(text)

    def np_size(word: str, size) -> int:
        if _noun(word) in ("every", "some"):
            return 1 + size(JOHN) + size(MARY)
        return size(_noun(word))

    def subject_size(size) -> int:
        return len(nouns) - 1 + sum(np_size(n, size) for n in nouns)

    if verb == "run":
        return subject_size(lambda x: 1)
    return np_size(obj, lambda y: subject_size(lambda x: 1))


# --- the checks --------------------------------------------------------------


def check_trees(text: str, expected: int, linearized: list[str]) -> list[str]:
    problems = []
    if len(linearized) != expected:
        problems.append(f"{len(linearized)} trees, expected {expected}")
    problems += [f"a tree linearizes to {s!r}" for s in linearized if s != text]
    return problems


@cache
def reading_mask(text: str) -> int:
    """Truth table of a rendered reading; passes repeat the same texts."""
    return mask_of(parse_rendered(text))


@cache
def literal(text: str) -> tuple[bool, object]:
    """(polarity, atom structure) of a rendered literal."""
    e = parse_rendered(text)
    return (False, e[1]) if e[0] == "not" else (True, e)


def _ground_literal(text: str) -> tuple[int, bool]:
    positive, atom = literal(text)
    return _ground_atom(atom, {}), positive


def check_quantified(text: str, trees: int, readings: list[str], models: list[list[str]],
                     context: int) -> list[str]:
    """One reading per tree, each equivalent to the sentence; models sound
    and complete for `context`, the truth table of the knowledge and every
    sentence so far.

    Each bracketing of a conjoined subject normalizes to a term of its own
    shape, so no two trees share a reading.
    """
    problems = []
    meaning = sentence_mask(text)
    if len(readings) != trees:
        problems.append(f"{len(readings)} readings, expected {trees}")
    for r in readings:
        if reading_mask(r) != meaning:
            problems.append(f"reading {r!r} is not equivalent to the sentence")
    seen, covered = set(), 0
    for model in models:
        key = frozenset(model)
        if key in seen or len(key) != len(model):
            problems.append(f"model {model} repeats")
        seen.add(key)
        lits = [_ground_literal(l) for l in model]
        bits = {b for b, _ in lits}
        if len(bits) != len(lits):
            problems.append(f"model {model} holds an atom twice")
        extends = sum(
            1 << v for v in VALUATIONS
            if all((v >> b & 1) == pos for b, pos in lits)
        )
        if extends & ~context:
            problems.append(f"model {model} is not sound")
        covered |= extends
    if context & ~covered:
        problems.append("the models are not complete")
    return problems


#: The one knowledge axiom of the modal fragment, ⟦ d ⟧ (run' mary').
MODAL_KNOWLEDGE = ("box", ("app", "d", ()), ("app", "run'", (("app", MARY, ()),)))


def check_modal(readings: list[str], models: list[list[str]], expected) -> list[str]:
    """One reading equal to `expected`; one model: its literal plus the knowledge."""
    problems = []
    if len(readings) != 1:
        problems.append(f"{len(readings)} readings, expected 1")
    for r in readings:
        if parse_rendered(r) != expected:
            problems.append(f"reading {r!r} differs from the generated term")
    reading = (False, expected[1]) if expected[0] == "not" else (True, expected)
    want = {reading, (True, MODAL_KNOWLEDGE)}
    if len(models) != 1 or len(models[0]) != 2 or {literal(l) for l in models[0]} != want:
        problems.append(f"models {models}, expected one holding the reading and the knowledge")
    return problems


def judge(fragment: str, sentence, outcome, context: int) -> list[str]:
    """What is wrong with one operation's rendered readings and models.

    `context` is the truth table of the knowledge and every sentence of
    the session up to and including this one (quantified fragment only).
    """
    if fragment == "modal":
        return check_modal(outcome.readings, outcome.models, sentence.expected)
    return check_quantified(sentence.text, sentence.trees, outcome.readings, outcome.models,
                            context)
