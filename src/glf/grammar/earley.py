"""Chart parsing over compiled grammars.

An Earley recognizer followed by an extraction pass that rebuilds every
abstract syntax tree for the input from the recognizer's chart. Extraction
order is deterministic: productions in declaration order, split points
left to right.

Both passes run on the integer tables a `CFG` builds once (nonterminal
codes, coded right-hand sides, dotted-production states, prediction
tables, tree builders). A chart item is one int that packs a state with
the item's origin. The recognizer keeps, per position, the items waiting
on each nonterminal: a nonterminal is predicted the first time an item
waits on it, a completion advances only the items waiting on its
left-hand side at its origin, and the usual eager advance over nullable
nonterminals makes empty linearizations work. A nonterminal with one
empty derivation is compiled out of the rules (see `CFG`): no shipped
grammar keeps a nullable one, so their charts never take that advance.

Lookahead. A prediction adds only the productions that can begin with the
next token or derive the empty string. The first token matches in any
case, so sentence-initial capitalization needs no lexicon duplicates. Any
other production needs a token that is not there, so it never completes:
every completed span, and every item that a tree can use, stays in the
chart.

Item-guided extraction. `parse_tokens` keeps the chart's completed items,
each with the position where it completed; `recognize` keeps none. The
trees of a nonterminal over tokens i..j come only from the productions
whose item completed from i at j. A nonterminal in a right-hand side is
split off at the ends of its completed spans, and the rest of the
right-hand side is bound before that nonterminal's trees are asked for.
So a span is extracted only if some tree uses it, and the last
nonterminal of a right-hand side is asked for once, ending where the
production ends. The items before a split are in the chart, so the
advanced item at each such end is too, and a split needs no check of its
own.

Cycles. On a root-to-leaf path spans only shrink, so a (nonterminal,
span) can repeat only within a run of nodes over one span, which unit and
nullable steps make. Extraction passes down the codes open over the
current span, and a code already open there yields no tree. So it returns
exactly the trees in which no (nonterminal, span) repeats on a root-to-leaf
path. That cannot lose every tree of an accepted sentence: cutting out the
part between two repeats gives a smaller derivation, so a smallest one has
no repeat, and its tree is found. Only a code in `CFG.cyclic`, which can
derive itself over one span, has trees that depend on the codes open above
it, so only its memo key holds them. Any other code's key is its span
alone, and it passes no open code down: a code below it over its span that
reached one above would make it cyclic. No shipped grammar has a cyclic
code, so their extraction is plain memoized recursion.

Trees are interned terms, so equal trees are the same object and the
duplicates a parse finds collapse as dict keys. Extraction still recurses
once per level of embedding, three frames for a level of "Mary believes
that", so `glf parse` takes chains of up to 329 levels.
"""

from __future__ import annotations

from glf.grammar.cfg import CFG
from glf.kernel import Term, app

_NONE: frozenset[int] = frozenset()


def tokenize(text: str) -> list[str]:
    return text.split()


def _match(terminal: str, word: str, pos: int) -> bool:
    return terminal == word or (pos == 0 and terminal.lower() == word.lower())


def _run(cfg: CFG, tokens: list[str], done: set[int] | None = None,
         ) -> dict[tuple[int, int], list[int]]:
    """Return completed spans: (nonterminal code, start) -> ascending ends.

    An item is the int `origin * width + state`, for `width` states in
    all, so advancing its dot adds one. With `done`, add to it each item
    that completes at position `end` as `end * (n + 1) * width + item`.
    """
    n = len(tokens)
    after, nullable, empty = cfg.after, cfg.nullable, cfg.predict_empty
    width = len(after)
    completed: dict[tuple[int, int], list[int]] = {}
    # waiting[pos][code]: the items at pos whose next symbol is code.
    waiting: list[dict[int, list[int]]] = []
    items: list[int] = []  # scanned into the next position

    for pos in range(n + 1):
        if pos == n:
            word, table, key = None, cfg.predict, None
        elif pos == 0:
            word = tokens[0]
            table, key = cfg.predict_initial, word.lower()
        else:
            word = key = tokens[pos]
            table = cfg.predict
        here, finished = pos * width, pos * (n + 1) * width
        wait: dict[int, list[int]] = {}
        waiting.append(wait)
        if pos == 0:
            # The start codes wait at 0 on nothing; marking them waited on
            # keeps a later item that waits on one from predicting it again.
            for s in cfg.starts:
                wait[s] = []
                items.extend(table[s].get(key, empty[s]))
        seen = set(items)
        work, items = items, []
        for item in work:  # grows while it is walked
            sym = after[item % width]
            if sym.__class__ is str:
                if word is not None and (sym == word or (pos == 0 and sym.lower() == key)):
                    items.append(item + 1)
            elif sym >= 0:
                waiters = wait.get(sym)
                if waiters is None:
                    wait[sym] = [item]
                    for s0 in table[sym].get(key, empty[sym]):
                        seen.add(here + s0)  # each code is predicted once per position
                        work.append(here + s0)
                else:
                    waiters.append(item)
                # A nullable child may have completed here before this item
                # started waiting on it.
                if nullable[sym] and item + 1 not in seen:
                    seen.add(item + 1)
                    work.append(item + 1)
            else:
                if done is not None:
                    done.add(finished + item)
                lhs, origin = ~sym, item // width
                ends = completed.get((lhs, origin))
                if ends is None:
                    completed[lhs, origin] = [pos]
                elif ends[-1] != pos:
                    ends.append(pos)
                else:
                    continue  # its waiters were advanced when it first completed here
                for waiter in waiting[origin].get(lhs, ()):
                    if waiter + 1 not in seen:
                        seen.add(waiter + 1)
                        work.append(waiter + 1)
    return completed


def recognize(cfg: CFG, tokens: list[str]) -> bool:
    completed = _run(cfg, tokens)
    n = len(tokens)
    return any(n in completed.get((s, 0), ()) for s in cfg.starts)


def parse_tokens(cfg: CFG, tokens: list[str]) -> list[Term]:
    """All abstract syntax trees deriving `tokens`, deduplicated, in grammar order."""
    done: set[int] = set()
    completed = _run(cfg, tokens, done)
    n = len(tokens)
    extraction = _Extraction(cfg, tokens, completed, done)
    results: dict[Term, None] = {}
    for s in cfg.starts:
        if n in completed.get((s, 0), ()):
            for t in extraction.parses(s, 0, n, _NONE):
                results[t] = None
    return list(results)


class _Extraction:
    """The trees of one parse, read off its chart: the completed spans and
    the items completed at each position, as `_run` leaves them."""

    __slots__ = ("rhs", "by_lhs", "state", "builds", "cyclic", "tokens", "completed",
                 "done", "width", "stride", "memo")

    def __init__(self, cfg: CFG, tokens: list[str],
                 completed: dict[tuple[int, int], list[int]], done: set[int]):
        self.rhs, self.by_lhs, self.state = cfg.rhs, cfg.by_lhs, cfg.state
        self.builds, self.cyclic = cfg.builds, cfg.cyclic
        self.tokens, self.completed, self.done = tokens, completed, done
        self.width = len(cfg.after)
        self.stride = (len(tokens) + 1) * self.width  # from one end position to the next
        self.memo: dict[tuple, list[Term]] = {}

    def parses(self, code: int, i: int, j: int, above: frozenset[int]) -> list[Term]:
        """The trees of code over tokens[i:j] in which no code of `above`,
        the codes open over the same span, recurs over it."""
        if code in self.cyclic:
            if code in above:
                return []
            key = (code, i, j, above)
            above = above | {code}
        else:
            key = (code, i, j)
            above = _NONE  # no code below it over its span reaches one above
        found = self.memo.get(key)
        if found is not None:
            return found
        rhs_of, state, builds, done = self.rhs, self.state, self.builds, self.done
        trees: dict[Term, None] = {}
        span = j * self.stride + i * self.width
        for idx in self.by_lhs[code]:
            if span + state[idx] + len(rhs_of[idx]) not in done:
                continue
            build = builds[idx]
            if build.__class__ is not tuple:
                trees[build] = None  # no subtrees: the chart item is its match
                continue
            head, order = build
            for subs in self.splits(idx, 0, i, j, above):
                if order is not None:
                    subs = [subs[k] if k.__class__ is int else k for k in order]
                trees[app(head, *subs)] = None
        found = self.memo[key] = list(trees)
        return found

    def splits(self, idx: int, m: int, x: int, j: int, above: frozenset[int],
               ) -> list[tuple[Term, ...]]:
        """Bind rhs[m:] of production idx to tokens[x:j]: the subtrees of its
        codes. `above` holds the codes open over tokens[x:j] if that is the
        whole span of the production, and none otherwise."""
        rhs = self.rhs[idx]
        end = len(rhs)
        while m < end and rhs[m].__class__ is str:
            if x == j or not _match(rhs[m], self.tokens[x], x):
                return []
            m += 1
            x += 1
            above = _NONE
        if m == end:
            return [()] if x == j else []
        child = rhs[m]
        if m + 1 == end:
            return [(sub,) for sub in self.parses(child, x, j, above)]
        out: list[tuple[Term, ...]] = []
        for y in self.completed.get((child, x), ()):
            if y > j:
                break
            tails = self.splits(idx, m + 1, y, j, above if y == x else _NONE)
            if tails:
                for sub in self.parses(child, x, y, above if y == j else _NONE):
                    for tail in tails:
                        out.append((sub, *tail))
        return out
