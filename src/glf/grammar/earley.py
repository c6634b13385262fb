"""Chart parsing over compiled grammars.

An Earley recognizer (with the usual eager advance over nullable
nonterminals, so empty linearizations work) followed by a chart-guided
extraction pass that rebuilds every abstract syntax tree for the input.
Extraction order is deterministic: productions in declaration order,
split points left to right.

Both passes run on the integer tables a `CFG` builds once (nonterminal
codes, coded right-hand sides, productions by left-hand side, nullability,
start codes). Chart items are `(production, dot, origin)` triples. The
recognizer keeps, per position, the items waiting on each nonterminal: a
nonterminal is predicted the first time an item waits on it, and a
completion advances only the items waiting on its left-hand side at its
origin. Ends of completed spans arrive in increasing order.

Trees are interned terms, so equal trees are the same object and the
duplicates a parse finds collapse as dict keys. Extraction still recurses
once per level of embedding, through two closures that refer to each
other; they are deleted when the parse ends, so a parse leaves no
reference cycle behind.

The first input token is matched case-insensitively so sentence-initial
capitalization does not require lexicon duplicates.
"""

from __future__ import annotations

from glf.grammar.cfg import CFG
from glf.kernel import Const, Term, app


def tokenize(text: str) -> list[str]:
    return text.split()


def _match(terminal: str, word: str, pos: int) -> bool:
    return terminal == word or (pos == 0 and terminal.lower() == word.lower())


def _run(cfg: CFG, tokens: list[str]) -> dict[tuple[int, int], list[int]]:
    """Return completed spans: (nonterminal code, start) -> ascending ends."""
    n = len(tokens)
    rhs_of, lhs_of, by_lhs, nullable = cfg.rhs, cfg.lhs, cfg.by_lhs, cfg.nullable
    completed: dict[tuple[int, int], list[int]] = {}
    # waiting[pos][code]: the items at pos whose next symbol is code.
    waiting: list[dict[int, list[tuple[int, int, int]]]] = []
    items = [(idx, 0, 0) for s in cfg.starts for idx in by_lhs[s]]

    for pos in range(n + 1):
        word = tokens[pos] if pos < n else None
        wait: dict[int, list[tuple[int, int, int]]] = {}
        waiting.append(wait)
        seen = set(items)
        work, items = items, []
        for item in work:  # grows while it is walked
            idx, dot, origin = item
            rhs = rhs_of[idx]
            if dot < len(rhs):
                sym = rhs[dot]
                if sym.__class__ is str:
                    if word is not None and _match(sym, word, pos):
                        items.append((idx, dot + 1, origin))
                    continue
                waiters = wait.get(sym)
                if waiters is None:
                    wait[sym] = [item]
                    for cidx in by_lhs[sym]:
                        new = (cidx, 0, pos)
                        if new not in seen:
                            seen.add(new)
                            work.append(new)
                else:
                    waiters.append(item)
                # A nullable child may have completed here before this item
                # started waiting on it.
                if nullable[sym]:
                    new = (idx, dot + 1, origin)
                    if new not in seen:
                        seen.add(new)
                        work.append(new)
            else:
                lhs = lhs_of[idx]
                ends = completed.get((lhs, origin))
                if ends is None:
                    completed[lhs, origin] = [pos]
                elif ends[-1] != pos:
                    ends.append(pos)
                for i2, d2, o2 in waiting[origin].get(lhs, ()):
                    new = (i2, d2 + 1, o2)
                    if new not in seen:
                        seen.add(new)
                        work.append(new)
    return completed


def recognize(cfg: CFG, tokens: list[str]) -> bool:
    completed = _run(cfg, tokens)
    n = len(tokens)
    return any(n in completed.get((s, 0), ()) for s in cfg.starts)


def parse_tokens(cfg: CFG, tokens: list[str]) -> list[Term]:
    """All abstract syntax trees deriving `tokens`, deduplicated, in grammar order."""
    completed = _run(cfg, tokens)
    n = len(tokens)
    rhs_of, slots_of, by_lhs = cfg.rhs, cfg.slots, cfg.by_lhs
    productions = cfg.productions
    memo: dict[tuple[int, int, int], list[Term] | None] = {}

    def tree(idx: int, subs: tuple[Term, ...]) -> Term:
        p = productions[idx]
        args: list[Term | None] = [None] * p.arity
        for argi, sub in zip(slots_of[idx], subs):
            args[argi] = sub
        return app(Const(p.fun), *args)

    def parses(code: int, i: int, j: int) -> list[Term]:
        key = (code, i, j)
        if key in memo:
            cached = memo[key]
            return [] if cached is None else cached  # None marks a cycle
        memo[key] = None
        found: dict[Term, None] = {}
        for idx in by_lhs[code]:
            for subs in splits(rhs_of[idx], 0, i, j):
                found[tree(idx, subs)] = None
        result = list(found)
        memo[key] = result
        return result

    def splits(rhs: tuple, m: int, x: int, j: int) -> list[tuple[Term, ...]]:
        """Bind rhs[m:] to tokens[x:j]: the subtrees of its codes, in order."""
        while m < len(rhs) and rhs[m].__class__ is str:
            if x == j or not _match(rhs[m], tokens[x], x):
                return []
            m += 1
            x += 1
        if m == len(rhs):
            return [()] if x == j else []
        child = rhs[m]
        out: list[tuple[Term, ...]] = []
        for y in completed.get((child, x), ()):
            if y > j:
                break
            subs = parses(child, x, y)
            if not subs:
                continue
            tails = splits(rhs, m + 1, y, j)
            for sub in subs:
                for tail in tails:
                    out.append((sub, *tail))
        return out

    results: dict[Term, None] = {}
    try:
        for s in cfg.starts:
            if n in completed.get((s, 0), ()):
                for t in parses(s, 0, n):
                    results[t] = None
    finally:
        del parses, splits  # the closures refer to each other; free them with the call
    return list(results)
