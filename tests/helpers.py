"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st

from glf.kernel import (
    App,
    Const,
    Declaration,
    Lam,
    Pi,
    Signature,
    Sort,
    TYPE,
    Term,
    Var,
    alpha_eq,
    app,
    arrow,
    lam,
    spine,
    substitute,
)

O = Const("o")
I = Const("ι")


def ksig() -> Signature:
    """A small logic+domain signature for kernel-level tests."""
    d = lambda name, ty, definiens=None: Declaration(name, ty, definiens)
    return Signature([
        d("o", TYPE),
        d("ι", TYPE),
        d("joan'", I),
        d("mary'", I),
        d("john'", I),
        d("sunny'", O),
        d("windy'", O),
        d("love'", arrow(I, I, O)),
        d("run'", arrow(I, O)),
        d("and", arrow(O, O, O)),
        d("neg", arrow(O, O)),
        Declaration(
            "or",
            arrow(O, O, O),
            lam([("a", O), ("b", O)],
                app(Const("neg"),
                    app(Const("and"),
                        app(Const("neg"), Var("a")),
                        app(Const("neg"), Var("b"))))),
        ),
    ])


def applicative_normalize(sig, t: Term, budget: int = 100_000) -> Term:
    """Rightmost-innermost normalization, used as a confluence cross-check."""
    from glf.errors import NonTerminationGuard

    steps = [budget]

    def norm(t: Term) -> Term:
        match t:
            case App(fn, arg):
                fn, arg = norm(fn), norm(arg)
                if isinstance(fn, Lam):
                    steps[0] -= 1
                    if steps[0] < 0:
                        raise NonTerminationGuard("test budget exceeded")
                    return norm(substitute(fn.body, fn.binder, arg))
                if isinstance(fn, Const) and sig is not None:
                    d = sig.lookup(fn.name)
                    if d is not None and isinstance(d.definiens, Lam):
                        steps[0] -= 1
                        if steps[0] < 0:
                            raise NonTerminationGuard("test budget exceeded")
                        return norm(App(d.definiens, arg))
                head, args = spine(App(fn, arg))
                return app(head, *args)
            case Lam(b, bt, body):
                return Lam(b, norm(bt) if bt is not None else None, norm(body))
            case Pi(b, dom, cod):
                return Pi(b, norm(dom), norm(cod))
            case _:
                return t

    return norm(t)


def reference_free_vars(t: Term) -> frozenset[str]:
    """Free variables by a plain traversal that never reads a node's cache."""
    match t:
        case Var(name):
            return frozenset((name,))
        case Const() | Sort():
            return frozenset()
        case App(fn, arg):
            return reference_free_vars(fn) | reference_free_vars(arg)
        case Lam(binder, binder_type, body):
            fv = reference_free_vars(body) - {binder}
            if binder_type is not None:
                fv |= reference_free_vars(binder_type)
            return fv
        case Pi(binder, domain, codomain):
            return reference_free_vars(domain) | (reference_free_vars(codomain) - {binder})
    raise TypeError(f"not a term: {t!r}")


# --- random well-typed terms -------------------------------------------------

def _peel(ty: Term) -> tuple[list[Term], Term]:
    args = []
    while isinstance(ty, Pi):
        args.append(ty.domain)
        ty = ty.codomain
    return args, ty


@st.composite
def typed_terms(
    draw, sig: Signature, target: Term | None = None, depth: int = 4,
    bases: tuple[Term, Term] = (O, I),
):
    """A random term of the given (simple) type over `sig`, with binders annotated."""
    prop, ind = bases
    if target is None:
        target = draw(st.sampled_from([prop, ind, arrow(ind, prop), arrow(prop, prop)]))
    return _gen(draw, sig, target, (), depth, 0, bases)


def _gen(draw, sig: Signature, target: Term, ctx: tuple, depth: int, fresh: int,
         bases: tuple[Term, Term] = (O, I)) -> Term:
    heads: list[tuple[Term, list[Term]]] = []
    for d in sig:
        if d.type_ is None:
            continue
        args, result = _peel(d.type_)
        if alpha_eq(result, target) and (depth > 0 or not args):
            heads.append((Const(d.name), args))
    for name, ty in ctx:
        args, result = _peel(ty)
        if alpha_eq(result, target) and (depth > 0 or not args):
            heads.append((Var(name), args))

    options: list[str] = []
    if heads:
        options.append("head")
    if isinstance(target, Pi) and depth > 0:
        options.append("lam")
    if depth > 1:
        options.append("redex")
    if not options:
        # dead end: fall back to an η-style lambda chain down to a base head
        if isinstance(target, Pi):
            options = ["lam"]
        else:  # pragma: no cover - the test signatures always inhabit o and ι
            raise AssertionError(f"uninhabited target in generator: {target}")

    choice = draw(st.sampled_from(sorted(options)))
    if choice == "lam":
        name = f"v{fresh}"
        body = _gen(draw, sig, target.codomain, ctx + ((name, target.domain),),
                    depth - 1, fresh + 1, bases)
        return Lam(name, target.domain, body)
    if choice == "redex":
        dom = draw(st.sampled_from(list(bases)))
        name = f"v{fresh}"
        body = _gen(draw, sig, target, ctx + ((name, dom),), depth - 1, fresh + 1, bases)
        argument = _gen(draw, sig, dom, ctx, depth - 1, fresh + 1, bases)
        return App(Lam(name, dom, body), argument)
    head, arg_types = draw(st.sampled_from(heads))
    args = [_gen(draw, sig, a, ctx, depth - 1, fresh, bases) for a in arg_types]
    return app(head, *args)


# --- random untyped terms ---------------------------------------------------

_names = st.sampled_from(["x", "y", "z", "w"])
_consts = st.sampled_from(["c", "f", "g"])


def untyped_terms(max_depth: int = 5):
    return st.recursive(
        st.one_of(_names.map(Var), _consts.map(Const)),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: App(*p)),
            st.tuples(_names, sub).map(lambda p: Lam(p[0], None, p[1])),
            st.tuples(_names, sub, sub).map(lambda p: Pi(p[0], p[1], p[2])),
        ),
        max_leaves=max_depth * 3,
    )


# --- exhaustive abstract syntax trees ----------------------------------------

def enumerate_asts(grammar, category: str, depth: int) -> list[Term]:
    """Every tree of the category whose height is at most `depth`."""
    import itertools

    if depth <= 0:
        return []
    out: list[Term] = []
    for f in grammar.funs:
        if f.result != category:
            continue
        pools = [enumerate_asts(grammar, a, depth - 1) for a in f.args]
        for combo in itertools.product(*pools):
            out.append(app(Const(f.name), *combo))
    return out


# --- a tiny propositional logic with a truth-table oracle ---------------------

PROP_ATOMS = tuple(f"p{i}" for i in range(1, 9))

PROP_THEORY = """
theory TinyProp =
  prop : type # o ;
  and : o -> o -> o # %1 ∧ %2 prec 10 ;
  or : o -> o -> o # %1 ∨ %2 prec 9 ;
  impl : o -> o -> o # %1 ⇒ %2 prec 8 ;
  neg : o -> o # ¬ %1 prec 20 ;
  both : o -> o -> o = [a : o, b : o] a ∧ b ;
""" + "\n".join(f"  {a} : o ;" for a in PROP_ATOMS) + """
end
"""


def prop_signature():
    """The eight-atom propositional signature the oracle tests run over."""
    from glf.modsys import TheoryGraph, parse_theory_file
    from glf.tableau import LogicSignature

    g = TheoryGraph()
    parse_theory_file(g, PROP_THEORY)
    return LogicSignature(
        g.flatten("TinyProp"),
        {"and": "and", "or": "or", "neg": "neg", "impl": "impl"},
    )


def evaluate(t: Term, assignment: dict) -> bool:
    """Classical truth-table semantics; shares nothing with the tableau."""
    head, args = spine(t)
    assert isinstance(head, Const)
    if head.name == "and" and len(args) == 2:
        return evaluate(args[0], assignment) and evaluate(args[1], assignment)
    if head.name == "or" and len(args) == 2:
        return evaluate(args[0], assignment) or evaluate(args[1], assignment)
    if head.name == "impl" and len(args) == 2:
        return (not evaluate(args[0], assignment)) or evaluate(args[1], assignment)
    if head.name == "neg" and len(args) == 1:
        return not evaluate(args[0], assignment)
    assert not args, f"unexpected compound atom {t}"
    return assignment[head.name]


def atoms_in(t: Term) -> set:
    head, args = spine(t)
    assert isinstance(head, Const)
    if head.name in ("and", "or", "impl", "neg"):
        return set().union(*(atoms_in(a) for a in args))
    return {head.name}


def assignments(names):
    import itertools

    ordered = sorted(names)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, bits))


def satisfiable(t: Term) -> bool:
    return any(evaluate(t, a) for a in assignments(atoms_in(t)))


def random_formula(rng, depth: int) -> Term:
    """A connective tree over the eight atoms, at most `depth` levels deep."""
    if depth == 0 or rng.random() < 0.3:
        return Const(rng.choice(PROP_ATOMS))
    shape = rng.choice(("and", "or", "impl", "neg"))
    if shape == "neg":
        return app(Const("neg"), random_formula(rng, depth - 1))
    return app(
        Const(shape),
        random_formula(rng, depth - 1),
        random_formula(rng, depth - 1),
    )


# --- the reference chart parser ------------------------------------------------
#
# The Earley parser as it stood before it ran on the CFG's integer tables,
# kept as an oracle for `glf.grammar.earley`. `_reference_run`,
# `_reference_nullable` and `reference_parse_tokens` are that code verbatim,
# except that the productions by left-hand side and the start symbols, which
# the CFG no longer provides as `NT` lists, are computed here.

def _reference_match(terminal: str, word: str, pos: int) -> bool:
    return terminal == word or (pos == 0 and terminal.lower() == word.lower())


def _reference_expansions(cfg) -> dict:
    by_lhs: dict = {}
    for p in cfg.productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    return by_lhs


def _reference_start_symbols(cfg) -> list:
    return [nt for nt in _reference_expansions(cfg) if nt.cat == cfg.start]


def _reference_nullable(cfg) -> frozenset:
    nullable: set = set()
    changed = True
    while changed:
        changed = False
        for p in cfg.productions:
            if p.lhs in nullable:
                continue
            if all(not isinstance(it, str) and it[0] in nullable for it in p.rhs):
                nullable.add(p.lhs)
                changed = True
    return frozenset(nullable)


def _reference_run(cfg, tokens: list[str]) -> dict:
    """Return completed spans: (nonterminal, start) -> sorted end positions."""
    n = len(tokens)
    nullable = _reference_nullable(cfg)
    prods = cfg.productions
    by_lhs: dict = {}
    for idx, p in enumerate(prods):
        by_lhs.setdefault(p.lhs, []).append(idx)

    charts: list[dict[tuple[int, int, int], None]] = [{} for _ in range(n + 1)]
    completed: dict = {}

    def add(pos: int, item: tuple[int, int, int]) -> bool:
        if item in charts[pos]:
            return False
        charts[pos][item] = None
        return True

    for s in _reference_start_symbols(cfg):
        for idx in by_lhs.get(s, []):
            add(0, (idx, 0, 0))

    for pos in range(n + 1):
        work = list(charts[pos])
        k = 0
        while k < len(work):
            idx, dot, origin = work[k]
            k += 1
            p = prods[idx]
            if dot < len(p.rhs):
                it = p.rhs[dot]
                if isinstance(it, str):
                    if pos < n and _reference_match(it, tokens[pos], pos):
                        add(pos + 1, (idx, dot + 1, origin))
                    continue
                child = it[0]
                for cidx in by_lhs.get(child, []):
                    if add(pos, (cidx, 0, pos)):
                        work.append((cidx, 0, pos))
                if child in nullable and add(pos, (idx, dot + 1, origin)):
                    work.append((idx, dot + 1, origin))
            else:
                ends = completed.setdefault((p.lhs, origin), [])
                if pos not in ends:
                    ends.append(pos)
                # origin < pos leaves charts[origin] frozen; origin == pos is
                # covered by the nullable pre-advance above.
                for i2, d2, o2 in list(charts[origin]):
                    p2 = prods[i2]
                    if d2 < len(p2.rhs):
                        it2 = p2.rhs[d2]
                        if not isinstance(it2, str) and it2[0] == p.lhs:
                            if add(pos, (i2, d2 + 1, o2)):
                                work.append((i2, d2 + 1, o2))

    for ends in completed.values():
        ends.sort()
    return completed


def reference_recognize(cfg, tokens: list[str]) -> bool:
    completed = _reference_run(cfg, tokens)
    n = len(tokens)
    return any(n in completed.get((s, 0), ()) for s in _reference_start_symbols(cfg))


def reference_parse_tokens(cfg, tokens: list[str]) -> list[Term]:
    """All abstract syntax trees deriving `tokens`, deduplicated, in grammar order."""
    completed = _reference_run(cfg, tokens)
    n = len(tokens)
    expansions = _reference_expansions(cfg)
    memo: dict = {}

    def parses(nt, i: int, j: int) -> list[Term]:
        key = (nt, i, j)
        if key in memo:
            cached = memo[key]
            return [] if cached is None else cached  # None marks a cycle
        memo[key] = None
        found: list[Term] = []
        for p in expansions.get(nt, []):
            for bound in splits(p, 0, i, j):
                args: list[Term | None] = [None] * p.arity
                for argi, sub in bound:
                    args[argi] = sub
                t: Term = Const(p.fun)
                for a in args:
                    t = App(t, a)
                found.append(t)
        result = list(dict.fromkeys(found))
        memo[key] = result
        return result

    def splits(p, m: int, x: int, j: int):
        """Bind p.rhs[m:] to tokens[x:j]; yield ((arg index, tree), ...)."""
        if m == len(p.rhs):
            if x == j:
                yield ()
            return
        it = p.rhs[m]
        if isinstance(it, str):
            if x < j and _reference_match(it, tokens[x], x):
                yield from splits(p, m + 1, x + 1, j)
            return
        child, argi = it
        for y in completed.get((child, x), ()):
            if y > j:
                break
            subs = parses(child, x, y)
            if not subs:
                continue
            tails = list(splits(p, m + 1, y, j))
            for sub in subs:
                for tail in tails:
                    yield ((argi, sub),) + tail

    results: list[Term] = []
    for s in _reference_start_symbols(cfg):
        if n in completed.get((s, 0), ()):
            results.extend(parses(s, 0, n))
    return list(dict.fromkeys(results))
