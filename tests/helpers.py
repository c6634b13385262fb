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
