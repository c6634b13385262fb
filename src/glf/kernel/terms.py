"""Term representation for the logical framework.

Terms are immutable trees, interned as they are built: calling `Const`,
`Var`, `App`, `Lam`, `Pi` or `Sort` returns the one live node with those
fields, so ``==`` and ``hash`` are plain identity, and identity is
structural equality. Build terms from one thread at a time.

The only term equality used anywhere in the framework is α-equivalence.
The one α-algorithm is `alpha_normal`, which names the binder at depth d
``$d``, primed while that is a free variable of the term; `alpha_eq`
compares α-normal forms. Every capture-avoiding rename goes through
`rename_away`, which primes a binder until it is fresh.

Each node caches its free variables in one extra slot, `None` until
`free_vars` first meets the node. Terms are shared, so substitution pays for
a subterm's free variables once rather than on every β-step. A second slot
holds the node's α-normal form, filled the first time `alpha_normal` is
asked for it, so a term α-normalized again (a reading deduplicated, then
asserted; an atom keyed on every tableau step) is a lookup. When the
α-normal form is the node itself the slot holds a marker, not the node, so
no node refers to itself and the cyclic collector is never needed to free
one. Neither cache is a field: not an argument, a match pattern, or part
of ``repr``, ``==`` or ``hash``. A term with no `Lam` or `Pi` has no
binder to rename, so it is its own α-normal form: `alpha_normal` finds
that out by a scan that looks at each shared node once and stops at the
first binder, and walks only a term that has one.

Every substitution is one walk, `substitute_all`, which substitutes
several variables at once and renames a binder only where a value's free
variable would be captured; `substitute` is its one-variable case. It
recurses through itself as a module function, as every walk does.

The non-dependent arrow ``A -> B`` is not a separate constructor: it is a
`Pi` whose binder, ``_`` primed until fresh, does not occur free in the
codomain (see `arrow`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Union


class _Node:
    """Base of the term classes.

    Copies and pickles rebuild a node through its constructor, so they
    return the interned node and never copy a cache slot.
    """

    # The caches hold None until `free_vars` and `alpha_normal` fill them.
    __slots__ = ("_free_vars", "_alpha_normal", "__weakref__")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the referent's key in its class's table


# Looked up for a key with no entry: calling it gives None, like a dead ref.
_MISSING = weakref.ref(set())


def _interned(cls):
    """Make `cls` a frozen, slotted dataclass compared by identity, whose
    constructor returns the live node with the given fields, or makes one.

    One constructor per field count, as this is the hot path. A dead node's
    callback can run after a new node has taken its key, so it checks.
    """
    cls = dataclass(frozen=True, slots=True, eq=False, init=False)(cls)
    table: dict[object, _Ref] = {}
    new = object.__new__
    set_fv, set_an = _Node._free_vars.__set__, _Node._alpha_normal.__set__

    def forget(ref: _Ref) -> None:
        if table.get(ref.key) is ref:
            del table[ref.key]

    setters = [getattr(cls, name).__set__ for name in cls.__match_args__]
    if len(setters) == 1:
        (set_a,) = setters

        def __new__(cls, a):
            node = table.get(a, _MISSING)()
            if node is None:
                node = new(cls)
                set_fv(node, None)
                set_an(node, None)
                set_a(node, a)
                ref = table[a] = _Ref(node, forget)
                ref.key = a
            return node
    elif len(setters) == 2:
        set_a, set_b = setters

        def __new__(cls, a, b):
            key = (a, b)
            node = table.get(key, _MISSING)()
            if node is None:
                node = new(cls)
                set_fv(node, None)
                set_an(node, None)
                set_a(node, a)
                set_b(node, b)
                ref = table[key] = _Ref(node, forget)
                ref.key = key
            return node
    else:
        set_a, set_b, set_c = setters

        def __new__(cls, a, b, c):
            key = (a, b, c)
            node = table.get(key, _MISSING)()
            if node is None:
                node = new(cls)
                set_fv(node, None)
                set_an(node, None)
                set_a(node, a)
                set_b(node, b)
                set_c(node, c)
                ref = table[key] = _Ref(node, forget)
                ref.key = key
            return node

    __new__.__qualname__ = f"{cls.__name__}.__new__"
    cls.__new__ = __new__
    return cls


@_interned
class Const(_Node):
    """A reference to a declared constant, by (possibly qualified) name."""

    name: str


@_interned
class Var(_Node):
    name: str


@_interned
class App(_Node):
    fn: "Term"
    arg: "Term"


@_interned
class Lam(_Node):
    binder: str
    binder_type: Union["Term", None]
    body: "Term"


@_interned
class Pi(_Node):
    binder: str
    domain: "Term"
    codomain: "Term"


@_interned
class Sort(_Node):
    """The sort `type`, plus the internal classifier `kind` sitting above it."""

    name: str


Term = Union[Const, Var, App, Lam, Pi, Sort]

TYPE = Sort("type")
KIND = Sort("kind")


def app(fn: Term, *args: Term) -> Term:
    """Left-nested application `fn a1 ... an`."""
    for a in args:
        fn = App(fn, a)
    return fn


def lam(binders: Iterable[str | tuple[str, Term]], body: Term) -> Term:
    """Nested lambdas; each binder is a name or a (name, type) pair."""
    bs = list(binders)
    for b in reversed(bs):
        if isinstance(b, tuple):
            body = Lam(b[0], b[1], body)
        else:
            body = Lam(b, None, body)
    return body


def arrow(*types: Term) -> Term:
    """Right-nested non-dependent function type `A1 -> ... -> An -> B`."""
    if not types:
        raise ValueError("arrow needs at least one type")
    result = types[-1]
    for dom in reversed(types[:-1]):
        result = Pi(fresh_name("_", free_vars(result)), dom, result)
    return result


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split `h a1 ... an` into (h, [a1, ..., an])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def pi_spine(t: Term | None) -> tuple[list[Term], Term | None]:
    """Split `Πx1:A1. ... Πxn:An. B`, B not a `Pi`, into ([A1, ..., An], B);
    `t` may be None, a declaration's missing type, which has no domains."""
    domains: list[Term] = []
    while isinstance(t, Pi):
        domains.append(t.domain)
        t = t.codomain
    return domains, t


_NO_VARS: frozenset[str] = frozenset()


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """``a | b``, reusing an operand that already holds the union."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _bound(fv: frozenset[str], binder: str) -> frozenset[str]:
    """`fv` less the variable a binder captures."""
    if binder not in fv:
        return fv
    return (fv - {binder}) or _NO_VARS


def free_vars(t: Term) -> frozenset[str]:
    """The variables occurring free in `t`, computed once per node.

    Nodes share their sets where they can, so caching costs little memory.
    """
    try:
        fv = t._free_vars
        if fv is not None:
            return fv
    except AttributeError:
        raise TypeError(f"not a term: {t!r}") from None
    cls = t.__class__
    if cls is App:
        fv = _union(free_vars(t.fn), free_vars(t.arg))
    elif cls is Var:
        fv = frozenset((t.name,))
    elif cls is Const or cls is Sort:
        fv = _NO_VARS
    elif cls is Lam:
        fv = _bound(free_vars(t.body), t.binder)
        if t.binder_type is not None:
            fv = _union(free_vars(t.binder_type), fv)
    elif cls is Pi:
        fv = _union(free_vars(t.domain), _bound(free_vars(t.codomain), t.binder))
    else:
        raise TypeError(f"not a term: {t!r}")
    object.__setattr__(t, "_free_vars", fv)
    return fv


def constants(t: Term) -> frozenset[str]:
    """All constant names occurring anywhere in `t` (including binder types)."""
    match t:
        case Const(name):
            return frozenset((name,))
        case Var() | Sort():
            return frozenset()
        case App(fn, arg):
            return constants(fn) | constants(arg)
        case Lam(_, binder_type, body):
            cs = constants(body)
            if binder_type is not None:
                cs |= constants(binder_type)
            return cs
        case Pi(_, domain, codomain):
            return constants(domain) | constants(codomain)
    raise TypeError(f"not a term: {t!r}")


def fresh_name(base: str, avoid: AbstractSet[str]) -> str:
    """The first of base', base'', ... not in `avoid`."""
    name = base
    while name in avoid:
        name += "'"
    return name


def rename_away(binder: str, body: Term, avoid: AbstractSet[str]) -> tuple[str, Term]:
    """`binder` and its `body`, with the binder primed until it is fresh.

    Nothing changes unless `binder` is in `avoid`; otherwise the new name
    avoids `avoid` and the free variables of `body`.
    """
    if binder not in avoid:
        return binder, body
    renamed = fresh_name(binder, avoid | free_vars(body))
    return renamed, substitute(body, binder, Var(renamed))


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution of `s` for free occurrences of `x`."""
    if x not in free_vars(t):
        return t
    return substitute_all(t, {x: s}, free_vars(s))


def substitute_all(t: Term, values: dict[str, Term], avoid: AbstractSet[str]) -> Term:
    """Substitute `values[x]` for the free occurrences of every `x` at once.

    `avoid` holds the free variables of the values. A binder in `avoid` is
    renamed away when its body has a free variable being substituted, so
    no value's variable is captured; a binder shadows only its own name.
    When the values are closed, nothing is renamed and the result is the
    node that substituting them one after another gives. An application's
    child that has none of the variables is kept without a call.
    """
    fv = t._free_vars
    if fv is None:
        fv = free_vars(t)
    if fv.isdisjoint(values):
        return t
    cls = t.__class__
    if cls is App:
        # `free_vars` filled the children's caches before this node's.
        fn, arg = t.fn, t.arg
        if not fn._free_vars.isdisjoint(values):
            fn = substitute_all(fn, values, avoid)
        if not arg._free_vars.isdisjoint(values):
            arg = substitute_all(arg, values, avoid)
        return App(fn, arg)
    if cls is Var:
        return values[t.name]
    if cls is Lam:
        binder, binder_type, body = t.binder, t.binder_type, t.body
        if binder_type is not None:
            binder_type = substitute_all(binder_type, values, avoid)
    else:  # a Pi, whose domain is its binder's type
        binder, binder_type, body = t.binder, substitute_all(t.domain, values, avoid), t.codomain
    if binder in values:
        values = {x: s for x, s in values.items() if x != binder}
    if binder in avoid and not free_vars(body).isdisjoint(values):
        binder, body = rename_away(binder, body, avoid)
    return cls(binder, binder_type, substitute_all(body, values, avoid))


def alpha_eq(t: Term, u: Term) -> bool:
    """True iff `t` and `u` are identical up to renaming of bound variables."""
    return t == u or alpha_normal(t) == alpha_normal(u)


# In a node's `_alpha_normal` slot: the node is its own α-normal form.
_ITSELF = object()


def alpha_normal(t: Term) -> Term:
    """Canonical α-representative: the binder at depth d named $d, primed
    while that is free in `t`. Structural equality and hashing of α-normal
    terms coincide with α-equivalence, so they serve as set / dict keys.

    Computed once per node: the result is cached on `t`, and marked on
    itself as α-normal, so asking again, of `t` or of the result, is a
    lookup that returns the same node."""
    normal = t._alpha_normal
    if normal is not None:
        return t if normal is _ITSELF else normal
    if _binder_free(t):
        object.__setattr__(t, "_alpha_normal", _ITSELF)
        return t
    free: list[str] = []  # the free variable occurrences met
    normal = _alpha(t, {}, 0, _NO_VARS, free)
    # Only a free name starting with "$" can clash with a binder's.
    # Checking the free occurrences met on the way spares a free-variable
    # pass over every (usually closed) term.
    if free and any(name.startswith("$") for name in free):
        normal = _alpha(t, {}, 0, frozenset(free), [])
    # α-normal forms are their own: the free variables, and so the names
    # the binders avoid, are the same.
    if normal is t:
        object.__setattr__(t, "_alpha_normal", _ITSELF)
    else:
        object.__setattr__(t, "_alpha_normal", normal)
        object.__setattr__(normal, "_alpha_normal", _ITSELF)
    return normal


def _binder_free(t: Term) -> bool:
    """Whether no `Lam` or `Pi` occurs in `t`, which is then its own
    α-normal form; a scan that looks at each shared node once and stops at
    the first binder."""
    seen: set[Term] = set()
    todo = [t]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is App:
            if t not in seen:
                seen.add(t)
                todo.append(t.fn)
                todo.append(t.arg)
        elif cls is Lam or cls is Pi:
            return False
        elif not (cls is Var or cls is Const or cls is Sort):
            raise TypeError(f"not a term: {t!r}")
    return True


def _alpha(t: Term, env: dict[str, str], depth: int, avoid: AbstractSet[str],
           free: list[str]) -> Term:
    """`alpha_normal`'s walk: `env` maps the binders above to their new
    names, no new name is in `avoid`, and each free variable occurrence met
    is appended to `free`. An application whose parts come back unchanged
    is returned as it is, not interned again."""
    cls = t.__class__
    if cls is App:
        fn, arg = _alpha(t.fn, env, depth, avoid, free), _alpha(t.arg, env, depth, avoid, free)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if cls is Var:
        name = t.name
        if name in env:
            return Var(env[name])
        free.append(name)
        return t
    if cls is Const or cls is Sort:
        return t
    if cls is Lam:
        bt = t.binder_type
        if bt is not None:
            bt = _alpha(bt, env, depth, avoid, free)
        fresh = fresh_name(f"${depth}", avoid)
        return Lam(fresh, bt, _alpha(t.body, {**env, t.binder: fresh}, depth + 1, avoid, free))
    if cls is Pi:
        dom = _alpha(t.domain, env, depth, avoid, free)
        fresh = fresh_name(f"${depth}", avoid)
        return Pi(fresh, dom, _alpha(t.codomain, {**env, t.binder: fresh}, depth + 1, avoid, free))
    raise TypeError(f"not a term: {t!r}")


def show(t: Term) -> str:
    """Plain debug rendering (notation-unaware); error messages use this."""
    match t:
        case Const(name) | Var(name):
            return name
        case Sort(name):
            return name
        case App():
            head, args = spine(t)
            parts = [f"({show(head)})" if isinstance(head, (Lam, Pi)) else show(head)] + [
                f"({show(a)})" if isinstance(a, (App, Lam, Pi)) else show(a) for a in args
            ]
            return " ".join(parts)
        case Lam(binder, binder_type, body):
            ann = f" : {show(binder_type)}" if binder_type is not None else ""
            return f"[{binder}{ann}] {show(body)}"
        case Pi(binder, domain, codomain):
            if binder not in free_vars(codomain):
                dom = show(domain)
                if isinstance(domain, (Pi, Lam)):
                    dom = f"({dom})"
                return f"{dom} -> {show(codomain)}"
            return f"{{{binder} : {show(domain)}}} {show(codomain)}"
    raise TypeError(f"not a term: {t!r}")
