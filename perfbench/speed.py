"""How fast this host runs Python at the moment, from a fixed reference computation.

On a shared host the same operation can take twice as long from one
stretch of seconds or minutes to the next, as neighbours come and go. Every
time the benchmark reports is scaled by the time of `probe()`, measured
next to it: `scaled = measured * REFERENCE_S / probe time`. The probe is a
small λ-calculus normalizer over frozen dataclasses, the same kind of work
as glf's (allocation, recursion, attribute access), and it never changes
with glf, so a change to glf moves the scaled figures and a change of host
speed does not.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

#: Scaled times read as seconds on a host where one probe takes this long;
#: about what a probe takes on the 2-core box the README's figures are from.
REFERENCE_S = 0.005


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _App:
    fn: object
    arg: object


@dataclass(frozen=True)
class _Lam:
    binder: str
    body: object


def _subst(t, x: str, s):
    if isinstance(t, _Var):
        return s if t.name == x else t
    if isinstance(t, _App):
        return _App(_subst(t.fn, x, s), _subst(t.arg, x, s))
    return t if t.binder == x else _Lam(t.binder, _subst(t.body, x, s))


def _normalize(t):
    if isinstance(t, _App):
        fn = _normalize(t.fn)
        if isinstance(fn, _Lam):
            return _normalize(_subst(fn.body, fn.binder, t.arg))
        return _App(fn, _normalize(t.arg))
    if isinstance(t, _Lam):
        return _Lam(t.binder, _normalize(t.body))
    return t


def _church(n: int):
    body = _Var("z")
    for _ in range(n):
        body = _App(_Var("s"), body)
    return _Lam("s", _Lam("z", body))


_PLUS = _Lam("m", _Lam("n", _Lam("s", _Lam("z", _App(
    _App(_Var("m"), _Var("s")), _App(_App(_Var("n"), _Var("s")), _Var("z")))))))


def probe() -> int:
    """Nanoseconds for a fixed amount of work: 60 + 60 in Church numerals, six times."""
    t0 = time.perf_counter_ns()
    for k in range(6):
        _normalize(_App(_App(_PLUS, _church(60 + k)), _church(60)))
    return time.perf_counter_ns() - t0


class Speedometer:
    """Probes taken over a run; scales a time by the probes around it."""

    def __init__(self):
        self.at: list[int] = []  # when each probe ended, ns
        self.took: list[int] = []  # how long it took, ns

    def probe(self) -> None:
        took = probe()
        self.at.append(time.perf_counter_ns())
        self.took.append(took)

    def scale(self, ns: float, start: int) -> float:
        """Scaled seconds for `ns` measured from `start`: by the mean of the
        last probe before and the first probe after it."""
        k = bisect.bisect_right(self.at, start)
        around = self.took[max(k - 1, 0):k + 1]
        return ns * REFERENCE_S / (sum(around) / len(around))
