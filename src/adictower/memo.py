"""Run-scoped memo for the exact computations of one verification run.

The weak-epimorphism certificate and the self-smallness witness come from
one chain of exact computations over one tower: Smith forms, normal forms
and the standard modules and 1x1 unit transforms they share, hom and
tensor modules, the maps induced on hom modules, the answers of the
morphism predicates (well defined, injective, surjective), transition
maps, composite inclusions, stabilized homs, truncated limits and the
multiplication maps of a limit, one per top component.  While a
:func:`memo_scope` is open, :func:`run_memo` computes each of these once
and hands the stored result to every later caller, so the conditions and
the lemmas share every derived object of the run.  Outside a scope
nothing is kept.

Keys are ``(fn, *args)``, and the rule is the arguments' own equality:
matrices and modules compare by content (a module is its relations
matrix), and so do the maps between modules, so a stored result serves
every caller with equal arguments.  Towers and limits compare by
identity.  A chain of composite inclusions or of truncated limits is
one stored list, under the chain's step, the tower and its bottom level;
each entry is built once, by one step from the entry a level shorter, and
appended, and a step that raises leaves the entries before it stored.
The memo holds its keys alive until the scope closes, so an
identity key never outlives its object.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, TypeVar

T = TypeVar("T")

_memo: Optional[Dict[tuple, object]] = None
_MISSING = object()


@contextmanager
def memo_scope() -> Iterator[None]:
    """Memoise :func:`run_memo` results until the scope closes.

    A nested scope shares the outer one's memo; the outermost scope drops
    the memo on exit, also when the body raises.
    """
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def run_memo(fn: Callable[..., T], *args) -> T:
    """``fn(*args)``, stored under ``(fn, *args)`` while a scope is open.

    A call that raises stores nothing.  The key is one flat tuple, which
    takes less memory than ``fn`` paired with the argument tuple.
    """
    memo = _memo
    if memo is None:
        return fn(*args)
    key = (fn, *args)
    result = memo.get(key, _MISSING)
    if result is _MISSING:
        result = memo[key] = fn(*args)
    return result
