"""Run-scoped memo for the exact computations of one verification run.

The weak-epimorphism certificate and the self-smallness witness come from
one chain of exact computations over one tower: Smith forms, normal forms,
transition maps, stabilized homs, truncated limits and their shifts.  While
a :func:`memo_scope` is open, :func:`run_memo` computes each of these once
and hands the stored result to every later caller, so the conditions and
the lemmas share every derived object of the run.  Outside a scope nothing
is kept.

Keys are ``(fn, args)``: matrices are keyed by content (ring, shape and
entries), towers and limits by identity.  The memo holds its keys alive
until the scope closes, so an identity key never outlives its object.
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
    """``fn(*args)``, stored under ``(fn, args)`` while a scope is open.

    A call that raises stores nothing.
    """
    memo = _memo
    if memo is None:
        return fn(*args)
    key = (fn, args)
    result = memo.get(key, _MISSING)
    if result is _MISSING:
        result = memo[key] = fn(*args)
    return result
