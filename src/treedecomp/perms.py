"""Small permutation helpers used throughout the package.

A permutation of Z_n is a tuple p of length n with p[i] = image of i.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .errors import InvalidPermutation


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def check_perm(p: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """Return p as a tuple, raising InvalidPermutation if it is not a bijection."""
    p = tuple(p)
    if n is not None and len(p) != n:
        raise InvalidPermutation(f"expected a permutation of length {n}, got {len(p)}")
    if not is_perm(p):
        raise InvalidPermutation(f"not a bijection of Z_{len(p)}: {list(p)}")
    return p


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """(p . q)(i) = p(q(i))."""
    if len(q) < 2:  # itemgetter returns a bare item for one index, fails on none
        return tuple([p[i] for i in q])
    return itemgetter(*q)(p)


def inverse(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def transposition(i: int, j: int, n: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)
