"""Primitive types and algebra for linear orders, partial orders and permutations.

Outcomes are 0-based indices ``0..N-1``.  A :class:`LinearOrder` stores its
ranking best-first, so ``ranking[0]`` is the top outcome.  The text form used
in all config and output files is a ``'>'``-separated index list, e.g.
``"2>0>1"``.  Orderings are interned: a ranking is checked, inverted into
positions and hashed once per process, and the one :class:`LinearOrder` built
for it is held in a bounded cache that fits every ordering of N <= 7, so
building an ordering seen before costs one cached lookup.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from .errors import InvalidArgumentError

__all__ = [
    "LinearOrder",
    "PartialOrder",
    "Permutation",
    "Profile",
    "apply_permutation",
    "apply_local_permutation",
    "concordant_pairs",
    "exact_match_score",
]


_INTERNED = 8192  # holds every ordering of N <= 7 (5,040 of them)


def _new(*ranking) -> "LinearOrder":
    """The :class:`LinearOrder` for ``ranking``, on a miss of the cache.  A ranking of Python ints is
    checked to be a permutation of ``0..n-1`` and built, its positions and hash worked out once; any
    other is read by ``operator.index`` (so no float or text passes) and looked up as its ints."""
    if not all(type(c) is int for c in ranking):
        try:
            ints = tuple(map(operator.index, ranking))
        except TypeError:
            raise InvalidArgumentError(f"ranking {ranking!r} holds an outcome that is not an integer") from None
        return _interned(*ints)
    n = len(ranking)
    if n < 1:
        raise InvalidArgumentError("a linear order needs at least one outcome")
    position = [-1] * n  # position[c] is the k with ranking[k] == c
    try:
        for k, c in enumerate(ranking):
            position[c] = k
        ok = min(ranking) >= 0 and -1 not in position  # n outcomes in range fill the n places
    except IndexError:  # an outcome above n - 1
        ok = False
    if not ok:
        raise InvalidArgumentError(f"ranking {ranking} is not a permutation of 0..{n - 1}")
    order = object.__new__(LinearOrder)
    object.__setattr__(order, "ranking", ranking)
    object.__setattr__(order, "position", tuple(position))
    object.__setattr__(order, "_hash", hash((ranking,)))  # the hash a dataclass would compute
    return order


# outcomes -> their one LinearOrder, keyed by type too (as 1.0 == 1); no exception is cached
_interned = lru_cache(maxsize=_INTERNED, typed=True)(_new)


@dataclass(frozen=True, slots=True, init=False)
class LinearOrder:
    """A strict total order over ``n`` outcomes, best first.

    ``LinearOrder(ranking)`` takes any sequence of ints and returns the instance held for
    that ranking, so building an ordering seen before costs one lookup.  Equality and hash
    are by ranking: an ordering evicted from the bounded cache and built again is a new
    instance, equal to the old one.
    """

    ranking: tuple[int, ...]
    # position[c] is the rank of outcome c (0 = best)
    position: tuple[int, ...] = field(repr=False, compare=False)
    # hash((ranking,)), the hash the dataclass would compute on every lookup, kept once
    _hash: int = field(repr=False, compare=False)

    def __new__(cls, ranking):
        return _interned(*ranking)

    def __reduce__(self):  # copies and pickles are rebuilt through the cache
        return LinearOrder, (self.ranking,)

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.ranking)

    def prefers(self, a: int, b: int) -> bool:
        """True iff outcome ``a`` is ranked above outcome ``b``."""
        return self.position[a] < self.position[b]

    def __str__(self) -> str:
        return ">".join(str(c) for c in self.ranking)

    @classmethod
    def from_string(cls, text: str) -> "LinearOrder":
        try:
            ranking = tuple(int(part) for part in text.split(">"))
        except ValueError as exc:
            raise InvalidArgumentError(f"cannot parse linear order {text!r}") from exc
        return cls(ranking)


@dataclass(frozen=True)
class PartialOrder:
    """An ordered sequence of distinct outcomes (best first) inside ``0..n-1``."""

    subset: tuple[int, ...]
    n: int

    def __post_init__(self):
        subset = tuple(int(c) for c in self.subset)
        object.__setattr__(self, "subset", subset)
        if len(set(subset)) != len(subset):
            raise InvalidArgumentError(f"outcomes {subset} are not distinct")
        if any(c < 0 or c >= self.n for c in subset):
            raise InvalidArgumentError(f"outcomes {subset} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.subset)

    def __str__(self) -> str:
        return ">".join(str(c) for c in self.subset)


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``0..n-1``."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(c) for c in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(n)):
            raise InvalidArgumentError(f"mapping {mapping} is not a permutation")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if a == b:
            raise InvalidArgumentError("transposition needs two distinct outcomes")
        mapping = list(range(n))
        mapping[a], mapping[b] = b, a
        return cls(tuple(mapping))


class Profile:
    """An immutable mapping from issue ids to linear orders."""

    __slots__ = ("_assignment", "_key", "_hash")

    def __init__(self, assignment: Mapping[object, LinearOrder]):
        items = tuple(sorted(assignment.items(), key=lambda kv: str(kv[0])))
        for issue, order in items:
            if not isinstance(order, LinearOrder):
                raise InvalidArgumentError(
                    f"issue {issue!r} maps to {order!r}, not a LinearOrder"
                )
        self._assignment = dict(items)
        self._key = tuple((str(issue), order.ranking) for issue, order in items)
        self._hash = hash(self._key)

    def __call__(self, issue) -> LinearOrder:
        try:
            return self._assignment[issue]
        except KeyError:
            raise InvalidArgumentError(f"profile has no issue {issue!r}") from None

    @property
    def issues(self):
        return self._assignment.keys()

    def items(self):
        return self._assignment.items()

    def with_issue(self, issue, order: LinearOrder) -> "Profile":
        if issue not in self._assignment:
            raise InvalidArgumentError(f"profile has no issue {issue!r}")
        updated = dict(self._assignment)
        updated[issue] = order
        return Profile(updated)

    def serialize(self) -> str:
        """Canonical text form: ``issue:order`` pairs joined by ``;``, in the sorted-issue order ``__init__`` keeps."""
        return ";".join(f"{issue}:{order}" for issue, order in self._assignment.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Profile) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Profile({self.serialize()!r})"


def apply_permutation(o: LinearOrder, sigma: Permutation) -> LinearOrder:
    """Relabel the outcomes of ``o`` through ``sigma``.

    In the result, ``a`` beats ``b`` iff ``sigma^-1(a)`` beats ``sigma^-1(b)``
    in ``o``; concretely the k-th ranked outcome becomes ``sigma(o.ranking[k])``.
    """
    if sigma.n != o.n:
        raise InvalidArgumentError(
            f"permutation over {sigma.n} outcomes applied to order over {o.n}"
        )
    return LinearOrder(tuple(sigma(c) for c in o.ranking))


def apply_local_permutation(profile: Profile, issue, sigma: Permutation) -> Profile:
    """Apply ``sigma`` to the order on one issue, leaving all other issues alone."""
    return profile.with_issue(issue, apply_permutation(profile(issue), sigma))


def concordant_pairs(o: LinearOrder, other: LinearOrder) -> int:
    """Number of outcome pairs that both orders rank the same way."""
    if o.n != other.n:
        raise InvalidArgumentError(f"order sizes differ: {o.n} vs {other.n}")
    ranks = [o.position[c] for c in other.ranking]
    n = len(ranks)
    return sum(ranks[x] < ranks[y] for x in range(n) for y in range(x + 1, n))


def exact_match_score(o: LinearOrder, other: LinearOrder) -> float:
    """Indicator of order equality."""
    if o.n != other.n:
        raise InvalidArgumentError(f"order sizes differ: {o.n} vs {other.n}")
    return 1.0 if o.ranking == other.ranking else 0.0
