"""Candidate spaces: explicit lists, the full space, and products of factors.

A candidate space is the set of preference profiles a mechanism may output.
An explicit or product space is stored as the product of independent blocks
(an explicit space is one block); the full space has closed forms instead.
Members come in one order, inside each block and across the space: by their
rank tuples, issue by issue in sorted-id order.  So every argmax tie-break is
reproducible and the same everywhere.  A block column holds at most N! distinct
orderings, so the labs work on each one once, through integer column codes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, partial
from math import factorial, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidArgumentError
from .orders import LinearOrder, Profile
from .population import IssueSpace, expect, read_json

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "all_linear_orders",
    "CandidateSpace",
    "load_candidate_space",
    "save_candidate_space",
]

DEFAULT_ENUMERATION_CAP = 10**6


@lru_cache(maxsize=None)
def all_linear_orders(n: int) -> tuple[LinearOrder, ...]:
    """All of LO(n), in canonical (lexicographic ranking) order."""
    return tuple(
        LinearOrder(perm) for perm in sorted(itertools.permutations(range(n)))
    )


def _rank_key(profile: Profile, issues) -> tuple:
    """The rankings of ``profile`` on ``issues``, in that order: the member sort key."""
    return tuple(profile(issue).ranking for issue in issues)


def _check_profile(profile: Profile, issues, n: int) -> None:
    """Raise unless ``profile`` orders exactly ``issues``, each over ``n`` outcomes."""
    if profile.issues != issues:
        raise InvalidArgumentError("profile does not cover the issues of its space or block")
    for _, order in profile.items():
        if order.n != n:
            raise InvalidArgumentError(f"ordering {order} has wrong outcome count")


@dataclass(frozen=True)
class CandidateSpace:
    """One of Explicit(profiles), Full(LO(n)^issues), or Product(block factors).

    ``blocks`` holds ``(issues, members)`` pairs that partition the issue
    set, and the space is the Cartesian product of their members.  A
    product space lists its blocks; an explicit space is the one block over
    every issue and keeps its members as ``profiles`` too.  A full space
    stores neither.
    """

    variant: str
    issue_space: IssueSpace
    profiles: tuple[Profile, ...] | None = None
    blocks: tuple | None = None  # tuple of (issue_tuple, member_profile_tuple)

    def __post_init__(self):
        if self.variant == "full":
            if self.profiles is not None or self.blocks is not None:
                raise InvalidArgumentError("full space takes no profiles or blocks")
            return
        if self.variant == "explicit":
            given = ((self.issue_space.issue_ids, self.profiles or ()),)
        elif self.variant == "product":
            given = self.blocks or ()
        else:
            raise InvalidArgumentError(f"unknown variant {self.variant!r}")
        rank = {issue: k for k, issue in enumerate(self.issue_space.sorted_ids())}
        blocks, member_keys, seen = [], [], set()
        for issues, members in given:
            block = set(issues)
            if seen & block or not block <= self.issue_space.id_set:
                raise InvalidArgumentError("blocks must partition the issue set")
            seen |= block
            issues = tuple(sorted(block, key=rank.__getitem__))
            members = tuple(members)
            for member in members:
                _check_profile(member, block, self.issue_space.n)
            keyed = {_rank_key(member, issues): member for member in members}
            if not keyed:
                raise InvalidArgumentError(f"block {issues} needs at least one member")
            if len(keyed) != len(members):
                raise InvalidArgumentError(f"members of block {issues} must be distinct")
            blocks.append((issues, tuple(keyed[key] for key in sorted(keyed))))
            member_keys.append(frozenset(keyed))
        if seen != self.issue_space.id_set:
            raise InvalidArgumentError("blocks must partition the issue set")
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "_member_keys", tuple(member_keys))  # for contains
        if self.variant == "explicit":
            object.__setattr__(self, "profiles", blocks[0][1])

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, profiles: Sequence[Profile], issue_space: IssueSpace) -> "CandidateSpace":
        return cls("explicit", issue_space, profiles=tuple(profiles))

    @classmethod
    def full(cls, issue_space: IssueSpace) -> "CandidateSpace":
        return cls("full", issue_space)

    @classmethod
    def product(cls, blocks, issue_space: IssueSpace) -> "CandidateSpace":
        return cls("product", issue_space, blocks=tuple(blocks))

    # -- basic queries ------------------------------------------------------

    def size(self) -> int:
        if self.variant == "full":
            return factorial(self.issue_space.n) ** len(self.issue_space.issue_ids)
        return prod(len(members) for _, members in self.blocks)

    def contains(self, profile: Profile) -> bool:
        _check_profile(profile, self.issue_space.id_set, self.issue_space.n)
        return self.variant == "full" or all(
            _rank_key(profile, issues) in keys
            for (issues, _), keys in zip(self.blocks, self._member_keys)
        )

    def rows(self) -> Iterator[tuple]:
        """Yield the space as independent blocks ``(issues, rows)``.

        ``issues`` are in sorted-id order, a row holds one member's orders on
        them, and the rows come in member order.  A full space yields each issue alone with all of
        ``all_linear_orders(n)``.  A block of more than
        ``DEFAULT_ENUMERATION_CAP`` members raises ``CapacityError`` before
        any block is yielded.
        """
        n = self.issue_space.n
        full = self.variant == "full"
        largest = factorial(n) if full else max(len(members) for _, members in self.blocks)
        if largest > DEFAULT_ENUMERATION_CAP:
            raise CapacityError(
                f"candidate-space block has {largest} members, over the cap of "
                f"{DEFAULT_ENUMERATION_CAP}",
                cap=DEFAULT_ENUMERATION_CAP,
            )
        if full:
            orders = all_linear_orders(n)
            for issue in self.issue_space.sorted_ids():
                yield (issue,), zip(orders)
            return
        for issues, members in self.blocks:
            yield issues, [tuple(member(issue) for issue in issues) for member in members]

    def _codes(self) -> tuple:
        """Each block of :meth:`rows` as ``(issues, columns, codes)``: ``columns[k]`` lists the
        distinct orders on ``issues[k]``, and member ``m`` has ``columns[k][codes[m, k]]``.

        Built on first use and kept, read-only; a block over the cap raises on every call."""
        if "_code_blocks" not in self.__dict__:
            dtype = np.min_scalar_type(min(factorial(self.issue_space.n), DEFAULT_ENUMERATION_CAP))
            blocks = []
            for issues, rows in self.rows():
                seen = [{} for _ in issues]  # per column: order -> code
                flat = (col.setdefault(o, len(col)) for row in rows for col, o in zip(seen, row))
                codes = np.fromiter(flat, dtype=dtype).reshape(-1, len(issues))
                codes.flags.writeable = False
                blocks.append((issues, [tuple(col) for col in seen], codes))
            object.__setattr__(self, "_code_blocks", tuple(blocks))
        return self._code_blocks

    def enumerate_profiles(self) -> Iterator[Profile]:
        """Yield every member once, in rank-tuple order.

        Members are ordered by their rankings issue by issue in sorted-id
        order.  A full space yields them lazily, the last issue varying
        fastest, each over ``all_linear_orders(n)``; other spaces combine
        their blocks' members and sort the result.  A space with more than
        ``DEFAULT_ENUMERATION_CAP`` members raises ``CapacityError`` before
        yielding.  The library reads spaces through :meth:`rows`; only
        tests, demos and the benchmark enumerate a whole space.
        """
        cap = DEFAULT_ENUMERATION_CAP
        if self.size() > cap:
            raise CapacityError(
                f"candidate space has {self.size()} profiles, over the cap of {cap}", cap=cap
            )
        issues = self.issue_space.sorted_ids()
        if self.variant == "full":
            orders = all_linear_orders(self.issue_space.n)
            for combo in itertools.product(orders, repeat=len(issues)):
                yield Profile(dict(zip(issues, combo)))
            return
        if len(self.blocks) == 1:  # its members are whole profiles, already sorted
            yield from self.blocks[0][1]
            return
        members = [
            Profile({issue: order for part in combo for issue, order in part.items()})
            for combo in itertools.product(*(block for _, block in self.blocks))
        ]
        members.sort(key=lambda member: _rank_key(member, issues))
        yield from members

    def block_of(self, issue) -> tuple:
        """The ``(issues, members)`` block holding ``issue``; a full space stores none."""
        if self.variant == "full":
            raise InvalidArgumentError("a full space stores no blocks")
        for issues, members in self.blocks:
            if issue in issues:
                return issues, members
        raise InvalidArgumentError(f"unknown issue {issue!r}")


# -- file format -----------------------------------------------------------


def _profile_to_doc(profile: Profile) -> dict:
    return {str(issue): str(order) for issue, order in profile.items()}


def save_candidate_space(path, space: CandidateSpace) -> None:
    doc: dict = {
        "variant": space.variant,
        "issues": list(space.issue_space.issue_ids),
        "N": space.issue_space.n,
    }
    if space.variant == "explicit":
        doc["profiles"] = [_profile_to_doc(p) for p in space.profiles]
    elif space.variant == "product":
        doc["blocks"] = [
            {"issues": list(issues), "profiles": [_profile_to_doc(p) for p in factor]}
            for issues, factor in space.blocks
        ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


_expect = partial(expect, what="candidate-space")


def load_candidate_space(path) -> CandidateSpace:
    """Read a space file; a malformed entry raises an error that names its key.  Each distinct
    ordering text is parsed once, in file order, and shared by every member listing it."""
    doc = read_json(path, "candidate-space")
    try:
        variant, issues, n = doc["variant"], doc["issues"], doc["N"]
        if variant == "product":
            blocks = [
                (_expect(block, dict, "blocks")["issues"], block["profiles"])
                for block in _expect(doc.get("blocks", []), list, "blocks")
            ]
    except KeyError as exc:
        raise InvalidArgumentError(f"candidate-space file missing key {exc}") from exc
    issue_space = IssueSpace(tuple(_expect(issues, list, "issues")), _expect(n, int, "N"))
    issue_of, order_of = {}, {}  # issue key -> issue id, ordering text -> LinearOrder

    def members(profiles):
        for entry in _expect(profiles, list, "profiles"):
            assignment = {}
            for key, text in _expect(entry, dict, "profiles").items():
                if key not in issue_of:
                    issue_of[key] = issue_space.resolve(key)
                if _expect(text, str, key) not in order_of:
                    order_of[text] = LinearOrder.from_string(text)
                assignment[issue_of[key]] = order_of[text]
            yield Profile(assignment)

    if variant == "full":
        return CandidateSpace.full(issue_space)
    if variant == "explicit":
        return CandidateSpace.explicit(members(doc.get("profiles", [])), issue_space)
    if variant == "product":
        blocks = [
            ([issue_space.resolve(i) for i in _expect(ids, list, "issues")], list(members(entries)))
            for ids, entries in blocks
        ]
        return CandidateSpace.product(blocks, issue_space)
    raise InvalidArgumentError(f"unknown variant {variant!r}")
