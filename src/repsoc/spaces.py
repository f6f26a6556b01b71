"""Candidate spaces: explicit lists, the full space, and products of factors.

A candidate space is the set of preference profiles a mechanism may output.
Enumeration is deterministic, in lexicographic order of the serialized
profile, so argmax tie-breaking is reproducible everywhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import Iterator, Sequence

from .errors import CapacityError, InvalidArgumentError
from .orders import LinearOrder, Profile
from .population import IssueSpace

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


def _profile_sort_key(profile: Profile) -> str:
    return profile.serialize()


@dataclass(frozen=True)
class CandidateSpace:
    """One of Explicit(profiles), Full(LO(n)^issues), or Product(block factors).

    Product blocks partition the issue set; each block carries an explicit
    list of partial profiles over its issues, and the space is their
    Cartesian product.
    """

    variant: str
    issue_space: IssueSpace
    profiles: tuple[Profile, ...] | None = None
    blocks: tuple | None = None  # tuple of (issue_tuple, factor_profile_tuple)

    def __post_init__(self):
        if self.variant == "explicit":
            if not self.profiles:
                raise InvalidArgumentError("explicit space must be nonempty")
            profiles = tuple(self.profiles)
            if len(set(profiles)) != len(profiles):
                raise InvalidArgumentError("explicit profiles must be distinct")
            for profile in profiles:
                if profile.issues != self.issue_space.id_set:
                    raise InvalidArgumentError(
                        "explicit profile does not cover the issue space"
                    )
                for _, order in profile.items():
                    if order.n != self.issue_space.n:
                        raise InvalidArgumentError(
                            f"ordering {order} has wrong outcome count"
                        )
            object.__setattr__(
                self, "profiles", tuple(sorted(profiles, key=_profile_sort_key))
            )
        elif self.variant == "full":
            if self.profiles is not None or self.blocks is not None:
                raise InvalidArgumentError("full space takes no profiles or blocks")
        elif self.variant == "product":
            if not self.blocks:
                raise InvalidArgumentError("product space needs at least one block")
            blocks = []
            seen: set = set()
            for issues, factor in self.blocks:
                issues = tuple(issues)
                factor = tuple(sorted(factor, key=_profile_sort_key))
                if not factor:
                    raise InvalidArgumentError("product factors must be nonempty")
                if len(set(factor)) != len(factor):
                    raise InvalidArgumentError("factor profiles must be distinct")
                for partial in factor:
                    if set(partial.issues) != set(issues):
                        raise InvalidArgumentError(
                            f"factor profile does not cover block {issues}"
                        )
                if seen & set(issues):
                    raise InvalidArgumentError("product blocks must be disjoint")
                seen.update(issues)
                blocks.append((issues, factor))
            if seen != self.issue_space.id_set:
                raise InvalidArgumentError("product blocks must partition the issue set")
            object.__setattr__(self, "blocks", tuple(blocks))
        else:
            raise InvalidArgumentError(f"unknown variant {self.variant!r}")

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
        if self.variant == "explicit":
            return len(self.profiles)
        if self.variant == "full":
            return factorial(self.issue_space.n) ** len(self.issue_space.issue_ids)
        return _product_size(self.blocks)

    @cached_property
    def _member_sets(self) -> tuple:
        """Hashed members: one set per product block, or one of all profiles."""
        if self.variant == "explicit":
            return (frozenset(self.profiles),)
        return tuple(frozenset(factor) for _, factor in self.blocks)

    def contains(self, profile: Profile) -> bool:
        if profile.issues != self.issue_space.id_set:
            raise InvalidArgumentError("profile does not cover this issue space")
        for _, order in profile.items():
            if order.n != self.issue_space.n:
                raise InvalidArgumentError(f"ordering {order} has wrong outcome count")
        if self.variant == "full":
            return True
        if self.variant == "explicit":
            return profile in self._member_sets[0]
        for (issues, _), members in zip(self.blocks, self._member_sets):
            partial = Profile({issue: profile(issue) for issue in issues})
            if partial not in members:
                return False
        return True

    def enumerate_profiles(self, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Profile]:
        """Yield every member once, in lexicographic serialized-profile order."""
        size = self.size()
        if size > cap:
            raise CapacityError(
                f"candidate space has {size} profiles, over the cap of {cap}", cap=cap
            )
        if self.variant == "explicit":
            yield from self.profiles
            return
        if self.variant == "full":
            issues = self.issue_space.sorted_ids()
            orders = all_linear_orders(self.issue_space.n)
            for combo in itertools.product(orders, repeat=len(issues)):
                yield Profile(dict(zip(issues, combo)))
            return
        # product: materialize and sort, since serialization interleaves blocks
        members = []
        for combo in itertools.product(*(factor for _, factor in self.blocks)):
            assignment = {}
            for partial in combo:
                for issue, order in partial.items():
                    assignment[issue] = order
            members.append(Profile(assignment))
        members.sort(key=_profile_sort_key)
        yield from members

    def block_of(self, issue) -> tuple:
        """For product spaces, the (issues, factor) block containing ``issue``."""
        if self.variant != "product":
            raise InvalidArgumentError("block_of is only defined for product spaces")
        for issues, factor in self.blocks:
            if issue in issues:
                return issues, factor
        raise InvalidArgumentError(f"unknown issue {issue!r}")


def _product_size(blocks) -> int:
    size = 1
    for _, factor in blocks:
        size *= len(factor)
    return size


# -- file format -----------------------------------------------------------


def _profile_to_doc(profile: Profile) -> dict:
    return {str(issue): str(order) for issue, order in profile.items()}


def _profile_from_doc(doc: dict, issue_space: IssueSpace) -> Profile:
    return Profile(
        {issue_space.resolve(key): LinearOrder.from_string(text) for key, text in doc.items()}
    )


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


def load_candidate_space(path) -> CandidateSpace:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        variant = doc["variant"]
        issues = list(doc["issues"])
        n = int(doc["N"])
    except KeyError as exc:
        raise InvalidArgumentError(f"candidate-space file missing key {exc}") from exc
    issue_space = IssueSpace(tuple(issues), n)
    if variant == "full":
        return CandidateSpace.full(issue_space)
    if variant == "explicit":
        profiles = [_profile_from_doc(p, issue_space) for p in doc.get("profiles", [])]
        return CandidateSpace.explicit(profiles, issue_space)
    if variant == "product":
        blocks = []
        for block in doc.get("blocks", []):
            block_issues = tuple(issue_space.resolve(i) for i in block["issues"])
            factor = [_profile_from_doc(p, issue_space) for p in block["profiles"]]
            blocks.append((block_issues, factor))
        return CandidateSpace.product(blocks, issue_space)
    raise InvalidArgumentError(f"unknown variant {variant!r}")
