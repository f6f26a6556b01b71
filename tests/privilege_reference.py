"""The member-table closure test, the slow reference for the privilege oracle.

``member_table`` lists the members of an issue's block as plain tuples,
``(rest, ranking)``: a member's ranking on the issue and its rankings on the
other issues of the block.  ``closed`` re-sorts each tuple and looks its twin
up in that set.  The differential tests hold the code-block closure test of
``repsoc.privilege`` to this verdict.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=8)
def member_table(space, issue) -> frozenset:
    """The members that matter for ``issue``, as ``(rest, ranking)`` tuples; kept for the last few
    (space, issue) pairs (spaces hash by identity), as a test asks for many subsets of one issue."""
    issues, members = next(block for block in space.blocks if issue in block[0])
    others = [j for j in issues if j != issue]
    return frozenset(
        (tuple(member(j).ranking for j in others), member(issue).ranking)
        for member in members
    )


def closed(table: frozenset, subset: tuple) -> bool:
    """True iff re-sorting ``subset``'s outcomes into its order, in the rank
    slots they hold, maps every key of ``table`` to a key of ``table``."""
    for rest, ranking in table:
        slots = list(map(ranking.index, subset))
        ordered = sorted(slots)
        if slots != ordered:  # a key that already agrees with subset is its own twin
            twin = list(ranking)
            for slot, outcome in zip(ordered, subset):
                twin[slot] = outcome
            if (rest, tuple(twin)) not in table:
                return False
    return True


def closure_verdict(space, issue, subset: tuple) -> bool:
    """The privilege verdict of ``subset`` on ``issue`` by the member-table closure test."""
    return space.variant == "full" or closed(member_table(space, issue), subset)
