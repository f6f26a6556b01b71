"""Candidate spaces: explicit lists, the full space, and products of factors.

A candidate space is the set of preference profiles a mechanism may output.
An explicit or product space is stored as the product of independent blocks
(an explicit space is one block), and each block as one code matrix:
``(issues, columns, codes)`` with ``issues`` in sorted-id order,
``columns[k]`` the distinct orderings on ``issues[k]`` sorted by ranking, as
one (orderings x N) array of positions (``[d, c]`` is the rank of outcome ``c``
in ordering ``d``, 0 = best, in the least signed int type that holds N), and
member ``m`` holding ordering ``codes[m, k]``.  The rows are sorted, so
members come in one order inside each block and across the space: by their
rank tuples, issue by issue in sorted-id order, and every argmax tie-break is
reproducible.  The labs read only codes and positions; ``LinearOrder``s and
profiles are built only when asked, once per column.  Given profiles are encoded
by their orderings' ranking tuples, so the encoder hashes and compares tuples and
builds one ``LinearOrder`` per distinct ranking.  The full space has closed
forms instead; its issues share one read-only column per N.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import factorial, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidArgumentError
from .orders import LinearOrder, Profile
from .population import CodedRows, IssueSpace, expect, read_issue_space, read_json, write_json

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
    return tuple(map(LinearOrder, itertools.permutations(range(n))))  # permutations come in that order


@lru_cache(maxsize=None)
def _full_positions(n: int) -> np.ndarray:
    """The read-only column of every ordering over ``n`` outcomes, built with no ``LinearOrder``."""
    rankings = itertools.chain.from_iterable(itertools.permutations(range(n)))
    positions = np.argsort(np.fromiter(rankings, np.int8).reshape(-1, n), axis=1).astype(np.int8)
    positions.flags.writeable = False
    return positions


def _row_keys(positions: np.ndarray) -> list:
    """Each row of a 2-D array as a ``bytes`` key, equal for equal rows of one dtype (floats: equal bits)."""
    rows = np.ascontiguousarray(positions)
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel().tolist()


def _first_seen(rows: np.ndarray) -> np.ndarray:
    """Each row's id in the 2-D array ``rows``: the index of its first equal row, by :func:`_row_keys`."""
    first: dict = {}  # row key -> the index of its first row
    return np.fromiter(map(first.setdefault, _row_keys(rows), itertools.count()), np.intp, len(rows))


def _ordered(blocks) -> tuple:
    """The code blocks ``blocks`` with each column read back as the tuple of its ``LinearOrder``s."""
    orders = lambda column: tuple(map(LinearOrder, np.argsort(column, axis=1).tolist()))  # noqa: E731
    return tuple((issues, tuple(map(orders, columns)), codes) for issues, columns, codes in blocks)


def _check_profile(profile: Profile, issues, n: int) -> None:
    """Raise unless ``profile`` orders exactly ``issues``, each over ``n`` outcomes."""
    if profile.issues != issues:
        raise InvalidArgumentError("profile does not cover the issues of its space or block")
    for _, order in profile.items():
        if order.n != n:
            raise InvalidArgumentError(f"ordering {order} has wrong outcome count")


def _encode(issues: tuple, ids: np.ndarray, orders: list, n: int) -> tuple:
    """The code block of the members given as ``ids``, a (members x issues) matrix of indices
    into ``orders``, distinct orderings over ``n`` outcomes; raises unless the members are distinct."""
    if not len(ids):
        raise InvalidArgumentError(f"block {issues} needs at least one member")
    by_rank = sorted(range(len(orders)), key=lambda j: orders[j].ranking)
    rank_of = np.empty(len(orders), dtype=np.intp)
    rank_of[by_rank] = np.arange(len(orders))
    ranked, codes, columns = rank_of[ids], np.empty(ids.shape, np.min_scalar_type(len(orders))), []
    for k in range(len(issues)):
        present = np.zeros(len(orders), dtype=bool)
        present[ranked[:, k]] = True
        codes[:, k] = (np.cumsum(present) - 1)[ranked[:, k]]
        held = [orders[by_rank[r]].position for r in np.flatnonzero(present)]
        columns.append(np.array(held, np.min_scalar_type(-n)))
        columns[-1].flags.writeable = False
    codes = codes[np.lexsort(codes.T[::-1])]
    if (codes[1:] == codes[:-1]).all(axis=1).any():
        raise InvalidArgumentError(f"members of block {issues} must be distinct")
    codes.flags.writeable = False
    return issues, tuple(columns), codes


def _coded(variant: str, issue_space: IssueSpace, given, resolve, parse) -> "CandidateSpace":
    """The space of the ``(issue ids, entries)`` blocks of ``given``, which must partition
    the issue set; an entry maps keys to orderings.  ``resolve(key)`` gives a key's issue
    and ``parse(key, value)`` a value's ordering, each once per distinct key or value, in
    file order, so the first bad key or value raises first.  A block's entries are decoded
    in whole-array passes, with no Python step per entry: their keys and values are chained,
    each value is hashed once to find where it is first seen, the (key, value) pairs where a
    key or a value is first seen are resolved and parsed in file order, each value takes the
    ordering index of its first place, and each distinct key order is placed on the block's
    issues once.  Every entry is read before any is checked; an entry that does not order
    exactly its block's issues over ``N`` outcomes raises as its profile would."""
    n, issue_of, index_of, orders, by_ranking, wrong_n = issue_space.n, {}, {}, [], {}, set()

    def learn(key, value) -> None:  # resolve the key and parse the value, if either is new
        if key not in issue_of:
            issue_of[key] = resolve(key)
        if value not in index_of:
            order = parse(key, value)
            if order.ranking not in by_ranking:
                if order.n != n:
                    wrong_n.add(len(orders))
                by_ranking[order.ranking] = len(orders)
                orders.append(order)
            index_of[value] = by_ranking[order.ranking]

    def read(ids, entries) -> tuple:
        issues = tuple(sorted(set(ids), key=str))  # in sorted-id order
        entries = _expect(entries, list, "profiles")
        if not all(map(isinstance, entries, itertools.repeat(dict))):  # the faults before it raise first
            cut = next(m for m, entry in enumerate(entries) if not isinstance(entry, dict))
            read(ids, entries[:cut])
            _expect(entries[cut], dict, "profiles")
        keys = [*itertools.chain.from_iterable(entries)]
        values = [*itertools.chain.from_iterable(map(dict.values, entries))]
        key_at = {key: keys.index(key) for key in dict.fromkeys(keys)}  # a key -> where first seen
        value_at: dict = {}  # a value -> where first seen
        try:
            first = np.fromiter(map(value_at.setdefault, values, itertools.count()), np.intp, len(values))
        except TypeError:  # an unhashable value, so no ordering text: the faults before it raise first
            cut = next(j for j, value in enumerate(values) if not isinstance(value, Hashable))
            for at in sorted(at for at in {*key_at.values(), *value_at.values()} if at < cut):
                learn(keys[at], values[at])
            resolve(keys[cut])
            parse(keys[cut], values[cut])
            raise
        for at in sorted({*key_at.values(), *value_at.values()}):  # where a key or value is new
            learn(keys[at], values[at])
        index_at = np.zeros(len(values), dtype=np.intp)
        index_at[list(value_at.values())] = [index_of[value] for value in value_at]
        # each distinct key order, placed once on the block's issues: the entry position of each
        layout_at: dict = {}  # a key order -> the first entry that has it
        like = np.fromiter(map(layout_at.setdefault, map(tuple, entries), itertools.count()), np.intp, len(entries))
        column_of, fits = {issue: k for k, issue in enumerate(issues)}, np.zeros(len(entries), dtype=bool)
        takes = np.zeros((len(entries), len(issues)), dtype=np.intp)
        for layout, m in layout_at.items():
            at = {column_of.get(issue_of[key]): j for j, key in enumerate(layout)}
            fits[m] = None not in at and len(at) == len(layout) == len(issues)
            takes[m] = [at[k] for k in range(len(issues))] if fits[m] else 0
        sizes = np.fromiter(map(len, entries), np.intp, len(entries))
        ok = fits[like]
        rows = np.zeros((len(entries), len(issues)), dtype=np.intp)
        rows[ok] = index_at[first[(np.cumsum(sizes) - sizes)[ok, None] + takes[like[ok]]]]
        if wrong_n:
            wrong = np.zeros(len(orders), dtype=bool)
            wrong[list(wrong_n)] = True
            ok &= ~wrong[rows].any(axis=1)
        bad = np.flatnonzero(~ok)
        return issues, rows, int(bad[0]) if len(bad) else None, entries

    blocks, seen = [], set()
    for issues, rows, bad, entries in [read(ids, entries) for ids, entries in given]:  # all read first
        block = set(issues)
        if not block or seen & block or not block <= issue_space.id_set:
            raise InvalidArgumentError("blocks must partition the issue set")
        seen |= block
        if bad is not None:
            assignment = {issue_of[key]: orders[index_of[value]] for key, value in entries[bad].items()}
            _check_profile(Profile(assignment), block, n)
        blocks.append(_encode(issues, rows, orders, n))
    if seen != issue_space.id_set:
        raise InvalidArgumentError("blocks must partition the issue set")
    return CandidateSpace(variant, issue_space, tuple(blocks))


def _profile(blocks, members) -> Profile:
    """The profile of member ``members[b]`` of each code block ``blocks[b]``."""
    return Profile({
        issue: column[code]
        for (issues, columns, codes), m in zip(blocks, members)
        for issue, column, code in zip(issues, columns, codes[m].tolist())
    })


@dataclass(frozen=True, eq=False)
class CandidateSpace:
    """One of Explicit(profiles), Full(LO(n)^issues), or Product(block factors).

    ``coded`` holds the code blocks of the module docstring; they partition
    the issue set, and the space is the Cartesian product of their members.
    An explicit space is the one block over every issue; a full space stores
    none.  :meth:`explicit`, :meth:`product` and :func:`load_candidate_space`
    check and encode their members.
    """

    variant: str
    issue_space: IssueSpace
    coded: tuple = ()

    def __post_init__(self):
        if self.variant not in ("explicit", "full", "product"):
            raise InvalidArgumentError(f"unknown variant {self.variant!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, profiles: Sequence[Profile], issue_space: IssueSpace) -> "CandidateSpace":
        block = cls.product(((issue_space.issue_ids, profiles),), issue_space)
        return cls("explicit", issue_space, block.coded)

    @classmethod
    def full(cls, issue_space: IssueSpace) -> "CandidateSpace":
        return cls("full", issue_space)

    @classmethod
    def product(cls, blocks, issue_space: IssueSpace) -> "CandidateSpace":
        """The product of ``(issues, member profiles)`` blocks, each member read as the
        ranking tuples of its orderings."""
        given = [
            (ids, [{issue: order.ranking for issue, order in member.items()} for member in members])
            for ids, members in blocks
        ]
        return _coded("product", issue_space, given, lambda issue: issue, lambda _, ranking: LinearOrder(ranking))

    # -- basic queries ------------------------------------------------------

    def size(self) -> int:
        if self.variant == "full":
            return factorial(self.issue_space.n) ** len(self.issue_space.issue_ids)
        return prod(len(codes) for _, _, codes in self.coded)

    def contains(self, profile: Profile) -> bool:
        """Whether each block has a member whose orderings, gathered by its codes, are ``profile``'s."""
        _check_profile(profile, self.issue_space.id_set, self.issue_space.n)
        return all(
            np.logical_and.reduce([
                (column == profile(i).position).all(axis=1)[code]
                for i, column, code in zip(issues, columns, codes.T)
            ]).any()
            for issues, columns, codes in self.coded
        )

    @property
    def blocks(self) -> tuple | None:
        """The ``(issues, members)`` blocks, members built as profiles in member order;
        None for a full space."""
        if self.variant != "full":
            return tuple((b[0], tuple(_profile((b,), (m,)) for m in range(len(b[2])))) for b in _ordered(self.coded))

    @property
    def profiles(self) -> tuple | None:
        """An explicit space's members, in member order."""
        return self.blocks[0][1] if self.variant == "explicit" else None

    @cached_property
    def _places(self) -> dict:
        """Each issue's (block, column) in :meth:`_codes`, read without building a code block."""
        blocks = [(i,) for i in self.issue_space.sorted_ids()] if self.variant == "full" else [b[0] for b in self.coded]
        return {issue: (b, k) for b, issues in enumerate(blocks) for k, issue in enumerate(issues)}

    def _locate(self, issue) -> tuple:
        """The (block, column) of ``issue`` in :meth:`_codes`, the one map from an issue to its codes."""
        if (place := self._places.get(issue)) is None:
            raise InvalidArgumentError(f"unknown issue {issue!r}")
        return place

    def _codes(self) -> tuple:
        """The space's code blocks; a full space gives each issue alone over the shared column
        ``_full_positions(n)``.  A block of over ``DEFAULT_ENUMERATION_CAP`` members raises ``CapacityError``."""
        n, full = self.issue_space.n, self.variant == "full"
        largest = factorial(n) if full else max(len(codes) for _, _, codes in self.coded)
        if largest > DEFAULT_ENUMERATION_CAP:
            cap = DEFAULT_ENUMERATION_CAP
            raise CapacityError(f"candidate-space block has {largest} members, over the cap of {cap}")
        if full:
            columns, codes = (_full_positions(n),), np.arange(largest)[:, None]
            return tuple(((issue,), columns, codes) for issue in self.issue_space.sorted_ids())
        return self.coded

    def enumerate_profiles(self) -> Iterator[Profile]:
        """Yield every member once, in rank-tuple order: by rankings issue by issue in
        sorted-id order.  A full space yields them lazily, the last issue varying fastest.
        A space of more than ``DEFAULT_ENUMERATION_CAP`` members raises ``CapacityError``
        first.  The library reads only codes; tests, demos and the benchmark enumerate."""
        cap = DEFAULT_ENUMERATION_CAP
        if self.size() > cap:
            raise CapacityError(f"candidate space has {self.size()} profiles, over the cap of {cap}")
        blocks = _ordered(self._codes())
        combos = itertools.product(*(range(len(codes)) for _, _, codes in blocks))
        members = (_profile(blocks, combo) for combo in combos)
        if self.variant == "product":  # the blocks' issues may interleave in sorted-id order
            ids = self.issue_space.sorted_ids()
            members = sorted(members, key=lambda member: [member(issue).ranking for issue in ids])
        yield from members


# -- file format -----------------------------------------------------------


def _members(block: tuple) -> CodedRows:
    """A code block's members as a space file lists them, each column's orderings as text;
    the block's issues are in sorted-id order, which is text order, as profiles list them."""
    issues, columns, codes = _ordered((block,))[0]
    return CodedRows(tuple(map(str, issues)), tuple([str(order) for order in column] for column in columns), codes)


def save_candidate_space(path, space: CandidateSpace) -> None:
    doc: dict = {
        "variant": space.variant,
        "issues": list(space.issue_space.issue_ids),
        "N": space.issue_space.n,
    }
    if space.variant == "explicit":
        doc["profiles"] = _members(space.coded[0])
    elif space.variant == "product":
        doc["blocks"] = [
            {"issues": list(block[0]), "profiles": _members(block)} for block in space.coded
        ]
    write_json(path, doc)


_expect = partial(expect, what="candidate-space")


def load_candidate_space(path) -> CandidateSpace:
    """Read a space file straight into code blocks; a malformed entry raises an error that
    names its key.  Each distinct ordering text is parsed once, in file order."""
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
    issue_space = read_issue_space(issues, n, "candidate-space")
    if variant == "full":
        return CandidateSpace.full(issue_space)
    if variant == "explicit":
        given = [(issue_space.issue_ids, doc.get("profiles", []))]
    elif variant == "product":  # a block's issues are resolved as the block is read
        given = (
            ([issue_space.resolve(i) for i in _expect(ids, list, "issues")], entries)
            for ids, entries in blocks
        )
    else:
        raise InvalidArgumentError(f"unknown variant {variant!r}")
    parse = lambda key, text: LinearOrder.from_string(_expect(text, str, key))  # noqa: E731
    return _coded(variant, issue_space, given, issue_space.resolve, parse)
