"""The generalization lab: per committee, the sup over a candidate space of the gap between
sample and population utility, and the slack of the majority-vote regret chain.

All trials of size index j are drawn from the derived stream (seed, j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import draw_tallies
from .errors import CapacityError
from .mechanisms import _cell_index, _placed
from .population import MarginalPopulation, SaliencyDistribution
from .spaces import DEFAULT_ENUMERATION_CAP, CandidateSpace, _first_seen

__all__ = ["GeneralizationResult", "generalization_experiment"]


@dataclass(frozen=True)
class GeneralizationResult:
    sizes: tuple
    trials: int
    gaps: dict  # size -> np.ndarray of per-trial sup-gaps
    regret_slack: dict  # size -> per-trial U(f_maj) - (max U - 2*gap), >= 0 by the chain

    def exceed_fraction(self, size: int, epsilon: float) -> float:
        gaps = self.gaps[size]
        return float((gaps > epsilon).mean())

    def mean_gap(self, size: int) -> float:
        return float(self.gaps[size].mean())

    def median_gap(self, size: int) -> float:
        return _median(self.gaps[size])


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty float array, bit for bit, without loading ``numpy.ma``:
    the middle value or ``(a + b) / 2``, summed from +0.0 first as numpy sums, so a zero's
    sign comes out as it does (``[0.0, -5e-324]`` gives -0.0)."""
    ordered, k = np.sort(values).tolist(), len(values) // 2
    return 0.0 + ordered[k] if len(values) % 2 else (0.0 + ordered[k - 1] + ordered[k]) / 2


@dataclass(frozen=True)
class _Block:
    """One block of the space, cut to one member per class: its kept members (rows) and issues (columns)."""

    classes: np.ndarray  # the cell index of each (member, issue)'s ordering, -1 off the cells
    terms: np.ndarray  # population term w * mass of each (member, issue)
    term_ids: np.ndarray  # per member: the index of the first member with equal terms
    totals: np.ndarray  # per member: its terms summed (approximately)


def _first_of_each_class(classes: np.ndarray) -> np.ndarray:
    """The index of the first row of each distinct row of ``classes``, in row order."""
    return np.flatnonzero(_first_seen(classes) == np.arange(len(classes)))


def _space_blocks(space: CandidateSpace, saliency, population, cells):
    """The blocks of ``space``, each cut to the first member, in member order, of each class of
    members that no exact-match committee over ``cells`` tells apart.

    An ordering that is no cell counts 0 in every tally and has population term 0.0, so on
    each issue a member's class is its ordering's index in the kernel's cell index, or -1,
    one shared class off the cells.  A block keeps the rows of its first members as its
    ``classes``, and their population terms: each cell's ``w * mass``, 0.0 at -1.

    Also returns the weighted issues in saliency order, as (block, column) pairs.
    """
    weighted = [issue for issue in saliency.issues if saliency(issue) != 0]
    sequence = list(map(space._locate, weighted))  # a weighted issue the space lacks raises here
    w, mass = {i: saliency(i) for i in weighted}, {i: population.distribution(i) for i in weighted}
    cell_terms = np.array([w[i] * mass[i][o] for i, o in cells] + [0.0])  # index -1, off the cells, reads 0.0
    blocks, cell_index = [], _cell_index(_placed(cells, space.issue_space.n), space)
    for (_, _, codes), index in zip(space._codes(), cell_index):
        classes = np.stack([cell[code] for cell, code in zip(index, codes.T)], axis=1)
        classes = classes[_first_of_each_class(classes)]
        terms = cell_terms[classes]
        blocks.append(_Block(classes=classes, terms=terms, term_ids=_first_seen(terms), totals=terms.sum(axis=1)))
    return blocks, sequence


def _population_at(blocks, sequence, picks):
    """Population utility at one member per block, summed ``total += w * mass`` in saliency order."""
    total = 0.0
    for b, j in sequence:
        total = total + blocks[b].terms[picks[b], j]
    return total


def _utility_ranges(blocks, sequence, candidates) -> dict:
    """Over every choice of one candidate per block: total count -> (least, greatest) utility.

    ``candidates[b]`` lists block ``b``'s ``(member, count)`` pairs.  The
    utility is summed as in :func:`_population_at`, one issue at a time.  A
    block is open from its first issue in that order to its last.  Choices
    with equal counts so far, and equal members in the open blocks, keep only
    their least and greatest partial sums: float addition is monotone, so no
    other partial sum can end below or above them.  More than
    ``DEFAULT_ENUMERATION_CAP`` choices among blocks open at once raise
    ``CapacityError`` before anything is summed.
    """
    first, last = {}, {}
    for q, (b, _) in enumerate(sequence):
        first.setdefault(b, q)
        last[b] = q
    open_choices = widest = 1
    for q, (b, _) in enumerate(sequence):
        open_choices *= len(candidates[b]) if first[b] == q else 1
        widest = max(widest, open_choices)
        open_choices //= len(candidates[b]) if last[b] == q else 1
    if widest > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(
            f"{widest} choices of profile parts lie within the rounding guard of the sup, "
            f"over the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    rows = [  # per block: each candidate's terms
        dict(zip((ms := [m for m, _ in choices]), block.terms[ms].tolist()))
        for block, choices in zip(blocks, candidates)
    ]
    states = {(0, ()): (0.0, 0.0)}  # (count, open (block, member) pairs) -> (least, greatest)
    for q, (b, j) in enumerate(sequence):
        merged: dict = {}
        for (count, held), (low, high) in states.items():
            rest = tuple(pair for pair in held if pair[0] != b)
            options = candidates[b] if len(rest) == len(held) else [(dict(held)[b], 0)]
            for member, added in options:
                key = (count + added, rest if last[b] == q else rest + ((b, member),))
                term = rows[b][member][j]
                seen = merged.get(key)
                if seen is None:
                    merged[key] = (low + term, high + term)
                else:
                    merged[key] = (min(seen[0], low + term), max(seen[1], high + term))
        states = merged
    return {count: bounds for (count, _), bounds in states.items()}


def _sup_gap(blocks, sequence, counts, size: int, delta: float) -> np.ndarray:
    """Per trial, the largest ``|C / size - p|`` over the space.

    For each sign of the gap, a block keeps the members whose part
    ``count / size - terms`` lies within ``delta`` of the block's greatest
    (or least) part, one per distinct (count, terms).  A trial in which every
    block keeps one member is evaluated at that profile; otherwise over every
    choice of kept members, through :func:`_utility_ranges`.
    """
    trials = np.arange(len(counts[0]))
    scale = max(size, 1)  # an empty committee has C = 0 and sample utility 0
    parts = [np.true_divide(count, scale) for count in counts]  # count / scale - totals, in place
    for part, block in zip(parts, blocks):
        part -= block.totals
    by_sign = []
    for greatest in (True, False):
        picks, kept, mixed = [], [], np.zeros(len(trials), dtype=bool)
        for part, count, block in zip(parts, counts, blocks):
            pick = part.argmax(axis=1) if greatest else part.argmin(axis=1)
            best = part[trials, pick][:, None]
            keep = part >= best - delta if greatest else part <= best + delta  # negation is exact
            # a kept member mixes its trial unless it ties the pick (flat: np.nonzero is slower)
            t, m = np.divmod(np.flatnonzero(keep), keep.shape[1])
            at, ids = pick[t], block.term_ids
            mixed[t[(count[t, m] != count[t, at]) | (ids[m] != ids[at])]] = True
            picks.append(pick)
            kept.append(keep)
        total = sum(count[trials, pick] for count, pick in zip(counts, picks))
        gaps = np.abs(total / scale - _population_at(blocks, sequence, picks))
        for t in np.flatnonzero(mixed):
            candidates = []
            for keep, count, block in zip(kept, counts, blocks):
                members = np.flatnonzero(keep[t])
                key = count[t, members].astype(np.int64) * len(block.term_ids) + block.term_ids[members]
                _, first = np.unique(key, return_index=True)
                candidates.append([(m, int(count[t, m])) for m in members[first]])
            gaps[t] = max(
                max(abs(c / scale - low), abs(c / scale - high))
                for c, (low, high) in _utility_ranges(blocks, sequence, candidates).items()
            )
        by_sign.append(gaps)
    return np.maximum(*by_sign)


def generalization_experiment(
    space: CandidateSpace,
    saliency: SaliencyDistribution,
    population: MarginalPopulation,
    sizes,
    trials: int,
    seed: int,
) -> GeneralizationResult:
    """Per-trial sup over the space of |sample utility - population utility|.

    Each profile's gap is the float expression ``|C / size - p|``: ``C`` is
    the committee's integer count of the profile's (issue, ordering) cells and
    ``p`` is the population utility, ``total += w * mass`` issue by issue in
    saliency order.  Both utilities are sums over issues, so the sup is found
    block by block, over the space's code blocks, without enumerating the
    space.  An ordering that is no cell of the population counts 0 in every
    committee and has term 0.0, so members that differ only on such orderings
    are one point of the sup: the blocks are first cut to the first member of
    each such class, whose rows of cell indices are the block's ``classes``
    (:func:`_space_blocks`).  Members are kept in rank-tuple order, so every
    first argmax, tie and bound below is the full space's.  A kept member's
    count is the sum of its cells' columns of the tally matrix, with a zero
    column at index -1, gathered a chunk of trials at a time, in the least
    unsigned type that holds the committee size: every count, and every sum
    of counts over distinct issues, lies in ``[0, size]``.
    For each sign of the gap, a block keeps the members within a rounding
    guard ``delta = 4 * (k + 3) * 2**-52`` (``k`` issues) of its extreme.
    The float error of the expression, and of a block's part of it, is at
    most about ``(k + 1) * 2**-53``, so a profile with a member outside the
    guard has a smaller float gap than some profile of kept members.  The
    kept members are combined exactly (:func:`_utility_ranges`), so the
    result equals evaluating every profile, bit for bit.  More than
    ``DEFAULT_ENUMERATION_CAP`` choices of kept members among blocks that
    interleave in saliency order raise ``CapacityError``.

    Also records, per trial, the slack in the majority-vote regret chain
    U(f_maj) >= max U - 2 * sup-gap.  The majority vote takes each block's
    first count argmax, which is the first argmax in ``enumerate_profiles``
    order.  Max U is the sup-gap of the empty committee: its counts are 0,
    so its gap is |0 - U| = U, and the search's least side keeps exactly
    the members within the guard of each block's greatest terms.  The committees
    are drawn by :func:`~repsoc.axioms.draw_tallies`, from the stream
    (seed, j) for size index j; the sizes, and the trials over the
    population's cells, must pass its plan check.
    """
    cells, tallies = draw_tallies(saliency, population, sizes, trials, seed, least=0)
    blocks, sequence = _space_blocks(space, saliency, population, cells)
    delta = 4 * (len(space.issue_space.issue_ids) + 3) * 2.0**-52
    empty = [np.zeros((1, len(block.totals)), dtype=np.int64) for block in blocks]
    max_pop = _sup_gap(blocks, sequence, empty, 0, delta)[0]  # the empty committee's gap |0 - U|
    # per trial: its padded tallies, or every block's (members x issues) gather, within the cap
    step = max(1, DEFAULT_ENUMERATION_CAP // max(len(cells) + 1, sum(block.classes.size for block in blocks)))

    gaps, regret_slack = {}, {}
    for size, rows in tallies:
        narrow = np.min_scalar_type(size)  # counts, and their sums over distinct issues, lie in [0, size]
        gaps[size], regret_slack[size] = np.empty(trials), np.empty(trials)
        for lo in range(0, trials, step):
            at, padded = slice(lo, lo + step), np.pad(rows[lo : lo + step].astype(narrow), ((0, 0), (0, 1)))
            counts = [np.take(padded, block.classes.T, axis=1).sum(axis=1, dtype=narrow) for block in blocks]
            gaps[size][at] = gap = _sup_gap(blocks, sequence, counts, size, delta)
            winner = _population_at(blocks, sequence, [count.argmax(axis=1) for count in counts])
            regret_slack[size][at] = winner - (max_pop - 2.0 * gap)
    return GeneralizationResult(sizes=tuple(gaps), trials=trials, gaps=gaps, regret_slack=regret_slack)
