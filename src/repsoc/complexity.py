"""Statistical complexity of candidate spaces: VC dimension and Rademacher estimates.

Both read a space block by block, never enumerating it.  A member's yes/no pattern is its
integer column codes; a Rademacher sample's points come from the one scoring path,
:func:`~repsoc.mechanisms.block_scores`, which scores each distinct sampled cell once.
"""

from __future__ import annotations

import itertools
from math import isqrt, log, sqrt
from typing import Sequence

import numpy as np

from .errors import CapacityError, InvalidArgumentError, UnsupportedError
from .mechanisms import ScoringRule, block_scores
from .rng import derive_rng
from .spaces import DEFAULT_ENUMERATION_CAP, CandidateSpace

__all__ = [
    "vc_dimension_with_witness",
    "empirical_rademacher",
    "is_shattered",
    "massart_bound",
]

_MAX_VC_ISSUES = 20


def _block_patterns(space: CandidateSpace):
    """Yield each block of a binary space: its issues and its members' 0/1 codes, one row each."""
    if space.issue_space.n != 2:
        raise UnsupportedError("VC dimension is defined only for binary (N=2) spaces")
    for issues, _, codes in space._codes():
        if len(issues) > _MAX_VC_ISSUES:
            raise CapacityError(
                f"VC search limited to {_MAX_VC_ISSUES} issues per block, got {len(issues)}"
            )
        yield issues, codes


def _shattered(codes: np.ndarray, cols) -> bool:
    """Whether the members' codes on ``cols``, read as binary numbers, take all 2^|cols| values."""
    values = codes[:, list(cols)] @ (1 << np.arange(len(cols)))
    return bool(np.bincount(values, minlength=2 ** len(cols)).all())


def vc_dimension_with_witness(space: CandidateSpace) -> tuple[int, tuple]:
    """Exact VC dimension of a binary space, plus a shattered witness set.

    A subset is shattered iff each block's part of it is, so the dimension
    adds up over blocks.  Each block searches its issue subsets in ascending
    size and stops at the first size with none shattered, since shattering
    is downward closed.  The union of the blocks' first witnesses is the
    space's first largest shattered subset in sorted-id order.
    """
    witness: list = []
    for issues, codes in _block_patterns(space):
        found: tuple = ()
        for d in range(1, len(issues) + 1):
            subsets = itertools.combinations(range(len(issues)), d)
            if not (subset := next((c for c in subsets if _shattered(codes, c)), ())):
                break
            found = subset
        witness.extend(issues[k] for k in found)
    rank = {issue: k for k, issue in enumerate(space.issue_space.sorted_ids())}
    return len(witness), tuple(sorted(witness, key=rank.__getitem__))


def is_shattered(space: CandidateSpace, issue_subset) -> bool:
    """Independent check, block by block, that every assignment over the subset is realized."""
    blocks = list(_block_patterns(space))
    parts: list = [[] for _ in blocks]  # per block, the subset's columns in it
    for b, k in map(space._locate, issue_subset):
        parts[b].append(k)
    return all(_shattered(codes, part) for (_, codes), part in zip(blocks, parts))


def empirical_rademacher(
    space: CandidateSpace,
    rule: ScoringRule,
    cells: Sequence,
    pairs: np.ndarray,
    num_sign_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the empirical Rademacher complexity of the rule's scores
    against the space on the sample whose pair ``j`` is the cell ``cells[pairs[j]]``.

    The inner maximization over the space is exact, block by block: the
    maximum of a sum over blocks is the sum of the blocks' maxima (Bartlett
    and Mendelson, 2002).  Only the expectation over sign vectors is
    sampled.  Each distinct sampled cell is scored once, as a one-hot tally
    row of :func:`~repsoc.mechanisms.block_scores`, a slice of rows at a time;
    a pair's member scores are its cell's points gathered by cell index, as the
    float ``1 - (top - points) / top`` of ``rule.evaluate``.  Returns (estimate, stderr).
    """
    if len(pairs) == 0:
        raise InvalidArgumentError("empirical Rademacher complexity needs a nonempty sample")
    if num_sign_draws < 1:
        raise InvalidArgumentError("need at least one sign draw")
    blocks = space._codes()
    sampled, cell_of = np.unique(pairs, return_inverse=True)  # the distinct cells; each pair's
    block_of = np.array([space._locate(cells[c][0])[0] for c in sampled], dtype=np.intp)
    held: list = [[] for _ in blocks]  # per block: its distinct cells' points, in order
    step = isqrt(DEFAULT_ENUMERATION_CAP) or 1  # so that a slice's one-hot rows fit the cap
    for lo in range(0, len(sampled), step):
        ones = np.eye(len(sampled[lo : lo + step]), dtype=np.int64)
        for at, scores in block_scores(ones, [cells[c] for c in sampled[lo : lo + step]], space, rule):
            for b, block in enumerate(scores):
                held[b].append(block[block_of[lo + at.start : lo + at.stop] == b])
    top, pair_block = rule.top(space.issue_space.n), block_of[cell_of]
    signs = derive_rng(seed).integers(0, 2, size=(num_sign_draws, len(pairs))) * 2 - 1
    maxima = []
    for b, points in enumerate(held):
        if len(js := np.flatnonzero(pair_block == b)):
            table = 1.0 - (top - np.concatenate(points)) / top
            _, rows = np.unique(cell_of[js], return_inverse=True)  # each pair's row of the table
            scores = np.ascontiguousarray(table[rows].T)  # C-ordered (block members, pairs on the block)
            maxima.append((signs[:, js] @ scores.T).max(axis=1))
    per_draw = sum(maxima) / len(pairs)
    stderr = float(per_draw.std(ddof=1) / sqrt(num_sign_draws)) if num_sign_draws > 1 else float("inf")
    return float(per_draw.mean()), stderr


def massart_bound(space_size: int, sample_size: int) -> float:
    """Finite-class bound sqrt(2 log M / n) for scores in [0, 1]; M may exceed 2**64."""
    return sqrt(2.0 * log(space_size) / sample_size)
