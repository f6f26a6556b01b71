"""Statistical complexity of candidate spaces: VC dimension and Rademacher estimates.

Both read a space block by block, never enumerating it, through integer column codes: each
distinct ordering of a block column is scored once, and a member's yes/no pattern is its codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .errors import CapacityError, InvalidArgumentError, UnsupportedError
from .mechanisms import ScoringRule
from .population import SampleSet
from .rng import derive_rng
from .spaces import CandidateSpace

__all__ = [
    "InducedLossClass",
    "vc_dimension_with_witness",
    "empirical_rademacher",
    "massart_bound",
]

_MAX_VC_ISSUES = 20


@dataclass(frozen=True)
class InducedLossClass:
    """The function class {(o, i) -> rule(o, C(i)) : C in space}."""

    space: CandidateSpace
    rule: ScoringRule


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


def _by_block(blocks: list, issues) -> list:
    """Group ``issues`` by block: per block, (position in ``issues``, column in the block)."""
    where = {issue: (b, k) for b, (ids, *_) in enumerate(blocks) for k, issue in enumerate(ids)}
    parts: list = [[] for _ in blocks]
    for j, issue in enumerate(issues):
        if issue not in where:
            raise InvalidArgumentError(f"unknown issue {issue!r}")
        parts[where[issue][0]].append((j, where[issue][1]))
    return parts


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
    parts = _by_block(blocks, issue_subset)
    return all(_shattered(codes, [k for _, k in part]) for (_, codes), part in zip(blocks, parts))


def empirical_rademacher(
    loss_class: InducedLossClass,
    sample: SampleSet,
    num_sign_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the empirical Rademacher complexity.

    The inner maximization over the space is exact, block by block: the
    maximum of a sum over blocks is the sum of the blocks' maxima (Bartlett
    and Mendelson, 2002).  Only the expectation over sign vectors is
    sampled.  Each sample pair scores each distinct ordering of its block
    column once; the members' scores are gathered by code.  Returns (estimate, stderr).
    """
    if len(sample) == 0:
        raise InvalidArgumentError("empirical Rademacher complexity needs a nonempty sample")
    if num_sign_draws < 1:
        raise InvalidArgumentError("need at least one sign draw")
    rule = loss_class.rule
    blocks = list(loss_class.space._codes())
    parts = _by_block(blocks, [issue for _, issue in sample])
    rng = derive_rng(seed)
    signs = rng.integers(0, 2, size=(num_sign_draws, len(sample))) * 2 - 1
    maxima = []
    for (_, columns, codes), part in zip(blocks, parts):
        if part:
            scored = [[rule.evaluate(sample.pairs[j][0], o) for o in columns[k]] for j, k in part]
            scores = np.stack(  # shape (block members, sample pairs on the block)
                [np.array(row)[codes[:, k]] for row, (_, k) in zip(scored, part)], axis=1
            )
            maxima.append((signs[:, [j for j, _ in part]] @ scores.T).max(axis=1))
    per_draw = sum(maxima) / len(sample)
    estimate = float(per_draw.mean())
    if num_sign_draws > 1:
        stderr = float(per_draw.std(ddof=1) / sqrt(num_sign_draws))
    else:
        stderr = float("inf")
    return estimate, stderr


def massart_bound(space_size: int, sample_size: int) -> float:
    """Finite-class bound sqrt(2 log M / n) for scores in [0, 1]; M may exceed 2**64."""
    return sqrt(2.0 * log(space_size) / sample_size)
