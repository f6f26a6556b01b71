"""Issue spaces, saliency distributions, per-issue preference marginals and sampling.

Populations are modeled through their per-issue marginals only: for each
issue, a sparse distribution over linear orders.  Coalitions that are each
unanimous on one ordering are the marginal with each coalition's mass on its
ordering.  Files and configs name an issue by its text form, so the ids of an
:class:`IssueSpace` are unique as text.  A sampled pair is an
(issue, ordering) cell, drawn i.i.d. with probability saliency(issue) times the
ordering's mass; :func:`sample_pairs` returns each pair as its cell's index.
Every JSON file the library writes goes through :func:`write_json`, and every
one it reads through :func:`read_json`; every result CSV goes through :func:`write_csv`.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from numbers import Real
from typing import Mapping

import numpy as np

from .errors import InvalidArgumentError
from .orders import LinearOrder
from .rng import derive_rng

__all__ = [
    "PROB_TOL",
    "IssueSpace",
    "SaliencyDistribution",
    "MarginalPopulation",
    "pair_marginal",
    "sample_pairs",
    "load_population",
    "save_population",
]

PROB_TOL = 1e-9


@dataclass(frozen=True)
class IssueSpace:
    """A finite set of issues sharing a common outcome count ``n``."""

    issue_ids: tuple
    n: int

    def __post_init__(self):
        ids = tuple(self.issue_ids)
        object.__setattr__(self, "issue_ids", ids)
        if len(ids) < 1:
            raise InvalidArgumentError("issue space needs at least one issue")
        if len(set(ids)) != len(ids):
            raise InvalidArgumentError("issue ids must be unique")
        by_key: dict = {}  # files and configs name an issue by its text form
        for issue in ids:
            if (key := str(issue)) in by_key:
                raise InvalidArgumentError(
                    f"issue ids must be unique as text: {by_key[key]!r} and {issue!r} are both {key!r}"
                )
            by_key[key] = issue
        object.__setattr__(self, "_by_key", by_key)
        if self.n < 2:
            raise InvalidArgumentError("issues need at least 2 outcomes")

    def __contains__(self, issue) -> bool:
        return issue in self.id_set

    @cached_property
    def id_set(self) -> frozenset:
        return frozenset(self.issue_ids)

    def sorted_ids(self) -> list:
        return sorted(self.issue_ids, key=str)

    def resolve(self, raw):
        """The issue id whose text form is ``str(raw)``, as files and configs name it."""
        try:
            return self._by_key[str(raw)]
        except KeyError:
            raise InvalidArgumentError(f"unknown issue {raw!r}") from None


@dataclass(frozen=True)
class SaliencyDistribution:
    """Probability of each issue being drawn into the sample."""

    weights: Mapping[object, float]

    def __post_init__(self):
        weights = dict(self.weights)
        object.__setattr__(self, "weights", weights)
        if bad := [issue for issue, w in weights.items() if not w >= 0]:  # NaN too
            raise InvalidArgumentError(f"saliency weight on issue {bad[0]!r} must be a non-negative number")
        if not abs((total := sum(weights.values())) - 1.0) <= PROB_TOL:
            raise InvalidArgumentError(f"saliency weights sum to {total}, not 1")
        zero = [issue for issue, w in weights.items() if w == 0]
        if zero:
            warnings.warn(
                f"saliency gives zero weight to issues {zero}; they will never be sampled",
                stacklevel=3,
            )

    def __call__(self, issue) -> float:
        try:
            return self.weights[issue]
        except KeyError:
            raise InvalidArgumentError(f"unknown issue {issue!r}") from None

    @property
    def issues(self):
        return self.weights.keys()


@dataclass(frozen=True)
class MarginalPopulation:
    """Per-issue sparse distributions over linear orders."""

    per_issue: Mapping[object, Mapping[LinearOrder, float]]

    def __post_init__(self):
        per_issue = {issue: dict(dist) for issue, dist in self.per_issue.items()}
        object.__setattr__(self, "per_issue", per_issue)
        for issue, dist in per_issue.items():
            if not all(p >= 0 for p in dist.values()):  # NaN too
                raise InvalidArgumentError(f"probabilities on issue {issue!r} must be non-negative numbers")
            if not abs((total := sum(dist.values())) - 1.0) <= PROB_TOL:
                raise InvalidArgumentError(
                    f"marginal on issue {issue!r} sums to {total}, not 1"
                )

    def distribution(self, issue) -> Mapping[LinearOrder, float]:
        try:
            return self.per_issue[issue]
        except KeyError:
            raise InvalidArgumentError(f"unknown issue {issue!r}") from None

    @property
    def issues(self):
        return self.per_issue.keys()


def pair_marginal(population: MarginalPopulation, issue, pair) -> float:
    """Probability that a random individual ranks ``pair[0]`` above ``pair[1]``."""
    c, cp = tuple(pair)
    if c == cp:
        raise InvalidArgumentError("pair must contain two distinct outcomes")
    dist = population.distribution(issue)
    for order in dist:
        if not (0 <= c < order.n and 0 <= cp < order.n):
            raise InvalidArgumentError(f"pair ({c},{cp}) out of range for n={order.n}")
    return sum(p for order, p in dist.items() if order.prefers(c, cp))


def _cells(saliency: SaliencyDistribution, population: MarginalPopulation):
    """Positive-mass (issue, ordering) cells in canonical order, and their probabilities."""
    cells = []
    probs = []
    for issue in sorted(saliency.issues, key=str):
        w = saliency(issue)
        if w == 0:
            continue
        dist = population.distribution(issue)
        for order in sorted(dist, key=lambda o: o.ranking):
            p = dist[order]
            if p > 0:
                cells.append((issue, order))
                probs.append(w * p)
    arr = np.asarray(probs, dtype=float)
    return cells, arr / arr.sum()


def sample_pairs(
    saliency: SaliencyDistribution,
    population: MarginalPopulation,
    n: int,
    seed: int,
) -> tuple[list, np.ndarray]:
    """Draw ``n`` i.i.d. pairs, bit-reproducible per seed, in one categorical draw over the
    positive-mass (issue, ordering) cells: returns the cells in canonical order and each
    pair's cell index."""
    if n < 0:
        raise InvalidArgumentError("sample size must be non-negative")
    cells, probs = _cells(saliency, population)
    return cells, derive_rng(seed).choice(len(cells), size=n, p=probs)


def save_population(
    path,
    space: IssueSpace,
    saliency: SaliencyDistribution,
    population: MarginalPopulation,
) -> None:
    doc = {
        "issues": list(space.issue_ids),
        "N": space.n,
        "saliency": {str(issue): saliency(issue) for issue in space.issue_ids},
        "marginals": {
            str(issue): {
                str(order): p
                for order, p in sorted(
                    population.distribution(issue).items(), key=lambda kv: kv[0].ranking
                )
            }
            for issue in space.issue_ids
        },
    }
    write_json(path, doc)


def read_json(path, what: str) -> dict:
    """The JSON object in the ``what`` file at ``path``; a missing or unreadable file, bad
    JSON or another top-level value raises an error that names the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InvalidArgumentError(f"{what} file {path} not found") from None
    except OSError as exc:
        raise InvalidArgumentError(f"{what} file {path} cannot be read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"{what} file {path} must hold a JSON object")
    return doc


@dataclass(frozen=True, eq=False)
class CodedRows:
    """A JSON array of objects given as code columns, the way :func:`write_json` takes a space
    file's ``profiles``: object ``m`` maps each of the one or more distinct ``keys``, in order, to
    ``texts[k][codes[m, k]]``, for the (objects x keys) integer matrix ``codes``.  ``json.dumps``
    refuses it, so :func:`write_json` lays it out with :func:`_coded_rows`."""

    keys: tuple
    texts: tuple  # per key: its distinct JSON scalars, such as ordering texts
    codes: np.ndarray


# Encodes on one line with the C encoder; NUL separates items, since JSON text holds a raw
# control character nowhere else (a string escapes it, as it escapes a newline).
_ONE_LINE = json.JSONEncoder(separators=("\0", ": "))


def _keys(keys) -> list:
    """The object keys ``keys`` as the C encoder writes them: each with ``": 0"`` after it, NUL between."""
    return _ONE_LINE.encode(dict.fromkeys(keys, 0))[1:-4].split(": 0\0")


def _coded_rows(rows: CodedRows) -> str:
    """``json.dumps`` of the objects of ``rows``, indented by two.  Each key's ``"key": text``
    line is encoded once per distinct text, the lines are gathered by the objects' codes, and
    the array is joined once on ``",\n"``, the separator between any two of its lines: each
    object's opening and closing brackets are baked into its first and last line."""
    if not len(rows.codes):
        return "[]"
    lines, offsets, last = [], [], len(rows.keys) - 1
    for k, (key, texts) in enumerate(zip(_keys(rows.keys), rows.texts)):
        start, end = "  {\n" if k == 0 else "", "\n  }" if k == last else ""
        offsets.append(len(lines))
        lines += [f"{start}    {key}: {text}{end}" for text in _ONE_LINE.encode(list(texts))[1:-1].split("\0")]
    gathered = np.array(lines, dtype=object)[rows.codes + np.array(offsets)]
    return "[\n" + ",\n".join(gathered.ravel().tolist()) + "\n]"


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` in one ``write``, as the bytes of ``json.dumps(doc, indent=2)``,
    with each :class:`CodedRows` in it read as its list of objects, rendered by :func:`_coded_rows`
    with no object built per member.  ``json.dumps`` refuses a ``CodedRows``, so a container that
    holds one is laid out here item by item, each item re-indented by replacing its newlines
    (exact, as no string holds one); any other value it refuses raises its ``TypeError``, and
    nothing is written."""

    def indented(value) -> str:
        try:
            return json.dumps(value, indent=2)
        except TypeError:
            if isinstance(value, CodedRows):
                return _coded_rows(value)
            if isinstance(value, dict):
                pairs = zip(_keys(value), map(indented, value.values()))
                return "{\n  " + ",\n  ".join(f"{key}: " + text.replace("\n", "\n  ") for key, text in pairs) + "\n}"
            if isinstance(value, (list, tuple)):
                return "[\n  " + ",\n  ".join(indented(item).replace("\n", "\n  ") for item in value) + "\n]"
            raise

    text = indented(doc)  # before the file is opened, so a refused value writes nothing
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Write a result CSV: the ``header`` row, then ``rows``, each float cell as ``.9g`` text."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{cell:.9g}" if isinstance(cell, float) else cell for cell in row] for row in rows)


def expect(value, kind: type, key, what: str):
    """``value``, read from ``key`` of a ``what`` file, if it is a ``kind``; JSON's true and
    false are a ``bool`` only, not a number."""
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise InvalidArgumentError(
        f"{what} file key {key!r}: expected {kind.__name__}, got {value!r}"
    )


def read_outcome_count(n, what: str) -> int:
    """A ``what`` file's N: an integer of at least 2."""
    if (n := expect(n, int, "N", what)) < 2:
        raise InvalidArgumentError(f"{what} file key 'N': issues need at least 2 outcomes, got {n}")
    return n


def read_issue_space(issues, n, what: str) -> IssueSpace:
    """A ``what`` file's issues and N; an issue id is text or an integer, like config key ``issue``."""
    if bad := [i for i in expect(issues, list, "issues", what) if type(i) not in (str, int)]:
        raise InvalidArgumentError(f"{what} file key 'issues': expected text or integers, got {bad[0]!r}")
    n = read_outcome_count(n, what)
    try:
        return IssueSpace(tuple(issues), n)
    except InvalidArgumentError as exc:  # no issue, or two ids with one text form
        raise InvalidArgumentError(f"{what} file key 'issues': {exc}") from None


def load_population(path):
    """Read a population file; returns (IssueSpace, SaliencyDistribution, MarginalPopulation).

    A malformed entry raises an error that names its key."""
    doc = read_json(path, "population")
    _expect = partial(expect, what="population")
    try:
        issues, n = doc["issues"], doc["N"]
        saliency_raw, marginals_raw = doc["saliency"], doc["marginals"]
    except KeyError as exc:
        raise InvalidArgumentError(f"population file missing key {exc}") from exc
    space = read_issue_space(issues, n, "population")
    saliency = SaliencyDistribution(
        {
            space.resolve(key): float(_expect(w, Real, key))
            for key, w in _expect(saliency_raw, dict, "saliency").items()
        }
    )
    per_issue = {}
    for key, dist in _expect(marginals_raw, dict, "marginals").items():
        text_of: dict = {}  # ordering -> the text that listed it
        per_issue[space.resolve(key)] = marginal = {}
        for text, p in _expect(dist, dict, key).items():
            order = LinearOrder.from_string(text)
            if order in text_of:
                raise InvalidArgumentError(
                    f"population file key {key!r}: {text_of[order]!r} and {text!r} are the same ordering"
                )
            text_of[order], marginal[order] = text, float(_expect(p, Real, text))
    for order_dist in per_issue.values():
        for order in order_dist:
            if order.n != n:
                raise InvalidArgumentError(
                    f"ordering {order} has {order.n} outcomes, expected {n}"
                )
    population = MarginalPopulation(per_issue)
    return space, saliency, population
