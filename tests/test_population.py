import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repsoc import (
    InvalidArgumentError,
    IssueSpace,
    LinearOrder,
    MarginalPopulation,
    SaliencyDistribution,
    load_population,
    pair_marginal,
    sample_pairs,
    save_population,
)
from repsoc.population import CodedRows, write_json
from tests.conftest import uniform_population


def lo(text):
    return LinearOrder.from_string(text)


class TestIssueSpace:
    def test_ids_must_be_unique_as_text(self):
        # files and configs name an issue by its text, which must pick out one id
        with pytest.raises(InvalidArgumentError, match="'1' and 1 are both '1'"):
            IssueSpace(("1", 1), 2)
        with pytest.raises(InvalidArgumentError, match="unique"):
            IssueSpace(("a", "b", "a"), 2)
        space = IssueSpace(("1", 2), 2)
        assert (space.resolve(1), space.resolve("2")) == ("1", 2)


class TestSaliency:
    def test_must_sum_to_one(self):
        with pytest.raises(InvalidArgumentError):
            SaliencyDistribution({"a": 0.5, "b": 0.6})

    def test_negative_rejected(self):
        for weight in (-0.1, math.nan):
            with pytest.raises(InvalidArgumentError, match="'a' must be a non-negative number"):
                SaliencyDistribution({"a": weight, "b": 1.1})

    def test_zero_weight_warns(self):
        with pytest.warns(UserWarning):
            SaliencyDistribution({"a": 1.0, "b": 0.0})

    def test_unknown_issue(self):
        saliency = SaliencyDistribution({issue: 0.25 for issue in "abcd"})
        assert saliency("a") == 0.25
        with pytest.raises(InvalidArgumentError):
            saliency("missing")


class TestMarginalPopulation:
    def test_validates_each_issue(self):
        with pytest.raises(InvalidArgumentError):
            MarginalPopulation({"i": {lo("0>1"): 0.7, lo("1>0"): 0.7}})
        for mass in (-0.5, math.nan):
            with pytest.raises(InvalidArgumentError, match="'i' must be non-negative numbers"):
                MarginalPopulation({"i": {lo("0>1"): mass, lo("1>0"): 1.5}})

    def test_unknown_issue(self):
        pop = MarginalPopulation({"i": {lo("0>1>2"): 1.0}})
        assert pop.distribution("i") == {lo("0>1>2"): 1.0}
        with pytest.raises(InvalidArgumentError):
            pop.distribution("missing")


class TestPairMarginal:
    def test_unanimous(self):
        pop = MarginalPopulation({"i": {lo("0>1>2"): 1.0}})
        assert pair_marginal(pop, "i", (0, 1)) == 1.0
        assert pair_marginal(pop, "i", (1, 0)) == 0.0

    def test_uniform_is_half_everywhere(self):
        pop = uniform_population(("i",), 3)
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert pair_marginal(pop, "i", (a, b)) == pytest.approx(0.5)

    def test_errors(self):
        pop = MarginalPopulation({"i": {lo("0>1"): 1.0}})
        with pytest.raises(InvalidArgumentError):
            pair_marginal(pop, "i", (1, 1))
        with pytest.raises(InvalidArgumentError):
            pair_marginal(pop, "i", (0, 7))


class TestSamplePairs:
    def test_deterministic_population(self):
        saliency = SaliencyDistribution({"i": 1.0})
        pop = MarginalPopulation({"i": {lo("1>0"): 1.0}})
        cells, pairs = sample_pairs(saliency, pop, 25, seed=1)
        assert len(pairs) == 25
        assert all(cells[c] == ("i", lo("1>0")) for c in pairs)

    def test_same_seed_same_sample(self):
        saliency = SaliencyDistribution({"i": 0.25, "j": 0.75})
        pop = uniform_population(("i", "j"), 3)
        cells_a, a = sample_pairs(saliency, pop, 500, seed=7)
        cells_b, b = sample_pairs(saliency, pop, 500, seed=7)
        assert cells_a == cells_b and (a == b).all()
        cells_c, c = sample_pairs(saliency, pop, 500, seed=8)
        assert cells_c == cells_a and (a != c).any()

    def test_issue_frequencies(self):
        n = 100_000
        saliency = SaliencyDistribution({"i": 0.25, "j": 0.75})
        pop = uniform_population(("i", "j"), 2)
        cells, pairs = sample_pairs(saliency, pop, n, seed=3)
        freq_i = sum(1 for c in pairs.tolist() if cells[c][0] == "i") / n
        se = math.sqrt(0.25 * 0.75 / n)
        assert abs(freq_i - 0.25) <= 3 * se

    def test_counts_multiset(self):
        saliency = SaliencyDistribution({"i": 1.0})
        pop = MarginalPopulation({"i": {lo("0>1"): 0.5, lo("1>0"): 0.5}})
        cells, pairs = sample_pairs(saliency, pop, 40, seed=2)
        assert cells == [("i", lo("0>1")), ("i", lo("1>0"))]  # canonical (issue, ranking) order
        counts = np.bincount(pairs, minlength=len(cells))
        assert counts.sum() == 40 and counts.all()

    def test_empty_sample(self):
        saliency = SaliencyDistribution({"i": 1.0})
        pop = MarginalPopulation({"i": {lo("0>1"): 1.0}})
        cells, pairs = sample_pairs(saliency, pop, 0, seed=0)
        assert cells == [("i", lo("0>1"))] and pairs.shape == (0,)

    def test_negative_size_rejected(self):
        saliency = SaliencyDistribution({"i": 1.0})
        pop = MarginalPopulation({"i": {lo("0>1"): 1.0}})
        with pytest.raises(InvalidArgumentError):
            sample_pairs(saliency, pop, -1, seed=0)


def test_population_file_roundtrip(tmp_path):
    space = IssueSpace(("i", "j"), 3)
    saliency = SaliencyDistribution({"i": 0.4, "j": 0.6})
    pop = MarginalPopulation(
        {
            "i": {lo("0>1>2"): 0.25, lo("2>1>0"): 0.75},
            "j": {lo("1>0>2"): 1.0},
        }
    )
    path = tmp_path / "population.json"
    save_population(path, space, saliency, pop)
    space2, saliency2, pop2 = load_population(path)
    assert space2 == space
    assert saliency2("j") == pytest.approx(0.6)
    assert pop2.distribution("i")[lo("2>1>0")] == pytest.approx(0.75)
    assert pop2.distribution("j")[lo("1>0>2")] == 1.0


def test_population_file_is_json_indented_by_two(tmp_path):
    """A population file is the text of ``json.dumps(doc, indent=2)``, written in one piece;
    each issue's orderings are listed by ranking."""
    space = IssueSpace(("j", 3), 3)
    saliency = SaliencyDistribution({"j": 0.25, 3: 0.75})
    pop = MarginalPopulation({"j": {lo("2>1>0"): 0.5, lo("0>2>1"): 0.5}, 3: {lo("1>0>2"): 1.0}})
    path = tmp_path / "population.json"
    save_population(path, space, saliency, pop)
    doc = {
        "issues": ["j", 3],
        "N": 3,
        "saliency": {"j": 0.25, "3": 0.75},
        "marginals": {"j": {"0>2>1": 0.5, "2>1>0": 0.5}, "3": {"1>0>2": 1.0}},
    }
    assert path.read_text() == json.dumps(doc, indent=2)


def test_population_file_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"issues": ["i"], "N": 2}')
    with pytest.raises(InvalidArgumentError):
        load_population(path)


def test_population_file_ordering_listed_twice_on_an_issue(tmp_path):
    """Two texts of one ordering on one issue would merge, the last mass winning; here the
    masses sum to 1.5, yet the merged marginal would be a valid 0.5/0.5 one."""
    path = tmp_path / "twice.json"
    doc = {"issues": ["i"], "N": 2, "saliency": {"i": 1.0},
           "marginals": {"i": {"0>1": 0.5, "0 > 1": 0.5, "1>0": 0.5}}}
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidArgumentError, match="key 'i': '0>1' and '0 > 1' are the same ordering"):
        load_population(path)


def test_sampling_matches_marginals(rng):
    """Empirical order frequencies track the configured marginal masses."""
    saliency = SaliencyDistribution({"i": 1.0})
    pop = MarginalPopulation({"i": {lo("0>1>2"): 0.2, lo("1>0>2"): 0.5, lo("2>1>0"): 0.3}})
    n = 30_000
    cells, pairs = sample_pairs(saliency, pop, n, seed=11)
    counts = dict(zip(cells, np.bincount(pairs, minlength=len(cells)).tolist()))
    for order, p in pop.distribution("i").items():
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts.get(("i", order), 0) / n - p) <= 4 * se


# Text that JSON must escape or may confuse a writer that splits and re-indents encoded text:
# quotes, backslashes, newlines, NUL, braces, separators and non-ASCII.
json_texts = st.text(st.sampled_from('a"\\\n\r\t\0{}[],: é€\U0001f600') | st.characters(), max_size=6)
json_floats = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
json_keys = json_texts | st.integers() | json_floats | st.booleans() | st.none()
json_scalars = json_texts | st.integers() | json_floats | st.booleans() | st.none()
empty = st.sampled_from([[], (), {}])
flat_objects = st.dictionaries(json_keys, json_scalars, min_size=1, max_size=4)
flat_arrays = st.lists(json_scalars, min_size=1, max_size=4)


@st.composite
def coded_rows(draw):
    """A space file's ``profiles`` as ``write_json`` takes them: zero to four objects over one
    to three distinct keys, each key's value one of its texts."""
    keys = draw(st.lists(json_texts, min_size=1, max_size=3, unique=True))
    texts = [draw(st.lists(json_texts, min_size=1, max_size=3)) for _ in keys]
    rows = draw(st.lists(st.tuples(*(st.integers(0, len(column) - 1) for column in texts)), max_size=4))
    dtype = draw(st.sampled_from([np.uint8, np.intp]))
    return CodedRows(tuple(keys), tuple(texts), np.array(rows, dtype=dtype).reshape(len(rows), len(keys)))


def expanded(doc):
    """``doc`` with each ``CodedRows`` in it read as its list of objects."""
    if isinstance(doc, CodedRows):
        return [dict(zip(doc.keys, map(list.__getitem__, doc.texts, row))) for row in doc.codes.tolist()]
    if isinstance(doc, dict):
        return {key: expanded(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(expanded, doc))
    return doc


json_docs = st.recursive(
    json_scalars | empty | coded_rows(),  # alone, or nested as a product file nests them
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4)
    | st.lists(flat_objects, max_size=4)  # objects, as rows once were
    | st.lists(flat_arrays, max_size=4)  # a graph's edges
    | st.lists(flat_objects | flat_arrays | inner, max_size=4)  # rows mixed with other items
    | st.lists(st.dictionaries(json_keys, json_scalars | empty, min_size=1, max_size=3), max_size=3)
    | st.lists(st.lists(json_scalars | empty, min_size=1, max_size=3), max_size=3)
    | st.tuples(inner, inner),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=json_docs)
def test_write_json_writes_the_bytes_of_json_dumps_indented_by_two(doc, tmp_path):
    """``write_json`` gives ``json.dumps`` every value that holds no ``CodedRows``, renders
    ``CodedRows`` from its codes and lays out the containers that hold one; its bytes are
    those of ``json.dumps(doc, indent=2)`` for any document, each ``CodedRows`` read as its
    objects."""
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == json.dumps(expanded(doc), indent=2).encode()


def test_write_json_covers_every_shape_of_the_differential(tmp_path):
    """The cases the differential must reach, each spelled out: nested containers, empty
    ones, lists of flat objects or arrays alone and mixed, rows that hold empty containers,
    non-text keys, non-finite floats, and ``CodedRows`` of zero, one and several objects,
    alone and nested as an explicit and a product space file nest them."""
    docs = [
        {},
        [],
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        {"profiles": [{"a": "0>1", "b": "1>0"}, {"a": "1>0", "b": "0>1"}]},
        [{"x": 1}, [1, {"y": None}], {"z": {}}, "}\0{", {"w": -0.0}],
        {1: math.nan, 2.5: math.inf, True: -math.inf, None: -0.0, "\"\\\n{é": ["}\0{\n"]},
        ({"k": ("t", 1)}, ({"a": 1}, {"b": False})),
        {"edges": [[0, 3], (1, 0)], "rows": [[[], []], [[]]], "objects": [{"a": [], "b": {}}, {"c": 1}]},
        [{"notes": [], "n": 1}, [{}], ["]\0["]],
        "top", 3, None,
        CodedRows(("a",), (["0>1"],), np.zeros((0, 1), dtype=np.uint8)),
        CodedRows(("a",), (["0>1", "1>0"],), np.array([[1]], dtype=np.uint8)),
        {"profiles": CodedRows(("a", "b"), (["0>1", "1>0"], ["1>0"]), np.array([[0, 0], [1, 0], [1, 0]]))},
        {"blocks": [
            {"issues": ["k\"é"], "profiles": CodedRows(("k\"é",), (["}\0{", "\n"],), np.array([[1], [0]]))},
            {"issues": [3], "profiles": CodedRows(("3",), (["2>0>1"],), np.zeros((1, 1), dtype=np.uint8))},
        ]},
        [CodedRows(("x",), (["€"],), np.zeros((2, 1), dtype=np.uint8)), [], {"rows": [[1, 2]]}],
    ]
    for doc in docs:
        path = tmp_path / "doc.json"
        write_json(path, doc)
        assert path.read_bytes() == json.dumps(expanded(doc), indent=2).encode(), doc


@pytest.mark.parametrize("doc", [
    {"profiles": CodedRows(("a",), (["0>1"],), np.zeros((1, 1), dtype=np.uint8)), "n": np.int64(1)},
    [CodedRows(("a",), (["0>1"],), np.zeros((1, 1), dtype=np.uint8)), {"n": np.int64(1)}],
    {(0, 1): CodedRows(("a",), (["0>1"],), np.zeros((1, 1), dtype=np.uint8))},
])
def test_write_json_refuses_what_json_dumps_refuses_beside_coded_rows(doc, tmp_path):
    """A value ``json`` cannot encode, or a key it cannot write, in a container that also
    holds ``CodedRows`` raises ``TypeError`` as ``json.dumps`` would, and no file is written."""
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_json(path, doc)
    assert not path.exists()
