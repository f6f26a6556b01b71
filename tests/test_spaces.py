import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repsoc import (
    CandidateSpace,
    CapacityError,
    InvalidArgumentError,
    IssueSpace,
    LinearOrder,
    Profile,
    all_linear_orders,
    load_candidate_space,
    save_candidate_space,
)
from repsoc.spaces import DEFAULT_ENUMERATION_CAP
from tests.conftest import candidate_spaces, member_rows
from tests.mechanism_reference import SampleSet, majority_vote, ordered_codes


def lo(text):
    return LinearOrder.from_string(text)


def test_all_linear_orders_canonical():
    orders = all_linear_orders(3)
    assert len(orders) == 6
    assert [o.ranking for o in orders] == sorted(o.ranking for o in orders)
    assert orders[0] == lo("0>1>2")


class TestContains:
    def test_full_always(self):
        space = CandidateSpace.full(IssueSpace(("i", "j"), 3))
        assert space.contains(Profile({"i": lo("2>1>0"), "j": lo("0>2>1")}))

    def test_explicit(self):
        members = [
            Profile({"i": lo("0>1"), "j": lo("0>1")}),
            Profile({"i": lo("1>0"), "j": lo("0>1")}),
        ]
        space = CandidateSpace.explicit(members, IssueSpace(("i", "j"), 2))
        assert space.contains(members[0])
        assert not space.contains(Profile({"i": lo("1>0"), "j": lo("1>0")}))

    def test_product(self):
        f1 = [Profile({"i": lo("0>1")}), Profile({"i": lo("1>0")})]
        f2 = [Profile({"j": lo("0>1")})]
        space = CandidateSpace.product(
            ((("i",), f1), (("j",), f2)), IssueSpace(("i", "j"), 2)
        )
        assert space.contains(Profile({"i": lo("1>0"), "j": lo("0>1")}))
        assert not space.contains(Profile({"i": lo("1>0"), "j": lo("1>0")}))

    def test_issue_space_mismatch(self):
        space = CandidateSpace.full(IssueSpace(("i", "j"), 2))
        with pytest.raises(InvalidArgumentError):
            space.contains(Profile({"i": lo("0>1")}))
        with pytest.raises(InvalidArgumentError):
            space.contains(Profile({"i": lo("0>1"), "j": lo("0>1>2")}))


class TestEnumerate:
    def test_full_counts(self):
        assert len(list(CandidateSpace.full(IssueSpace(("a", "b"), 2)).enumerate_profiles())) == 4
        space = CandidateSpace.full(IssueSpace(("a", "b"), 3))
        assert space.size() == 36
        assert len(list(space.enumerate_profiles())) == 36

    def test_product_count(self):
        f1 = [Profile({"i": lo("0>1>2")}), Profile({"i": lo("1>0>2")})]
        f2 = [Profile({"j": o}) for o in all_linear_orders(3)[:3]]
        space = CandidateSpace.product(
            ((("i",), f1), (("j",), f2)), IssueSpace(("i", "j"), 3)
        )
        assert space.size() == 6
        members = list(space.enumerate_profiles())
        assert len(members) == len(set(members)) == 6

    def test_lexicographic_order(self):
        space = CandidateSpace.full(IssueSpace(("i", "j"), 2))
        keys = [p.serialize() for p in space.enumerate_profiles()]
        assert keys == sorted(keys)
        f1 = [Profile({"i": lo("1>0")}), Profile({"i": lo("0>1")})]
        f2 = [Profile({"j": lo("1>0")}), Profile({"j": lo("0>1")})]
        product = CandidateSpace.product(
            ((("i",), f1), (("j",), f2)), IssueSpace(("i", "j"), 2)
        )
        keys = [p.serialize() for p in product.enumerate_profiles()]
        assert keys == sorted(keys)

    def test_cap(self):
        space = CandidateSpace.full(IssueSpace(tuple(range(5)), 4))  # 24**5 profiles
        with pytest.raises(CapacityError, match=f"over the cap of {DEFAULT_ENUMERATION_CAP}$"):
            list(space.enumerate_profiles())


class TestValidation:
    def test_explicit_must_be_nonempty_distinct(self):
        issue_space = IssueSpace(("i",), 2)
        with pytest.raises(InvalidArgumentError):
            CandidateSpace.explicit([], issue_space)
        p = Profile({"i": lo("0>1")})
        with pytest.raises(InvalidArgumentError):
            CandidateSpace.explicit([p, p], issue_space)

    def test_explicit_profiles_cover_issue_space(self):
        with pytest.raises(InvalidArgumentError):
            CandidateSpace.explicit(
                [Profile({"i": lo("0>1")})], IssueSpace(("i", "j"), 2)
            )

    def test_product_blocks_partition(self):
        f = [Profile({"i": lo("0>1")})]
        with pytest.raises(InvalidArgumentError):
            CandidateSpace.product(((("i",), f),), IssueSpace(("i", "j"), 2))
        with pytest.raises(InvalidArgumentError):
            CandidateSpace.product(
                ((("i",), f), (("i",), f)), IssueSpace(("i",), 2)
            )

    def test_product_factor_with_wrong_outcome_count(self):
        factor = [Profile({"i": lo("0>1")})]
        with pytest.raises(InvalidArgumentError, match="outcome count"):
            CandidateSpace.product(((("i",), factor),), IssueSpace(("i",), 3))

    def test_unknown_variant(self):
        with pytest.raises(InvalidArgumentError):
            CandidateSpace("weird", IssueSpace(("i",), 2))


class TestFileFormat:
    def test_roundtrip_full(self, tmp_path):
        space = CandidateSpace.full(IssueSpace(("i", "j"), 3))
        path = tmp_path / "space.json"
        save_candidate_space(path, space)
        loaded = load_candidate_space(path)
        assert loaded.variant == "full"
        assert loaded.size() == 36

    def test_roundtrip_explicit(self, tmp_path):
        members = [
            Profile({"i": lo("0>1>2"), "j": lo("2>0>1")}),
            Profile({"i": lo("1>0>2"), "j": lo("2>0>1")}),
        ]
        space = CandidateSpace.explicit(members, IssueSpace(("i", "j"), 3))
        path = tmp_path / "space.json"
        save_candidate_space(path, space)
        loaded = load_candidate_space(path)
        assert set(loaded.profiles) == set(members)

    def test_roundtrip_product(self, tmp_path):
        f1 = [Profile({"i": lo("0>1")}), Profile({"i": lo("1>0")})]
        f2 = [Profile({"j": lo("0>1")})]
        space = CandidateSpace.product(
            ((("i",), f1), (("j",), f2)), IssueSpace(("i", "j"), 2)
        )
        path = tmp_path / "space.json"
        save_candidate_space(path, space)
        loaded = load_candidate_space(path)
        assert loaded.variant == "product"
        assert set(loaded.enumerate_profiles()) == set(space.enumerate_profiles())

    def test_saved_text_is_json_indented_by_two(self, tmp_path):
        """A space file is the text of ``json.dumps(doc, indent=2)``, written in one piece."""
        members = [Profile({"j": lo("2>0>1"), "i": lo(text)}) for text in ("1>0>2", "0>1>2")]
        issue_space = IssueSpace(("j", "i"), 3)
        factors = ((("i",), [Profile({"i": lo("1>0>2")})]), (("j",), [Profile({"j": lo("0>2>1")})]))
        entries = [{"i": "0>1>2", "j": "2>0>1"}, {"i": "1>0>2", "j": "2>0>1"}]
        for space, doc in [
            (CandidateSpace.explicit(members, issue_space),
             {"variant": "explicit", "issues": ["j", "i"], "N": 3, "profiles": entries}),
            (CandidateSpace.product(factors, issue_space),
             {"variant": "product", "issues": ["j", "i"], "N": 3, "blocks": [
                 {"issues": ["i"], "profiles": [{"i": "1>0>2"}]},
                 {"issues": ["j"], "profiles": [{"j": "0>2>1"}]}]}),
            (CandidateSpace.full(issue_space), {"variant": "full", "issues": ["j", "i"], "N": 3}),
            # an integer id, an id that JSON escapes, and one-member blocks
            (CandidateSpace.explicit([Profile({7: lo("0>1"), 'q"é': lo("1>0")})], IssueSpace((7, 'q"é'), 2)),
             {"variant": "explicit", "issues": [7, 'q"é'], "N": 2, "profiles": [{"7": "0>1", 'q"é': "1>0"}]}),
            (CandidateSpace.product(
                (((7,), [Profile({7: lo("1>0")})]), (('q"é',), [Profile({'q"é': lo(t)}) for t in ("1>0", "0>1")])),
                IssueSpace(('q"é', 7), 2)),
             {"variant": "product", "issues": ['q"é', 7], "N": 2, "blocks": [
                 {"issues": [7], "profiles": [{"7": "1>0"}]},
                 {"issues": ['q"é'], "profiles": [{'q"é': "0>1"}, {'q"é': "1>0"}]}]}),
        ]:
            path = tmp_path / f"{space.variant}.json"
            save_candidate_space(path, space)
            assert path.read_text() == json.dumps(doc, indent=2)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"variant": "full", "issues": ["i"]}')
        with pytest.raises(InvalidArgumentError):
            load_candidate_space(path)


def test_rank_tuple_order_with_eleven_outcomes():
    """Members sort by rank tuples, so outcome 2 leads before outcome 10 (text puts "10" first)."""
    tail = tuple(range(3, 10))
    two_first, ten_first = LinearOrder((2, 0, 1, *tail, 10)), LinearOrder((10, 0, 1, 2, *tail))
    c = Profile({"a": two_first, "b": two_first})
    a = Profile({"a": two_first, "b": ten_first})
    b = Profile({"a": ten_first, "b": two_first})
    space = CandidateSpace.explicit([b, a, c], IssueSpace(("a", "b"), 11))
    assert list(space.enumerate_profiles()) == [c, a, b]
    # one vote for each ordering on "a": all three members tie
    result = majority_vote(SampleSet(((two_first, "a"), (ten_first, "a"))), space)
    assert result.tie_set_size == 3
    assert result.chosen == c


@settings(max_examples=150, deadline=None)
@given(candidate_spaces(), st.data())
def test_rows_recombine_to_the_enumeration(space, data):
    """The code blocks are the stored form: sorted distinct columns of positions in the smallest
    signed int type that holds N, sorted distinct rows, and their members' rows recombine to the
    enumeration."""
    ids, n = space.issue_space.sorted_ids(), space.issue_space.n
    rank_key = lambda profile: [profile(issue).ranking for issue in ids]  # noqa: E731
    for _, columns, _ in space._codes():
        assert all(column.dtype == np.min_scalar_type(-n) and column.shape[1:] == (n,) for column in columns)
    for issues, columns, codes in ordered_codes(space):
        assert list(issues) == [issue for issue in ids if issue in issues]
        for column in columns:
            rankings = [order.ranking for order in column]
            assert rankings == sorted(set(rankings))
        rows = codes.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))  # sorted and distinct
    blocks = member_rows(space)
    for issues, rows in blocks:
        keys = [[order.ranking for order in row] for row in rows]
        assert keys == sorted(keys)
    issues = [issue for block, _ in blocks for issue in block]
    recombined = [
        Profile(dict(zip(issues, itertools.chain.from_iterable(combo))))
        for combo in itertools.product(*(rows for _, rows in blocks))
    ]
    enumerated = list(space.enumerate_profiles())
    assert sorted(recombined, key=rank_key) == enumerated
    assert len(enumerated) == space.size()
    members = set(enumerated)
    orders = all_linear_orders(space.issue_space.n)
    probes = data.draw(st.lists(st.tuples(*(st.sampled_from(orders) for _ in ids)), max_size=10))
    for profile in enumerated[:10] + [Profile(dict(zip(ids, row))) for row in probes]:
        assert space.contains(profile) == (profile in members)


# -- the per-member reference loader ----------------------------------------


def member_profile_from_doc(doc, issue_space):
    """The loader's profile parse as it was: every (member, issue) cell parsed on its own."""
    return Profile(
        {issue_space.resolve(key): LinearOrder.from_string(text) for key, text in doc.items()}
    )


def member_load_candidate_space(path):
    with open(path) as fh:
        doc = json.load(fh)
    issue_space = IssueSpace(tuple(doc["issues"]), int(doc["N"]))
    if doc["variant"] == "full":
        return CandidateSpace.full(issue_space)
    if doc["variant"] == "explicit":
        profiles = [member_profile_from_doc(p, issue_space) for p in doc["profiles"]]
        return CandidateSpace.explicit(profiles, issue_space)
    blocks = [
        (
            tuple(issue_space.resolve(i) for i in block["issues"]),
            [member_profile_from_doc(p, issue_space) for p in block["profiles"]],
        )
        for block in doc["blocks"]
    ]
    return CandidateSpace.product(blocks, issue_space)


def malformed(doc, data) -> dict:
    """Copies of a saved explicit or product space file, each with one fault, named by
    the text its error holds; "re-texted" only writes one ordering in another text."""
    blocks = doc["blocks"] if doc["variant"] == "product" else [doc]
    b = data.draw(st.integers(0, len(blocks) - 1))
    n, key = doc["N"], data.draw(st.sampled_from(sorted(blocks[b]["profiles"][0])))
    spaced = lambda text: text.replace(">", " > ")  # noqa: E731  parses to the same order
    faults = {
        "must be distinct": lambda entries: entries.append(dict(entries[0])),
        "must be distinct ": lambda entries: entries.append(
            {k: spaced(text) for k, text in entries[0].items()}
        ),
        "wrong outcome count": lambda entries: entries[-1].update(
            {key: ">".join(map(str, range(n + 1)))}
        ),
        "does not cover": lambda entries: entries[0].pop(key),
        "unknown issue": lambda entries: entries[-1].update({"zz": entries[-1][key]}),
        "re-texted": lambda entries: entries[-1].update({key: spaced(entries[-1][key])}),
    }
    if len(blocks) > 1:  # an issue of another block
        other = blocks[(b + 1) % len(blocks)]["issues"][0]
        faults["does not cover "] = lambda entries: entries[0].update({str(other): entries[0][key]})
    docs = {}
    for name, fault in faults.items():
        docs[name] = json.loads(json.dumps(doc))
        fault((docs[name]["blocks"][b] if doc["variant"] == "product" else docs[name])["profiles"])
    return docs


def load_outcome(load, path):
    """The members that ``load`` reads from ``path``, or the text of the error it raises."""
    try:
        space = load(path)
    except InvalidArgumentError as exc:
        return str(exc)
    return space.variant, space.issue_space, space.blocks


@settings(max_examples=150, deadline=None)
@given(candidate_spaces(), st.data())
def test_load_round_trip_matches_the_per_member_loader(space, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.json"
        save_candidate_space(path, space)
        loaded = load_candidate_space(path)
        reference = member_load_candidate_space(path)
        faulty = {} if space.variant == "full" else malformed(json.loads(path.read_text()), data)
        for k, (name, doc) in enumerate(faulty.items()):
            path = Path(tmp) / f"faulty{k}.json"  # a new file: rewriting one can flush the disk
            path.write_text(json.dumps(doc))
            outcome = load_outcome(load_candidate_space, path)
            assert outcome == load_outcome(member_load_candidate_space, path), name
            if name == "re-texted":
                assert outcome == (loaded.variant, loaded.issue_space, loaded.blocks)
            else:
                assert name.strip() in outcome
    for other in (space, reference):
        assert (loaded.variant, loaded.issue_space) == (other.variant, other.issue_space)
        assert loaded.blocks == other.blocks  # equal members, in the same order
        assert loaded.profiles == other.profiles
    ids = space.issue_space.sorted_ids()
    orders = all_linear_orders(space.issue_space.n)
    probes = data.draw(st.lists(st.tuples(*(st.sampled_from(orders) for _ in ids)), max_size=10))
    for profile in [Profile(dict(zip(ids, row))) for row in probes]:
        assert loaded.contains(profile) == space.contains(profile)


@pytest.mark.parametrize(
    "entries, named",
    [
        ([{"a": "0>1"}, {"zz": "1>0"}, {"a": ["0>1"]}], "unknown issue 'zz'"),
        ([{"a": "0>1"}, {"a": ["0>1"]}, {"zz": "1>0"}], "key 'a': expected str"),
        ([{"a": "0>1"}, {"a": "0>x"}, ["a"]], "cannot parse linear order '0>x'"),
        ([{"a": "0>1"}, ["a"], {"a": "0>x"}], "expected dict"),
    ],
)
def test_the_first_fault_in_file_order_raises_first(tmp_path, entries, named):
    """An unknown key, a value that is no text, a bad ordering text and an entry that is no
    object: whichever comes first in the file names the error."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"variant": "explicit", "issues": ["a"], "N": 2, "profiles": entries}))
    with pytest.raises(InvalidArgumentError, match=named):
        load_candidate_space(path)


def test_loading_builds_one_order_per_distinct_text(tmp_path, count_new_orders):
    rng = np.random.default_rng(14)
    orders = all_linear_orders(4)
    issues = ("a", "b", "c")
    rows = {tuple(int(k) for k in rng.integers(0, 24, size=3)) for _ in range(2600)}
    profiles = [Profile({i: orders[k] for i, k in zip(issues, row)}) for row in sorted(rows)[:2000]]
    path = tmp_path / "space.json"
    save_candidate_space(path, CandidateSpace.explicit(profiles, IssueSpace(issues, 4)))
    texts = {text for entry in json.loads(path.read_text())["profiles"] for text in entry.values()}
    built = count_new_orders()
    space = load_candidate_space(path)
    assert space.size() == 2000
    assert len(built) <= len(texts) == 24
    assert {str(order) for order in built} == texts


def same_codes(a, b) -> bool:
    """Whether two code-block tuples hold equal issues and arrays of equal dtypes."""
    return len(a) == len(b) and all(
        issues == other_issues
        and len(columns) == len(other_columns)
        and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(columns, other_columns))
        and codes.dtype == other_codes.dtype and np.array_equal(codes, other_codes)
        for (issues, columns, codes), (other_issues, other_columns, other_codes) in zip(a, b)
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_given_orderings_encode_as_their_saved_file_loads(data):
    """Profiles that hold their own equal ``LinearOrder`` objects, in blocks whose issues
    interleave in sorted-id order, give the codes their saved file loads to."""
    n = data.draw(st.integers(2, 4), "n")
    issues = tuple(f"i{j}" for j in range(data.draw(st.integers(1, 4), "issues")))
    issue_space = IssueSpace(issues, n)
    rankings = [order.ranking for order in all_linear_orders(n)]
    label = data.draw(st.lists(st.integers(0, 2), min_size=len(issues), max_size=len(issues)), "blocks")
    groups = [tuple(i for i, b in zip(issues, label) if b == g) for g in sorted(set(label))]

    def members(block):
        rows = data.draw(st.lists(
            st.tuples(*(st.sampled_from(rankings) for _ in block)), min_size=1, max_size=8, unique=True,
        ))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))  # a repeat raises, as it must
        # every (member, issue) holds its own ordering object, some built from numpy ints
        return [Profile({i: LinearOrder(np.array(r) if k % 2 else list(r)) for i, r in zip(block, row)})
                for k, row in enumerate(rows)]

    explicit = data.draw(st.booleans(), "explicit")
    given_blocks = [(issues, members(issues))] if explicit else [(block, members(block)) for block in groups]
    build = (lambda: CandidateSpace.explicit(given_blocks[0][1], issue_space)) if explicit else (
        lambda: CandidateSpace.product(given_blocks, issue_space))
    distinct = all(len(set(ms)) == len(ms) for _, ms in given_blocks)
    if not distinct:
        with pytest.raises(InvalidArgumentError, match="must be distinct"):
            build()
        return
    space = build()
    shared = [(block, [Profile({i: all_linear_orders(n)[rankings.index(m(i).ranking)] for i in block})
                       for m in ms]) for block, ms in given_blocks]
    reference = CandidateSpace.product(shared, issue_space)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "space.json"
        save_candidate_space(path, space)
        loaded = load_candidate_space(path)
    assert loaded.variant == space.variant
    assert [(issues, set(ms)) for issues, ms in space.blocks] == [
        (tuple(sorted(block)), set(ms)) for block, ms in given_blocks
    ]
    assert same_codes(space._codes(), loaded._codes())
    assert same_codes(space._codes(), reference._codes())
