import copy
import dataclasses
import pickle
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repsoc import (
    KENDALL,
    InvalidArgumentError,
    LinearOrder,
    Permutation,
    Profile,
    all_linear_orders,
    apply_local_permutation,
    apply_permutation,
    exact_match_score,
)
from repsoc import orders as orders_module
from repsoc.orders import concordant_pairs

permutations_of = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


def lo(text):
    return LinearOrder.from_string(text)


def inverse(sigma):
    return Permutation(tuple(sigma.mapping.index(y) for y in range(sigma.n)))


class TestLinearOrder:
    def test_roundtrip_text(self):
        assert str(lo("2>0>1")) == "2>0>1"
        assert lo("2>0>1").ranking == (2, 0, 1)

    def test_position_inverse(self):
        o = lo("2>0>1")
        assert o.position == (1, 2, 0)
        assert o.prefers(2, 1) and not o.prefers(1, 0)

    def test_hash_is_the_dataclass_hash_of_the_ranking(self):
        """Kept from construction, the hash is the value a frozen dataclass would compute,
        so sets and dicts of orderings iterate as they always have."""
        for o in (lo("2>0>1"), LinearOrder([1, 0]), LinearOrder((0,))):
            assert hash(o) == hash((o.ranking,))
        assert len({lo("1>0"), LinearOrder((1, 0)), lo("0>1")}) == 2

    def test_slots_leave_no_instance_dict(self):
        """An order holds its ranking, positions and hash in slots: no per-instance ``__dict__``,
        no new attribute, and the same equality and hash as before."""
        o = lo("2>0>1")
        assert not hasattr(o, "__dict__")
        assert LinearOrder.__slots__ == ("ranking", "position", "_hash")
        with pytest.raises((AttributeError, TypeError)):
            o.label = "x"
        for name in ("ranking", "position", "_hash"):  # frozen, though one instance serves every caller
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(o, name, (0, 1, 2))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(o, name)
        assert o == LinearOrder((2, 0, 1)) and o != lo("0>1>2") and o != (2, 0, 1)
        assert hash(o) == hash(LinearOrder([2, 0, 1])) == hash(((2, 0, 1),))
        assert {o: 1}[lo("2>0>1")] == 1

    def test_a_bad_ranking_raises_on_every_call(self):
        """No exception is cached: a bad ranking raises after good ones are cached, and again
        when it is given a second time."""
        for ranking in [(0, 1, 2), (2, 0, 1), (1, 0)]:
            LinearOrder(ranking)
        for bad in [(0, 0, 1), (0, 2), (1, 2, 3), (0, -1), (0, -3), ()]:
            for _ in range(2):
                with pytest.raises(InvalidArgumentError):
                    LinearOrder(bad)
        assert LinearOrder((2, 0, 1)).position == (1, 2, 0)

    def test_numpy_and_list_rankings_read_as_tuples(self):
        """A tuple, a list, numpy arrays and a tuple of numpy ints of one ranking give the one
        instance held for it, whose ranking is a tuple of Python ints."""
        for ranking in [(2, 0, 3, 1), (0,), (1, 0)]:
            expected = LinearOrder(ranking)
            assert type(expected.ranking) is tuple and all(type(c) is int for c in expected.ranking)
            for given in (list(ranking), np.array(ranking), np.array(ranking, dtype=np.int8), tuple(np.array(ranking))):
                assert LinearOrder(given) is expected
            assert LinearOrder.from_string(str(expected)) is expected

    @pytest.mark.parametrize("given", [
        (1.5, 0.2), "10", (0, np.float64(1.5)), ["2", "0", "1"], (1.0, 0.0), (np.float64(1.0), np.float64(0.0)),
    ])
    def test_a_non_integer_outcome_is_refused(self, given):
        """Each outcome is read as an integer, not truncated: ``(1.5, 0.2)`` and the text
        ``"10"`` are no ordering, where ``int()`` would have read both as ``1>0``.  Neither is
        ``(1.0, 0.0)``, though it equals the ranking ``(1, 0)`` held in the cache."""
        LinearOrder((1, 0))
        with pytest.raises(InvalidArgumentError, match="not an integer"):
            LinearOrder(given)

    def test_the_ranking_cache_stays_within_its_bound(self):
        """The 40,320 orderings of N = 8 overflow the cache: an evicted ordering built again is
        a new instance, equal to the one still held, with the same hash and positions."""
        bound = orders_module._interned.cache_info().maxsize
        assert bound == orders_module._INTERNED >= len(all_linear_orders(7))
        built = tuple(map(LinearOrder, permutations(range(8))))
        assert len(built) == 40320 and len(set(built)) == 40320
        assert orders_module._interned.cache_info().currsize <= bound
        assert all(o.ranking[k] == c for o in built for c, k in enumerate(o.position))
        held, rebuilt = built[0], LinearOrder(tuple(range(8)))  # the first built, evicted since
        assert rebuilt is not held and rebuilt == held and hash(rebuilt) == hash(held)
        assert rebuilt.position == held.position and {held: 1}[rebuilt] == 1

    def test_copy_deepcopy_and_pickle_round_trip(self):
        for o in (LinearOrder((2, 0, 1)), LinearOrder(tuple(range(9))[::-1])):
            for twin in (copy.copy(o), copy.deepcopy(o), pickle.loads(pickle.dumps(o)),
                         pickle.loads(pickle.dumps(o, protocol=0))):
                assert type(twin) is LinearOrder
                assert (twin, twin.ranking, twin.position, hash(twin)) == (o, o.ranking, o.position, hash(o))
            assert copy.copy(o) is o and pickle.loads(pickle.dumps(o)) is o  # held in the cache

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidArgumentError):
            LinearOrder((0, 0, 1))
        with pytest.raises(InvalidArgumentError):
            LinearOrder(())
        with pytest.raises(InvalidArgumentError):
            LinearOrder.from_string("0>x")


class TestApplyPermutation:
    def test_identity(self):
        o = lo("0>1>2")
        assert apply_permutation(o, Permutation((0, 1, 2))) == o

    def test_transposition(self):
        # swapping outcomes 0 and 2 relabels the full agreement order
        result = apply_permutation(lo("0>1>2"), Permutation.transposition(3, 0, 2))
        assert result == lo("2>1>0")

    def test_three_cycle(self):
        sigma = Permutation((1, 2, 0))  # 0 -> 1 -> 2 -> 0
        assert apply_permutation(lo("1>0>2"), sigma) == lo("2>1>0")

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            apply_permutation(lo("0>1"), Permutation((0, 1, 2)))

    @given(permutations_of)
    def test_pairwise_definition(self, data):
        ranking, mapping = data
        o = LinearOrder(tuple(ranking))
        sigma = Permutation(tuple(mapping))
        result = apply_permutation(o, sigma)
        inv = inverse(sigma)
        for a in range(o.n):
            for b in range(o.n):
                if a != b:
                    assert result.prefers(a, b) == o.prefers(inv(a), inv(b))

    @given(permutations_of)
    def test_inverse_roundtrip(self, data):
        ranking, mapping = data
        o = LinearOrder(tuple(ranking))
        sigma = Permutation(tuple(mapping))
        assert apply_permutation(apply_permutation(o, sigma), inverse(sigma)) == o


class TestLocalPermutation:
    def test_identity(self):
        profile = Profile({"i0": lo("0>1>2"), "i1": lo("2>1>0")})
        assert apply_local_permutation(profile, "i0", Permutation((0, 1, 2))) == profile

    def test_only_target_issue_changes(self):
        profile = Profile({"i0": lo("0>1>2"), "i1": lo("2>1>0")})
        changed = apply_local_permutation(profile, "i0", Permutation.transposition(3, 0, 1))
        assert changed("i0") == lo("1>0>2")
        assert changed("i1") == lo("2>1>0")

    def test_inverse_roundtrip(self):
        profile = Profile({"i0": lo("1>2>0"), "i1": lo("0>2>1")})
        sigma = Permutation((2, 0, 1))  # 0 -> 2 -> 1 -> 0
        back = apply_local_permutation(
            apply_local_permutation(profile, "i1", sigma), "i1", inverse(sigma)
        )
        assert back == profile

    def test_unknown_issue(self):
        profile = Profile({"i0": lo("0>1>2")})
        with pytest.raises(InvalidArgumentError):
            apply_local_permutation(profile, "nope", Permutation((0, 1, 2)))


class TestInversions:
    """Inversions are the pairs two orders rank oppositely: those ``concordant_pairs`` leaves out."""

    def test_agreement(self):
        assert concordant_pairs(lo("0>1>2"), lo("0>1>2")) == 3

    def test_full_reversal(self):
        assert concordant_pairs(lo("2>1>0"), lo("0>1>2")) == 0

    def test_single_swap(self):
        assert concordant_pairs(lo("1>0>2"), lo("0>1>2")) == 2

    def test_out_of_range_reference(self):
        with pytest.raises(InvalidArgumentError):
            concordant_pairs(lo("0>1"), lo("0>2>1"))

    @given(permutations_of)
    def test_zero_iff_extends(self, data):
        ranking, other = data
        o = LinearOrder(tuple(ranking))
        n = len(other)
        agree = concordant_pairs(o, LinearOrder(tuple(other))) == n * (n - 1) // 2
        assert agree == all(o.prefers(a, b) for a, b in combinations(other, 2))


class TestKendall:
    def test_extremes(self):
        o = lo("0>1>2")
        assert KENDALL.evaluate(o, o) == 1.0
        assert KENDALL.evaluate(lo("2>1>0"), o) == 0.0

    def test_two_thirds(self):
        assert KENDALL.evaluate(lo("0>1>2"), lo("1>0>2")) == pytest.approx(2 / 3)

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            KENDALL.evaluate(lo("0>1"), lo("0>1>2"))

    @given(permutations_of)
    def test_symmetry(self, data):
        a, b = (LinearOrder(tuple(r)) for r in data)
        assert KENDALL.evaluate(a, b) == KENDALL.evaluate(b, a)

    @given(permutations_of)
    def test_relabeling_invariance(self, data):
        ranking, mapping = data
        a = LinearOrder(tuple(ranking))
        b = LinearOrder(tuple(mapping))
        sigma = Permutation(tuple(mapping))
        assert KENDALL.evaluate(
            apply_permutation(a, sigma), apply_permutation(b, sigma)
        ) == pytest.approx(KENDALL.evaluate(a, b))


def test_exact_match_score():
    assert exact_match_score(lo("0>1>2"), lo("0>1>2")) == 1.0
    assert exact_match_score(lo("0>1>2"), lo("0>2>1")) == 0.0
    with pytest.raises(InvalidArgumentError):
        exact_match_score(lo("0>1"), lo("0>1>2"))


class TestProfile:
    def test_serialize_is_issue_sorted(self):
        profile = Profile({"b": lo("0>1"), "a": lo("1>0")})
        assert profile.serialize() == "a:1>0;b:0>1"

    def test_equality_and_hash(self):
        a = Profile({"i": lo("0>1>2")})
        b = Profile({"i": lo("0>1>2")})
        assert a == b and hash(a) == hash(b)
        assert a != Profile({"i": lo("1>0>2")})

    def test_with_issue(self):
        profile = Profile({"i": lo("0>1>2"), "j": lo("2>1>0")})
        updated = profile.with_issue("j", lo("0>1>2"))
        assert updated("j") == lo("0>1>2")
        assert profile("j") == lo("2>1>0")  # original untouched
        with pytest.raises(InvalidArgumentError):
            profile.with_issue("missing", lo("0>1>2"))

    def test_rejects_non_order_values(self):
        with pytest.raises(InvalidArgumentError):
            Profile({"i": "0>1>2"})


class TestPermutationHelpers:
    def test_transposition_needs_distinct(self):
        with pytest.raises(InvalidArgumentError):
            Permutation.transposition(3, 1, 1)
